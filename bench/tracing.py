"""Per-layer tracing of tevp from outside the package.

The tracer replaces each traced public function at every ``tevp`` module
attribute that holds it, because callers look functions up by the name
they imported (``tevp.zeros`` calls its own ``characteristic_batch``).
Each wrapper times the call and credits it to a layer span; a span's
self time is its duration minus the spans it called.  Spans nested in a
span of the same name (recursive ``find_zeros``) add calls, not time.
Leaving the ``with`` block puts every original function back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SMALL_BATCH = 64         # batches below this size are "small"
LARGE_BATCH = 1024       # batches of at least this size are "large"


def _batch_class(points):
    if points < SMALL_BATCH:
        return "small"
    return "mid" if points < LARGE_BATCH else "large"


class Tracer:
    """Counts and times calls into the tevp layers while active."""

    def __init__(self, tevp):
        self._tevp = tevp
        self._patches = []
        self._stack = []            # one [child_seconds] frame per open span
        self._open = Counter()      # open spans per name
        self.reset()

    def reset(self):
        """Zero every counter; called between passes."""
        self.calls = Counter()
        self.seconds = defaultdict(float)       # inclusive, outermost spans only
        self.self_seconds = defaultdict(float)
        self.batch_points = 0
        self.ksteps = 0
        self.batch_seconds = defaultdict(float)  # by batch size class
        self.sweeps = 0
        self.distinct = set()                    # evaluated (k, n_steps) pairs

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        t = self._tevp
        self._patch(t.forward.characteristic_batch, "forward.batch", self._after_batch)
        self._patch(t.forward.solve_ivp, "forward.adaptive")
        self._patch(t.forward.characteristic, "forward.adaptive")
        self._patch(t.zeros.find_zeros, "zeros.find")
        self._patch(t.kernel.solve_kernel, "kernel.solve", self._after_solve)
        self._patch(t.kernel.boundary_traces, "kernel.traces")
        self._patch(t.kernel.representation_boundary, "kernel.repr")
        self._patch(t.inverse.wronskian_g, "inverse.wronskian")
        self._patch(t.cli.main, "cli.main")
        self._replace(t.inverse.load_scenario, self._scenario_loader)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _replace(self, original, make_wrapper):
        wrapper = make_wrapper(original)
        prefix = self._tevp.__name__
        for name, module in list(sys.modules.items()):
            if module is None or not (name == prefix or name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch(self, original, span, after=None):
        self._replace(original, lambda fn: self._span(span, fn, after))

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._open[name] -= 1
                self.calls[name] += 1
                if not self._open[name]:
                    self.seconds[name] += dt
                self.self_seconds[name] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                t1 = perf_counter()
                after(dt, args, kwargs, result)
                if self._stack:
                    # bookkeeping is tracing overhead, not the caller's self time
                    self._stack[-1][0] += perf_counter() - t1
            return result
        return traced

    def _after_batch(self, dt, args, kwargs, result):
        profile = args[0]
        k = np.asarray(args[1] if len(args) > 1 else kwargs["k"], dtype=complex).ravel()
        n_steps = args[3] if len(args) > 3 else kwargs.get("n_steps")
        if n_steps is None and k.size:
            tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-11)
            n_steps = self._tevp.forward.steps_for(profile, float(np.abs(k).max()), tol)
        self.batch_points += k.size
        self.ksteps += k.size * (n_steps or 0)
        self.batch_seconds[_batch_class(k.size)] += dt
        self.distinct.update((z, n_steps) for z in k.tolist())

    def _after_solve(self, dt, args, kwargs, result):
        self.sweeps += result.iterations

    def _scenario_loader(self, load):
        @functools.wraps(load)
        def traced_load(*args, **kwargs):
            scenario = load(*args, **kwargs)
            scenario.q = self._span("profiles.q", scenario.q)
            scenario.q_tilde = self._span("profiles.q", scenario.q_tilde)
            return scenario
        return traced_load
