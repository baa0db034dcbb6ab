"""Command-line front end.

Subcommands: profile-info, spectrum, asymptotics, kernel-check,
inverse-check.  Output is deterministic CSV/JSON; plotting is left to
external tools.  Exit codes: 0 success, 2 input error, 3 regime error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import asymptotics as asym
from . import inverse as inv
from . import kernel as ker
from . import zeros as zmod
from .errors import (ContourTooClose, DegenerateCharacteristic, DerivativeUnavailable,
                     IterationDiverged, MassOutOfRange, NewtonStall, NoConvergence,
                     QuadratureFailure, RegimeError, StepUnderflow)
from .profiles import liouville_transform, load_profile, subinterval_boundary, travel_time

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (ContourTooClose, NewtonStall, StepUnderflow, NoConvergence,
                   DegenerateCharacteristic, IterationDiverged, QuadratureFailure)
_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError,
                 MassOutOfRange, DerivativeUnavailable)


def _parse_rect(text):
    """The type of --rect: four floats x0,x1,y0,y1."""
    try:
        x0, x1, y0, y1 = map(float, text.split(","))
    except ValueError:      # an entry float cannot read, or not four entries
        raise argparse.ArgumentTypeError(f"wants x0,x1,y0,y1, got {text!r}") from None
    return x0, x1, y0, y1


def _nonempty(text):
    """The type of a name or path flag: an empty value is a usage error, not an absent flag."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty value")
    return text


def _print(args, payload, text_lines):
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else "\n".join(text_lines))


def _emit(args, payload, text_lines):
    """Print, and write the JSON payload to --out."""
    _print(args, payload, text_lines)
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_profile_info(args):
    profile = load_profile(args.profile)
    a = travel_time(profile)
    lv = liouville_transform(profile)
    regime = asym.regime(a)
    payload = {"profile": args.profile, "a": a, "q_mean": lv.q_mean,
               "regime": regime}
    lines = [f"a        = {a:.12g}",
             f"q_mean   = {lv.q_mean:.12g}",
             f"regime   = {regime}"]
    try:
        case = asym.case_from_profile(profile, liouville=lv)
        payload.update(m=case.m, eta_deriv=case.eta_deriv)
        lines.append(f"m        = {case.m} (eta^({case.m + 2})(1) = {case.eta_deriv:.6g})")
    except ValueError as exc:
        lines.append(f"m        = indeterminate ({exc})")
    if regime == "a_eq_1":
        lines.append("warning: a = 1 — degenerate travel time regime")
    if regime == "a_gt_1":
        eps = inv.theorem3_epsilon(profile).epsilon
        # representative b strictly above the minimum mass (a-1)/2
        b2 = 0.75 * (a - 1.0)
        eps2 = subinterval_boundary(profile, b2)
        payload.update(epsilon=eps, epsilon2=eps2, epsilon2_mass=b2)
        lines.append(f"epsilon  = {eps:.12g}  (mass (a-1)/2)")
        lines.append(f"epsilon2 = {eps2:.12g}  (mass b = {b2:.6g})")
        try:
            eps1 = subinterval_boundary(profile, 0.5 * (a + 1.0))
            payload["epsilon1"] = eps1
            lines.append(f"epsilon1 = {eps1:.12g}  (mass (a+1)/2)")
        except MassOutOfRange:
            lines.append("epsilon1 = undefined (mass (a+1)/2 exceeds a)")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_spectrum(args):
    report = zmod.find_zeros(load_profile(args.profile), args.rect)
    lines = [f"zeros found: {len(report.zeros)} "
             f"(count {report.total_count_by_argument_principle} with multiplicity)"]
    for z in report.zeros:
        lines.append(f"  {z.k.real:+.9f} {z.k.imag:+.9f}  m={z.multiplicity}"
                     f"  {z.cls}  |D|={z.residual:.2e}")
    if args.out is not None:
        zmod.write_zeros_csv(args.out, report.zeros)
        zmod.write_report_json(args.out + ".json", report)
        zmod.write_scatter_csv(args.out + ".scatter.csv", report.zeros)
        lines.append(f"wrote {args.out}, {args.out}.json, {args.out}.scatter.csv")
    _print(args, zmod.report_to_json(report), lines)
    return EXIT_OK


def cmd_asymptotics(args):
    profile = load_profile(args.profile)
    case = asym.case_from_profile(profile)
    zeros = (zmod.read_zeros_csv(args.spectrum) if args.rect is None
             else zmod.find_zeros(profile, args.rect).zeros)
    nonreal = [z for z in zeros if z.cls == "nonreal"]
    if nonreal and case.regime == "a_eq_1":
        raise RegimeError("spectrum regime check failed for a = 1")
    report = asym.match(zeros, case)
    radii = sorted({round(abs(z.k), 6) for z in nonreal})[-5:]
    counting = asym.counting_check(zeros, radii) if radii else []
    max_res = max((p.residual for p in report.matched), default=0.0)
    lines = [f"matched {len(report.matched)} zeros "
             f"(shift {report.index_shift}), max residual {max_res:.3e}",
             f"unmatched zeros: {len(report.unmatched_zeros)}",
             f"unmatched predictions: n = {report.unmatched_predictions}"]
    for r, N, ratio in counting:
        lines.append(f"  counting r={r:8.3f}  N={N:4d}  N*pi/(4r)={ratio:.4f}")
    if args.out is not None:
        asym.write_match_csv(args.out, report)
        lines.append(f"wrote {args.out}")
    payload = {
        "index_shift": report.index_shift,
        "matched": len(report.matched),
        "unmatched_zeros": len(report.unmatched_zeros),
        "unmatched_predictions": report.unmatched_predictions,
        "max_residual": max_res,
        "counting": [{"r": r, "N": N, "ratio": ratio} for r, N, ratio in counting],
    }
    _print(args, payload, lines)
    return EXIT_OK


def cmd_kernel_check(args):
    checks, grids, _errors = ker.identity_checks(liouville_transform(load_profile(args.profile)))
    rows = [{"name": name, "residual": float(resid), "bound": bound, "pass": bool(resid <= bound)}
            for name, resid, bound in checks]
    lines = [f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}: "
             f"residual {c['residual']:.3e} (bound {c['bound']:.1e})" for c in rows]
    solves = [{"M": g.x.size - 1, "sweeps": g.iterations, "final_delta": g.final_delta}
              for g in grids]
    _emit(args, {"checks": rows, "solves": solves}, lines)
    return EXIT_OK if all(c["pass"] for c in rows) else EXIT_NUMERIC


def cmd_inverse_check(args):
    if args.scenario is not None:
        sc = inv.load_scenario(args.scenario)
    else:
        profile_ref = "colton_example" if args.profile is None else args.profile
        x0 = inv.theorem3_epsilon(load_profile(profile_ref)).x0
        bump = {"amplitude": 0.8, "center": 0.25 * x0, "width": 0.2 * x0}
        sc = inv.load_scenario({"q": profile_ref, "q_tilde": {"base": profile_ref, "bump": bump},
                                "agree_from": x0})
    # the regime check is cheap and can fail, so it runs before the Wronskian
    thr = None if sc.b is None else inv.theorem4_threshold(sc.a, sc.b)
    rng = np.random.default_rng(args.seed)
    n_k = 12 if args.fast else 50
    ks = np.array([complex(rng.uniform(-30.0, 30.0), rng.uniform(0.0, 3.0)) for _ in range(n_k)])
    gi, gw = inv.wronskian_g(sc, ks)
    worst = float(np.max(np.abs(gi - gw) / np.maximum(1.0, np.abs(gi))))
    passed = worst <= 1e-8
    lines = [f"[{'PASS' if passed else 'FAIL'}] Wronskian two-way agreement: "
             f"worst {worst:.3e} over {n_k} random k (bound 1e-8)"]
    payload = {"wronskian_worst": float(worst), "samples": n_k, "pass": bool(passed)}
    if thr is not None:
        payload["threshold"] = thr
        lines.append(f"density threshold a+1-2b = {thr:.6g}"
                     + (f" (claimed alpha = {sc.alpha})" if sc.alpha else ""))
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The one parser, built on first use: it holds every flag rule, so a missing,
    empty or conflicting flag is a usage error (exit 2) before any command runs."""
    p = argparse.ArgumentParser(
        prog="tevp",
        description="Transmission eigenvalues of spherically stratified media")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, summary, profile=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        if profile:
            sp.add_argument("--profile", type=_nonempty, required=True,
                            help="profile registry name or JSON path")
        sp.add_argument("--out", type=_nonempty, help="output path")
        sp.add_argument("--json", action="store_true", help="machine-readable JSON to stdout")
        return sp

    command("profile-info", cmd_profile_info, "travel time, regime, potentials")
    sp = command("spectrum", cmd_spectrum, "zeros of d in a rectangle")
    sp.add_argument("--rect", type=_parse_rect, required=True, help="x0,x1,y0,y1")

    zeros = command("asymptotics", cmd_asymptotics,
                    "match zeros against predictions").add_mutually_exclusive_group(required=True)
    zeros.add_argument("--rect", type=_parse_rect, help="x0,x1,y0,y1")
    zeros.add_argument("--spectrum", type=_nonempty, help="zeros CSV from a previous spectrum run")

    command("kernel-check", cmd_kernel_check, "transmutation kernel oracle suite")

    sp = command("inverse-check", cmd_inverse_check, "Wronskian identity scenario suite",
                 profile=False)
    media = sp.add_mutually_exclusive_group()
    media.add_argument("--profile", type=_nonempty,
                       help="profile registry name or JSON path (default colton_example)")
    media.add_argument("--scenario", type=_nonempty, help="scenario JSON path")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fast", action="store_true", help="fewer sample points (12 instead of 50)")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
