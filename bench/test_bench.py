"""Tests of the benchmark itself: oracle, tracer and BENCHMARK.json.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tevp          # noqa: E402
import tevp.cli      # noqa: E402

import oracle        # noqa: E402
import run           # noqa: E402
from tracing import Tracer   # noqa: E402

RECT = (0.3, 16.0, 0.0, 4.0)


@pytest.fixture(scope="module")
def colton():
    return tevp.profiles.get_profile("colton_example")


@pytest.fixture(scope="module")
def search(colton):
    return run.run_search(tevp, colton, RECT)


def _module_state():
    return {(name, attr): id(value)
            for name, module in sys.modules.items()
            if module is not None and (name == "tevp" or name.startswith("tevp."))
            for attr, value in vars(module).items()}


def test_closed_form_matches_the_shooting_solver(colton):
    for k in (3 + 1j, 20 + 4j, 0.4, 37.5 + 0.2j):
        assert oracle.closed_form(k) == pytest.approx(
            tevp.forward.characteristic(colton, k).value(), rel=1e-9)


def test_oracle_accepts_the_search_result(search):
    assert search["error"] is None and len(search["zeros"]) >= 2
    ok, detail = oracle.check_zeros(RECT, search["zeros"])
    assert ok, detail
    assert detail["max_err"] < 1e-10


def test_oracle_rejects_a_moved_zero(search):
    zeros = list(search["zeros"])
    k, m = zeros[0]
    zeros[0] = (k + 1e-6, m)
    ok, detail = oracle.check_zeros(RECT, zeros)
    assert not ok and "from the root" in detail["reason"]


def test_oracle_rejects_a_missing_zero(search):
    ok, detail = oracle.check_zeros(RECT, search["zeros"][1:])
    assert not ok and detail["found"] == detail["expected"] - 1


def test_traced_search_matches_untraced(colton, search):
    with Tracer(tevp) as tracer:
        traced = run.run_search(tevp, colton, RECT)
    assert run.same_output(search, traced)
    assert [k for k, _ in traced["zeros"]] == pytest.approx(
        [k for k, _ in search["zeros"]], abs=1e-12)
    assert tracer.calls["zeros.find"] >= 1
    assert tracer.calls["forward.batch"] == traced["batches"]
    assert tracer.batch_points == traced["evals"]
    assert 0.0 < len(tracer.distinct) <= tracer.batch_points


def test_traced_cli_matches_untraced():
    argv = ("kernel-check", "--profile", "const4")
    plain = run.run_cli(tevp, argv)
    with Tracer(tevp) as tracer:
        traced = run.run_cli(tevp, argv)
    assert plain["code"] == traced["code"] == 4
    assert run.same_output(plain, traced)
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["kernel.solve"] == 2
    assert tracer.sweeps > 0
    assert tracer.calls["forward.adaptive"] == 4
    # cli.main's self time plus its direct children is its whole duration
    assert tracer.self_seconds["cli.main"] < tracer.seconds["cli.main"]


def test_tracer_restores_every_attribute():
    original = tevp.zeros.characteristic_batch
    before = _module_state()
    with Tracer(tevp):
        assert tevp.zeros.characteristic_batch is not original
        assert tevp.forward.characteristic_batch is tevp.zeros.characteristic_batch
    assert tevp.zeros.characteristic_batch is original
    assert _module_state() == before


def test_pass_times_are_rescaled_by_the_reference(monkeypatch):
    monkeypatch.setattr(run, "reference_s", lambda: 2.0 * run.REF_NOMINAL_S)
    ops = [("profile-info", "--profile", "const4")]
    passes, ref = run.measure(tevp, "identities", ops, None, 0.0, 2.0 * run.REF_NOMINAL_S)
    (rec,) = passes
    assert ref == 2.0 * run.REF_NOMINAL_S
    assert rec["outcomes"][0]["code"] == 0
    assert rec["wall_s"] == pytest.approx(0.5 * rec["raw_wall_s"])
    assert rec["cpu_s"] == pytest.approx(0.5 * rec["raw_cpu_s"])


def test_known_defect_counts_as_failed_but_not_incorrect():
    const4 = run.run_cli(tevp, ("kernel-check", "--profile", "const4"))
    ok, known, _ = run.check_cli(const4)
    assert not ok and known
    other = dict(const4, argv=("kernel-check", "--profile", "slow_core"))
    ok, known, _ = run.check_cli(other)
    assert not ok and not known
    garbled = dict(const4, code=0, stdout="")
    assert run.check_cli(garbled)[:2] == (False, False)


def test_operations_come_from_the_seed():
    assert run.operations("identities", 7)[-1] == ("inverse-check", "--fast", "--seed", "7")
    assert run.operations("search_band150", 7) == [(145.0, 150.5, 0.0, 8.0)]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "search_k40",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
