import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tevp import cli, forward, inverse
from tevp.asymptotics import case_from_profile, match
from tevp.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_REGIME, main
from tevp.profiles import get_profile
from tevp.zeros import write_zeros_csv


def test_profile_info_json(capsys):
    rc = main(["profile-info", "--profile", "colton_example", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == pytest.approx(math.log(3.0), abs=1e-10)
    assert payload["regime"] == "a_gt_1"
    assert payload["m"] == 0
    assert {"epsilon", "epsilon1", "epsilon2"} <= set(payload)


def test_profile_required():
    assert main(["profile-info"]) == EXIT_INPUT


def test_unknown_profile_name():
    assert main(["profile-info", "--profile", "no_such_profile"]) == EXIT_INPUT


def test_malformed_profile_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["profile-info", "--profile", str(bad)]) == EXIT_INPUT


def test_unknown_subcommand():
    assert main(["frobnicate"]) == EXIT_INPUT


def test_spectrum_rect_validation():
    assert main(["spectrum", "--profile", "const4"]) == EXIT_INPUT
    assert main(["spectrum", "--profile", "const4",
                 "--rect", "1,2,3"]) == EXIT_INPUT
    assert main(["spectrum", "--profile", "const4",
                 "--rect", "1,2,a,b"]) == EXIT_INPUT


def test_spectrum_rect_containing_the_trivial_zero(capsys):
    # a rect within 1e-2 of k = 0, as well as one containing it, is an input error
    for profile, rect in [("colton_example", "0,5,0,2"), ("colton_example", "1e-4,5,0,2"),
                          ("const4", f"0.005,{math.pi},0,0.5")]:
        rc = main(["spectrum", "--profile", profile, "--rect", rect])
        assert rc == EXIT_INPUT
        assert "k = 0" in capsys.readouterr().err


def test_spectrum_degenerate_exit_code(capsys):
    rc = main(["spectrum", "--profile", "const1", "--rect", "0.5,20,0,2"])
    assert rc == EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def test_spectrum_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    for out in (out1, out2):
        rc = main(["spectrum", "--profile", "const4", "--rect", "0.5,7,0,1",
                   "--out", str(out)])
        assert rc == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "run1.csv.json").read_bytes() == \
        (tmp_path / "run2.csv.json").read_bytes()

    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "re_k,im_k,multiplicity,class,residual"
    assert len(lines) == 3          # zeros at pi and 2 pi
    report = json.loads((tmp_path / "run1.csv.json").read_text())
    assert report["count"] == 6
    stats = report["stats"]
    assert sum(stats["phase_evals"].values()) == stats["evals"] > 0
    assert sum(stats["phase_ksteps"].values()) == stats["ksteps"] > 0
    # one symmetric cell (0.5, 7, -1, 1) whose pieces all pass in their first round
    assert stats["segments_reused"] == 0
    for z in report["zeros"]:       # triple zeros: no Newton step certifies them
        cert = z["certificate"]
        assert cert == {"radius": 2e-3, "defect": cert["defect"], "step": None,
                        "min_abs_d": cert["min_abs_d"]}
        assert cert["defect"] <= 0.25
        assert cert["min_abs_d"] > 0.0

    scatter = (tmp_path / "run1.csv.scatter.csv").read_text().splitlines()
    assert scatter[0] == "re,im"
    assert len(scatter) == 1 + 2 * 2    # real zeros contribute +/-k copies


def test_spectrum_json_reports_phase_timings(tmp_path, capsys):
    out = tmp_path / "zeros.csv"
    rc = main(["spectrum", "--profile", "const4", "--rect", "0.5,4,0,1", "--json",
               "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["timings"]) == {"count", "subdivide", "refine"}
    assert all(t >= 0.0 for t in payload["timings"].values())
    assert "timings" not in payload["stats"]
    # the artifact stays equal from run to run: no wall times in it
    assert "timings" not in json.loads((tmp_path / "zeros.csv.json").read_text())


def test_spectrum_json_reports_the_engine_table(capsys):
    rc = main(["spectrum", "--profile", "colton_example", "--rect", "145,150.5,0,8", "--json"])
    assert rc == EXIT_OK
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["table"] == {"n_steps": 581, "centre": 147.79, "radius": stats["table"]["radius"],
                              "steps_per_row": 128, "degree": 24}
    assert stats["zero_step_certificates"] == 0


def test_spectrum_json_reports_its_seeds(capsys):
    rc = main(["spectrum", "--profile", "colton_example", "--rect", "0.3,40,0,6", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert (stats["seeded"], stats["deflated_count"]) == (14, 0)
    assert "seed" in stats["phase_evals"] and "seed" in stats["phase_ksteps"]
    assert "seed" in payload["timings"]


def test_asymptotics_from_spectrum_csv(tmp_path, capsys, colton_spectrum_40):
    csv_path = tmp_path / "zeros.csv"
    write_zeros_csv(csv_path, colton_spectrum_40.zeros)
    rc = main(["asymptotics", "--profile", "colton_example",
               "--spectrum", str(csv_path), "--json",
               "--out", str(tmp_path / "match.csv")])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["unmatched_zeros"] == 0
    assert payload["matched"] > 5
    assert payload["counting"]
    # one prediction per zero, so the unmatched ones lie outside the matched run
    expect = match(colton_spectrum_40, case_from_profile(get_profile("colton_example")))
    assert payload["unmatched_predictions"] == expect.unmatched_predictions == [1, 14, 15]
    header = (tmp_path / "match.csv").read_text().splitlines()[0]
    assert header == "n,re_pred,im_pred,re_comp,im_comp,abs_residual"
    assert main(["asymptotics", "--profile", "colton_example",
                 "--spectrum", str(csv_path)]) == EXIT_OK
    assert "unmatched predictions: n = [1, 14, 15]" in capsys.readouterr().out


def test_kernel_check_passes(capsys):
    rc = main(["kernel-check", "--profile", "colton_example"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("[PASS]") == 2


def test_inverse_check_fast(capsys):
    rc = main(["inverse-check", "--fast", "--seed", "7"])
    assert rc == EXIT_OK
    assert "[PASS]" in capsys.readouterr().out


def test_inverse_check_regime_exit(tmp_path, capsys, monkeypatch):
    sc = {"q": "colton_example", "q_tilde": "colton_example",
          "agree_from": 0.6, "b": 0.01}       # b below (a-1)/2
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc))

    def no_wronskian(*args, **kwargs):
        raise AssertionError("the Wronskian check ran before the regime check")

    monkeypatch.setattr(inverse, "wronskian_g", no_wronskian)
    rc = main(["inverse-check", "--fast", "--scenario", str(p)])
    assert rc == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


def test_inverse_check_threshold_needs_a_above_one(tmp_path, capsys, monkeypatch):
    # slow_core has a = 0.577: no threshold a + 1 - 2b exists, whatever b is
    sc = {"q": "slow_core", "q_tilde": "slow_core", "agree_from": 0.3, "b": 0.6}
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc))

    def no_wronskian(*args, **kwargs):
        raise AssertionError("the Wronskian check ran before the regime check")

    monkeypatch.setattr(inverse, "wronskian_g", no_wronskian)
    rc = main(["inverse-check", "--fast", "--scenario", str(p)])
    assert rc == EXIT_REGIME
    captured = capsys.readouterr()
    assert "regime error" in captured.err and "threshold" not in captured.out


def test_spectrum_json_reports_residuals_and_stats(capsys):
    rc = main(["spectrum", "--profile", "const4", "--rect", "0.5,7,0,1", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert all(isinstance(z["residual"], float) for z in payload["zeros"])
    assert payload["stats"]["evals"] > 0
    assert payload["stats"]["noteworthy_multiple_nonreal"] == []
    # the outer symmetric cell counts 6 zeros, at most 2 _MMAX: it is refined unsplit
    assert payload["stats"]["early_splits"] == 0 and payload["stats"]["clusters"] == 1


def test_kernel_check_json(capsys):
    rc = main(["kernel-check", "--profile", "colton_example", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [c["pass"] for c in payload["checks"]] == [True] * 2
    assert all(c["residual"] <= max(c["bound"], 1e-15) for c in payload["checks"])
    assert [s["M"] for s in payload["solves"]] == [400, 800]
    assert all(0 < s["sweeps"] < 50 and 0.0 <= s["final_delta"] <= 1e-11
               for s in payload["solves"])


def test_kernel_check_non_finite_potential_is_an_input_error(monkeypatch, capsys):
    transform = cli.liouville_transform

    def nan_q(profile):
        lv = transform(profile)
        return replace(lv, q=lambda x: np.where(np.asarray(x) > 0.5, np.nan, lv.q(x)))

    monkeypatch.setattr(cli, "liouville_transform", nan_q)
    assert main(["kernel-check", "--profile", "colton_example"]) == EXIT_INPUT
    assert "q is not finite at x = " in capsys.readouterr().err


def test_kernel_check_json_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["kernel-check", "--profile", "slow_core", "--json"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "solves" in json.loads(outputs[0])


def test_inverse_check_json(capsys):
    rc = main(["inverse-check", "--fast", "--seed", "7", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["samples"] == 12
    assert payload["wronskian_worst"] <= 1e-8


def test_tol_only_on_subcommands_that_read_it(capsys):
    # no subcommand reads a tolerance, so none accepts --tol
    assert main(["kernel-check", "--profile", "colton_example", "--tol", "1e-3"]) == EXIT_INPUT
    assert main(["profile-info", "--profile", "colton_example", "--tol", "1e-3"]) == EXIT_INPUT
    assert main(["inverse-check", "--fast", "--tol", "1e-3"]) == EXIT_INPUT
    assert main(["spectrum", "--profile", "const4", "--rect", "0.5,7,0,1",
                 "--tol", "1e-9"]) == EXIT_INPUT
    assert main(["asymptotics", "--profile", "colton_example", "--rect", "0.3,10,0,6",
                 "--tol", "1e-9"]) == EXIT_INPUT


def test_asymptotics_rejects_search_flags_with_a_spectrum_file(tmp_path):
    # the zeros come from the file, so --rect would be ignored
    csv_path = tmp_path / "zeros.csv"
    write_zeros_csv(csv_path, [])
    base = ["asymptotics", "--profile", "colton_example", "--spectrum", str(csv_path)]
    assert main(base + ["--rect", "0.3,10,0,6"]) == EXIT_INPUT


def test_inverse_check_rejects_profile_with_a_scenario(tmp_path):
    sc = {"q": "colton_example", "q_tilde": "colton_example", "agree_from": 0.6}
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc))
    assert main(["inverse-check", "--fast", "--scenario", str(p),
                 "--profile", "slow_core"]) == EXIT_INPUT


def test_unknown_profile_key_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "prof.json"
    p.write_text(json.dumps({"kind": "chebyshev", "coeffs": [2, 0.1], "smoothness_m": 7}))
    assert main(["profile-info", "--profile", str(p)]) == EXIT_INPUT
    assert "smoothness_m" in capsys.readouterr().err
    # the tail check moved to the asymptotics, and its flag with it
    p.write_text(json.dumps({"kind": "named", "name": "colton_example", "normalized_tail": True}))
    assert main(["profile-info", "--profile", str(p)]) == EXIT_INPUT
    assert "normalized_tail" in capsys.readouterr().err


def test_unknown_scenario_key_is_an_input_error(tmp_path, capsys):
    # "bmup" for "bump": read as no bump, g = 0 would pass every check
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({"q": "colton_example", "agree_from": 0.6,
                             "q_tilde": {"base": "colton_example", "bmup": {
                                 "amplitude": 0.8, "center": 0.3, "width": 0.2}}}))
    assert main(["inverse-check", "--fast", "--scenario", str(p)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "bmup" in captured.err and "[PASS]" not in captured.out


def test_non_numeric_scenario_field_is_an_input_error(tmp_path, capsys):
    # a string b reached theorem4_threshold and ended in a TypeError traceback
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({"q": "colton_example", "q_tilde": "colton_example",
                             "agree_from": 0.6, "b": "0.1"}))
    assert main(["inverse-check", "--fast", "--scenario", str(p)]) == EXIT_INPUT
    assert "input error: scenario 'b' must be a real number" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0.0, -0.2, math.nan])
def test_bump_width_not_positive_is_an_input_error(tmp_path, capsys, width):
    # a width of 0 added no bump: q~ = q and a [PASS] with exit 0
    p = tmp_path / "sc.json"
    p.write_text(json.dumps({"q": "colton_example", "agree_from": 0.6, "q_tilde": {
        "base": "colton_example", "bump": {"amplitude": 0.8, "center": 0.3, "width": width}}}))
    assert main(["inverse-check", "--fast", "--scenario", str(p)]) == EXIT_INPUT
    assert "input error: bump amplitude, center and width must be finite" in \
        capsys.readouterr().err


def test_asymptotics_of_an_unmatched_tail_is_an_input_error(tmp_path, capsys):
    # eta(1) = 1.5 and eta'(1) = 1: the formulas' tail assumption fails
    p = tmp_path / "prof.json"
    p.write_text(json.dumps({"kind": "chebyshev", "coeffs": [1.6, -0.3, 0.2]}))
    assert main(["asymptotics", "--profile", str(p), "--rect", "0.3,10,0,6"]) == EXIT_INPUT
    assert "input error: the asymptotic formulas need eta(1) = 1" in capsys.readouterr().err
    assert main(["profile-info", "--profile", str(p)]) == EXIT_OK
    assert ("m        = indeterminate (the asymptotic formulas need eta(1) = 1"
            in capsys.readouterr().out)


@pytest.mark.parametrize("cmd", [["profile-info"], ["kernel-check"],
                                 ["asymptotics", "--rect", "0.3,10,0,6"]])
def test_missing_profile_derivative_is_an_input_error(tmp_path, capsys, cmd):
    # q needs eta'', which a deriv_order-1 series cannot supply
    p = tmp_path / "prof.json"
    p.write_text(json.dumps({"kind": "chebyshev", "coeffs": [1.5, 0.3, 0.1], "deriv_order": 1}))
    assert main(cmd + ["--profile", str(p)]) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("rect", ["1,inf,0,1", "1,5,0,inf"])
def test_spectrum_non_finite_rect_is_an_input_error(capsys, rect):
    assert main(["spectrum", "--profile", "const4", "--rect", rect]) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"kind": "named", "name": "slow_core", "params": [0.5, 40, 7, 8]},
    {"kind": "named", "name": "raised_cosine", "params": [1.0, 0]},
])
def test_surplus_named_params_are_an_input_error(tmp_path, capsys, spec):
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(spec))
    assert main(["profile-info", "--profile", str(p)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error:" in err and "params" in err


@pytest.mark.parametrize("spec", [
    {"kind": "named", "name": "raised_cosine", "params": 2},
    {"kind": "named", "name": "raised_cosine", "params": ["x"]},
    [{"kind": "named", "name": "raised_cosine"}],
    {"kind": "chebyshev", "coeffs": [2.0, None]},
    {"kind": "chebyshev", "coeffs": [1.5, 0.3, 0.1], "deriv_order": 2.5},
    {"kind": "chebyshev", "coeffs": [1.5, 0.3, 0.1], "deriv_order": -1},
])
def test_malformed_profile_json_is_an_input_error(tmp_path, capsys, spec):
    # each once escaped main as a TypeError or AttributeError traceback, was
    # truncated (deriv_order 2.5 ran as 2), or failed later (-1)
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(spec))
    assert main(["profile-info", "--profile", str(p)]) == EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


def test_kernel_check_pass_builds_few_composed_tables(monkeypatch, capsys):
    # the reference shooting evaluates one k per grid, so it steps the uncomposed RK8
    # rows: a kernel-check composes no table and leaves a search's cached ones alone
    built = []
    composed = forward._composed_steps
    monkeypatch.setattr(forward, "_composed_steps",
                        lambda profile, n, disk=None: built.append(n) or composed(profile, n, disk))
    codes = [main(["kernel-check", "--profile", name, "--json"])
             for name in ("colton_example", "raised_cosine", "slow_core", "const4")]
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_NUMERIC]
    assert built == []


# every flag rule the parser declares: {inputs} is a zeros CSV and a scenario
# file made beforehand, {out} a path under the test's empty directory
_USAGE_ERRORS = {
    "profile-info without --profile": "profile-info",
    "spectrum without --profile": "spectrum --rect 0.3,10,0,4",
    "spectrum without --rect": "spectrum --profile colton_example",
    "asymptotics without --profile": "asymptotics --rect 0.3,10,0,4",
    "kernel-check without --profile": "kernel-check",
    "asymptotics with neither --rect nor --spectrum": "asymptotics --profile colton_example",
    "asymptotics with --rect and --spectrum":
        "asymptotics --profile colton_example --spectrum {inputs}/z.csv --rect 0.3,10,0,4",
    "inverse-check with --profile and --scenario":
        "inverse-check --fast --scenario {inputs}/sc.json --profile slow_core",
    "three rect entries": "spectrum --profile colton_example --rect 1,2,3",
    "a rect entry that is no number": "spectrum --profile colton_example --rect 1,2,a,b",
    "asymptotics with a bad rect": "asymptotics --profile colton_example --rect 1,2,3",
    "empty --profile": "profile-info --profile=",
    "empty --scenario": "inverse-check --fast --scenario=",
    "empty --profile on inverse-check": "inverse-check --fast --profile=",
    "empty --out on spectrum": "spectrum --profile colton_example --rect 0.3,10,0,4 --out=",
    "empty --out on kernel-check": "kernel-check --profile colton_example --out=",
    "empty --out on profile-info": "profile-info --profile colton_example --out=",
    "empty --spectrum": "asymptotics --profile colton_example --spectrum= --rect 0.3,10,0,4",
    "--rect on kernel-check": "kernel-check --profile colton_example --rect 0.3,10,0,4 "
                              "--out {out}",
    "--scenario on spectrum": "spectrum --profile colton_example --rect 0.3,10,0,4 "
                              "--scenario {inputs}/sc.json --out {out}",
}


@pytest.fixture(scope="module")
def usage_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    write_zeros_csv(inputs / "z.csv", [])
    (inputs / "sc.json").write_text(json.dumps(
        {"q": "colton_example", "q_tilde": "colton_example", "agree_from": 0.6}))
    return inputs


@pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
def test_flag_rules_are_usage_errors(usage_inputs, tmp_path, monkeypatch, capsys, argv):
    # the parser rejects each before any command runs: no result, no file
    monkeypatch.chdir(tmp_path)
    argv = argv.format(inputs=usage_inputs, out=tmp_path / "out.csv").split()
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_cached_parser_keeps_no_state_between_calls(capsys):
    # kernel-check --json after profile-info, in one process, prints what it prints alone
    argv = ["kernel-check", "--profile", "slow_core", "--json"]
    assert main(argv) == EXIT_OK
    alone = capsys.readouterr().out
    assert main(["profile-info", "--profile", "colton_example"]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == alone
