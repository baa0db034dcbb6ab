import json
import math

import pytest

from tevp.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_REGIME, main
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

    scatter = (tmp_path / "run1.csv.scatter.csv").read_text().splitlines()
    assert scatter[0] == "re,im"
    assert len(scatter) == 1 + 2 * 2    # real zeros contribute +/-k copies


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
    header = (tmp_path / "match.csv").read_text().splitlines()[0]
    assert header == "n,branch,re_pred,im_pred,re_comp,im_comp,abs_residual"


def test_kernel_check_passes(capsys):
    rc = main(["kernel-check", "--profile", "colton_example"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("[PASS]") == 4


def test_inverse_check_fast(capsys):
    rc = main(["inverse-check", "--fast", "--seed", "7"])
    assert rc == EXIT_OK
    assert "[PASS]" in capsys.readouterr().out


def test_inverse_check_regime_exit(tmp_path, capsys):
    sc = {"q": "colton_example", "q_tilde": "colton_example",
          "agree_from": 0.6, "b": 0.01}       # b below (a-1)/2
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(sc))
    rc = main(["inverse-check", "--fast", "--scenario", str(p)])
    assert rc == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


def test_spectrum_json_reports_residuals_and_stats(capsys):
    rc = main(["spectrum", "--profile", "const4", "--rect", "0.5,7,0,1", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert all(isinstance(z["residual"], float) for z in payload["zeros"])
    assert payload["stats"]["evals"] > 0
    assert payload["stats"]["noteworthy_multiple_nonreal"] == []


def test_kernel_check_json(capsys):
    rc = main(["kernel-check", "--profile", "colton_example", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [c["pass"] for c in payload["checks"]] == [True] * 4
    assert all(c["residual"] <= max(c["bound"], 1e-15) for c in payload["checks"])


def test_inverse_check_json(capsys):
    rc = main(["inverse-check", "--fast", "--seed", "7", "--json"])
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["samples"] == 12
    assert payload["wronskian_worst"] <= 1e-8
