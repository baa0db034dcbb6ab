"""``tools/gate_searches.py`` prints the same line for a search on every run, its
``--compare`` reports what two runs differ in, and its searches find the zeros of
``gate_reference.jsonl``: for the first 17, the lines printed when cells of
2 .. _MMAX zeros were split down to 0.4 wide (commit 3cb4d7b); for the last two,
whose first split line runs through a zero, the lines printed once every failed
contour restarted on the next padded rect, with their zeros checked against
colton_example's closed form and against n pi."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("gate_searches",
                                               ROOT / "tools" / "gate_searches.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def test_gate_lines_repeat():
    cheap = [s for s in gate.SEARCHES
             if s[2] == (145.0, 150.5, 0.0, 8.0) or s[:2] == ("constant", [4.0])]
    assert len(gate.SEARCHES) == 19 and len(cheap) == 2
    first = [gate.gate_line(*search) for search in cheap]
    assert [gate.gate_line(*search) for search in cheap] == first
    for line, (name, params, rect) in zip(first, cheap):
        record = json.loads(line)
        assert (record["profile"], record["params"], record["rect"]) == (name, params,
                                                                        list(rect))
        assert record["zeros"] >= 1 and len(record["md5"]) == 32
        assert len(record["zero_list"]) == record["zeros"]
        assert all(isinstance(re, float) and isinstance(im, float) and mult >= 1
                   and cls in ("real", "nonreal") for re, im, mult, cls in record["zero_list"])
        assert record["stats"]["evals"] > 0


def test_gate_searches_find_the_reference_zeros():
    # counts, multiplicities and classes as in the reference, zeros within
    # 1e-9 (1 + |k|); evaluations are free to change
    lines = (ROOT / "tests" / "gate_reference.jsonl").read_text().splitlines()
    refs = [json.loads(line) for line in lines]
    assert [(r["profile"], r["params"], r["rect"]) for r in refs] == \
        [(name, params, list(rect)) for name, params, rect in gate.SEARCHES]
    for ref in refs:
        record = json.loads(gate.gate_line(ref["profile"], ref["params"], tuple(ref["rect"])))
        assert [z[2:] for z in record["zero_list"]] == [z[2:] for z in ref["zero_list"]], ref
        for (re, im, *_), (re0, im0, *_) in zip(record["zero_list"], ref["zero_list"]):
            k0 = complex(re0, im0)
            assert abs(complex(re, im) - k0) <= 1e-9 * (1.0 + abs(k0)), ref


def test_compare_reports_zeros_stats_and_moves(tmp_path, capsys):
    old = {"profile": "const4", "params": None, "rect": [1.0, 7.0, 0.0, 0.5], "zeros": 2,
           "zero_list": [[3.0, 0.0, 1, "real"], [6.0, 1.0, 3, "nonreal"]], "md5": "0" * 32,
           "stats": {"evals": 10, "batches": 2, "retries": {"inflate": 0}}}
    moved = dict(old, zero_list=[[3.0 + 4e-12, 0.0, 1, "real"], [6.0, 1.0, 3, "nonreal"]],
                 stats=dict(old["stats"], evals=12, retries={"inflate": 1}))
    recounted = dict(old, zero_list=[[3.0, 0.0, 1, "real"], [6.0, 1.0, 2, "nonreal"]])
    paths = [tmp_path / name for name in ("old.jsonl", "new.jsonl")]
    paths[0].write_text(json.dumps(old) + "\n" + json.dumps(old) + "\n")
    paths[1].write_text(json.dumps(moved) + "\n" + json.dumps(recounted) + "\n")
    assert gate.main(["--compare", *map(str, paths)]) == 1
    first, second, total = capsys.readouterr().out.splitlines()
    assert first == ("const4 None [1.0, 7.0, 0.0, 0.5]: zeros equal, stats differ in "
                     "evals, retries, max |dk|/(1+|k|) 1.00e-12")
    assert "zeros DIFFER, stats equal, max |dk|/(1+|k|) 0.00e+00" in second
    assert total == "all 2 searches: evals 20 -> 22, batches 4 -> 4"
    paths[1].write_text(json.dumps(moved) + "\n" + json.dumps(old) + "\n")
    assert gate.main(["--compare", *map(str, paths)]) == 0
