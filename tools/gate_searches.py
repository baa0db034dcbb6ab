"""Print one JSON line per gate search, to check what a change does to the zeros.

Each line holds the profile, the rect, the zero count, the zeros as
[re, im, multiplicity, class] (plain JSON floats, which round-trip exactly),
an md5 over every zero's ``float.hex`` parts, multiplicity, class, residual
and certificate fields, and ``report_to_json``'s ``stats``.  Run it on two
trees and diff for bit-identity, or compare the zero lists within a
tolerance with ``--compare``, which runs no search, ends with the total
evaluations and batches over all searches, old -> new, and exits 1 if a
count, multiplicity or class differs (see the README):

    PYTHONPATH=src python tools/gate_searches.py > gate.jsonl
    PYTHONPATH=src python tools/gate_searches.py --compare old.jsonl new.jsonl
"""

import argparse
import hashlib
import json
import math
import pathlib

from tevp.profiles import get_profile
from tevp.zeros import find_zeros, report_to_json

# (profile name, params or None, rect)
SEARCHES = [
    ("colton_example", None, (0.3, 40.0, 0.0, 6.0)),
    ("colton_example", None, (0.3, 40.5, 0.0, 6.0)),
    ("colton_example", None, (145.0, 150.5, 0.0, 8.0)),
    ("colton_example", None, (0.3, 150.5, 0.0, 8.0)),
    ("slow_core", None, (0.3, 30.0, 0.0, 6.0)),
    ("raised_cosine", None, (0.3, 30.0, 0.0, 6.0)),
    ("const4", None, (0.5, 31.0, 0.0, 1.0)),
    ("const4", None, (4.0, 2.0 * math.pi, 0.0, 0.5)),
    ("const4", None, (2.0, 2.0 * math.pi, 0.0, 1.0)),
    ("const4", None, (math.pi, 20.0, 0.0, 0.5)),
] + [("constant", [4.0 + eps], (2.5, 3.8, 0.0, 0.5))
     for eps in (0.0, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)] + [
    # a first split line through a simple zero, 20.08500253221 + 4.54787798154i,
    # and through the triple zero at 2 pi: both searches restart on a padded rect
    ("colton_example", None, (20.08500253221 - 9.0, 20.08500253221 + 9.0, 0.0, 6.0)),
    ("const4", None, (1.0, 4.0 * math.pi - 1.0, 0.0, 0.5)),
]


def _hex(value):
    return None if value is None else float(value).hex()


def gate_line(name, params, rect):
    """The JSON line of one search."""
    report = find_zeros(get_profile(name, params), rect)
    digest = hashlib.md5()
    for z in report.zeros:
        cert = z.certificate
        parts = [_hex(z.k.real), _hex(z.k.imag), z.multiplicity, z.cls, _hex(z.residual),
                 _hex(cert.radius), _hex(cert.defect), _hex(cert.step),
                 _hex(cert.min_abs_d)]
        digest.update(repr(parts).encode())
    return json.dumps({"profile": name, "params": params, "rect": list(rect),
                       "zeros": len(report.zeros),
                       "zero_list": [[z.k.real, z.k.imag, z.multiplicity, z.cls]
                                     for z in report.zeros],
                       "md5": digest.hexdigest(),
                       "stats": report_to_json(report)["stats"]})


def compare(old_lines, new_lines):
    """A report per pair of gate lines: whether the counts, multiplicities and
    classes are equal, which ``stats`` keys differ and the largest |dk| / (1 + |k|),
    then one of the total evaluations and batches; and whether every pair is of
    one search with equal counts, multiplicities and classes."""
    olds, news = [json.loads(line) for line in old_lines], [json.loads(line) for line in new_lines]
    reports, ok = [], len(olds) == len(news)
    for old, new in zip(olds, news):
        same = ((old["profile"], old["params"], old["rect"], old["zeros"])
                == (new["profile"], new["params"], new["rect"], new["zeros"])
                and [z[2:] for z in old["zero_list"]] == [z[2:] for z in new["zero_list"]])
        stats = sorted(key for key in old["stats"].keys() | new["stats"].keys()
                       if old["stats"].get(key) != new["stats"].get(key))
        shift = max((abs(complex(*b[:2]) - complex(*a[:2])) / (1.0 + abs(complex(*a[:2])))
                     for a, b in zip(old["zero_list"], new["zero_list"])), default=0.0)
        reports.append(f"{old['profile']} {old['params']} {old['rect']}: "
                       f"zeros {'equal' if same else 'DIFFER'}, "
                       f"stats {'differ in ' + ', '.join(stats) if stats else 'equal'}, "
                       f"max |dk|/(1+|k|) {shift:.2e}")
        ok = ok and same
    reports.append(f"all {len(reports)} searches: " + ", ".join(
        f"{key} {sum(r['stats'][key] for r in olds):,} -> {sum(r['stats'][key] for r in news):,}"
        for key in ("evals", "batches")))
    return reports, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description="Gate searches: print or compare their lines.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files of gate lines instead of running the searches")
    args = parser.parse_args(argv)
    if args.compare:
        reports, ok = compare(*(pathlib.Path(path).read_text().splitlines()
                                for path in args.compare))
        print("\n".join(reports))
        return 0 if ok else 1
    for search in SEARCHES:
        print(gate_line(*search), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
