import csv
import json
import math

import numpy as np
import pytest

from tevp.errors import DegenerateCharacteristic
from tevp.forward import scaled_characteristic
from tevp.profiles import ConstantProfile
from tevp.zeros import (SearchReport, SpectralZero, _Candidate, _newton_polish,
                        count_zeros, find_zeros, real_zeros, report_to_json,
                        write_report_json, write_zeros_csv)

CONST4 = ConstantProfile(4.0)
CONST1 = ConstantProfile(1.0)


def test_count_triple_zeros():
    # eta == 4: zeros n pi with multiplicity 3
    assert count_zeros(CONST4, (0.5, 2.0 * math.pi + 0.5, -1.0, 1.0)) == 6
    assert count_zeros(CONST4, (0.5, 10.2 * math.pi, -1.0, 1.0)) == 30


def test_count_empty_region():
    assert count_zeros(CONST4, (0.5, 2.5, 0.5, 2.0)) == 0


def test_count_perturbs_contour_through_zero():
    # the right edge passes exactly through the triple zero at 2*pi
    n = count_zeros(CONST4, (4.0, 2.0 * math.pi, -0.5, 0.5))
    assert n in (0, 3)      # inflation moves the edge off the zero


def test_find_zeros_triple(const4):
    rep = find_zeros(const4, (0.5, 10.0, 0.0, 1.0))
    assert rep.total_count_by_argument_principle == 9
    assert len(rep.zeros) == 3
    for n, z in enumerate(rep.zeros, start=1):
        assert z.multiplicity == 3
        assert z.cls == "real"
        assert abs(z.k - n * math.pi) <= 1e-8


def test_find_zeros_nonreal(colton_spectrum_40):
    rep = colton_spectrum_40
    nonreal = [z for z in rep.zeros if z.cls == "nonreal"]
    assert len(nonreal) >= 10
    assert all(z.k.imag > 1.0 for z in nonreal)
    assert sum(z.multiplicity for z in rep.zeros) == \
        rep.total_count_by_argument_principle
    # deterministic ordering
    res = [z.k.real for z in rep.zeros]
    assert res == sorted(res)


def test_residuals_small(colton_spectrum_40):
    for z in colton_spectrum_40.zeros:
        assert z.residual <= 1e-8


def test_degenerate_profile_raises():
    with pytest.raises(DegenerateCharacteristic):
        find_zeros(CONST1, (0.5, 20.0, 0.0, 2.0))
    with pytest.raises(DegenerateCharacteristic):
        real_zeros(CONST1, 30.0)


def test_rect_validation():
    with pytest.raises(ValueError):
        find_zeros(CONST4, (5.0, 1.0, 0.0, 1.0))       # empty
    with pytest.raises(ValueError):
        find_zeros(CONST4, (-3.0, 1.0, 0.0, 1.0))      # leaves quadrant


def test_real_zeros_triple_multiplicity(const4):
    zs = real_zeros(const4, 20.0)
    assert [z.multiplicity for z in zs] == [3] * 6
    for n, z in enumerate(zs, start=1):
        assert abs(z.k.real - n * math.pi) <= 1e-8
        assert z.k.imag == 0.0


def test_symmetry_of_reported_zeros(colton, colton_spectrum_40):
    # d is even and real on the real axis: D vanishes at -k and conj(k) too
    ks = np.array([z.k for z in colton_spectrum_40.zeros])
    scale = np.max(np.abs(scaled_characteristic(
        colton, ks + 0.5)))            # off-zero reference magnitude
    for sym in (np.conj(ks), -ks, -np.conj(ks)):
        vals = np.abs(scaled_characteristic(colton, sym))
        assert np.max(vals) <= 1e-8 * max(1.0, scale)


def test_symmetric_copies(colton_spectrum_40):
    z = [z for z in colton_spectrum_40.zeros if z.cls == "nonreal"][0]
    copies = z.symmetric_copies()
    assert len(copies) == 4
    r = [z2 for z2 in colton_spectrum_40.zeros if z2.cls == "real"]
    if r:
        assert len(r[0].symmetric_copies()) == 2


def test_serialization(tmp_path, const4):
    rep = find_zeros(const4, (0.5, 7.0, 0.0, 1.0))
    d = report_to_json(rep)
    assert d["count"] == 6
    assert {"re", "im", "mult", "class"} <= set(d["zeros"][0])

    csv_path = tmp_path / "zeros.csv"
    write_zeros_csv(csv_path, rep.zeros)
    rows = list(csv.DictReader(open(csv_path)))
    assert [r["multiplicity"] for r in rows] == ["3", "3"]
    assert rows[0]["class"] == "real"

    json_path = tmp_path / "zeros.json"
    write_report_json(json_path, rep)
    assert json.load(open(json_path))["count"] == 6


def test_two_tolerances_agree(const4):
    k1 = find_zeros(const4, (2.5, 4.0, 0.0, 0.5), tol=1e-9).zeros[0].k
    k2 = find_zeros(const4, (2.5, 4.0, 0.0, 0.5), tol=1e-11).zeros[0].k
    assert abs(k1 - k2) <= 1e-9


def test_report_json_keeps_residuals_and_stats():
    rep = SearchReport(rect=(0.0, 1.0, 0.0, 1.0),
                       zeros=[SpectralZero(k=1 + 2j, multiplicity=2, cls="nonreal",
                                           residual=3e-10)],
                       total_count_by_argument_principle=2,
                       stats={"evals": 5, "noteworthy_multiple_nonreal": [1 + 2j]})
    d = json.loads(json.dumps(report_to_json(rep)))
    assert d["zeros"][0]["residual"] == 3e-10
    assert d["stats"] == {"evals": 5, "noteworthy_multiple_nonreal": [[1.0, 2.0]]}


class _ExactZeroService:
    """Every iterate is an exact zero: d = 0, so d'/d is infinite."""

    def eval(self, ks, fine=False):
        n = np.size(ks)
        return np.full(n, complex(np.inf, np.inf)), np.zeros(n)


def test_newton_accepts_an_exact_zero():
    cand = _Candidate(2.0 + 1.0j, 0.1, 1)
    _newton_polish(_ExactZeroService(), [cand], 1e-9)
    assert cand.done and not cand.stalled
    assert cand.residual == 0.0
    assert cand.k == 2.0 + 1.0j
