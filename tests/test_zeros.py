import csv
import inspect
import json
import math
import time

import mpmath
import numpy as np
import pytest

import tevp.zeros as zeros_module
from tevp.cli import EXIT_NUMERIC, main
from tevp.errors import ContourTooClose, DegenerateCharacteristic, NewtonStall
from tevp.forward import characteristic_batch, scaled_characteristic
from tevp.profiles import ConstantProfile, get_profile, travel_time
from tevp.zeros import (SearchReport, SpectralZero, _Cell, _count, _d_service, _on_padded_rects,
                        _refine, _search, _Service, count_zeros, find_zeros, read_zeros_csv,
                        report_to_json, write_report_json, write_scatter_csv,
                        write_zeros_csv)

CONST4 = ConstantProfile(4.0)
CONST1 = ConstantProfile(1.0)
_K1 = 20.08500253221 + 4.54787798154j     # a zero of colton_example, to 1e-11


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
    # on the RK8 grid the triple zero splits by about 1e-4 and two of its zeros
    # lie inside this contour, but its edge runs so close to them that it is
    # still bisecting after _MAX_ROUNDS = 12 rounds: it fails, and the padded
    # rect, whose right edge lies 1e-2 past 2 pi, counts all three
    assert count_zeros(CONST4, (4.0, 2.0 * math.pi, -0.15, 0.5)) == 3


def test_count_of_a_mirror_image_evaluates_nothing_below_the_axis(monkeypatch, colton,
                                                                   colton_spectrum_40):
    # (x0, x1, -y, y) is one symmetric cell, as in find_zeros: its three upper
    # edges count 2U + N_r, U zeros above the axis and N_r on it
    ks = []

    def record(profile, k, *, n_steps, disk):
        ks.append(k)
        return characteristic_batch(profile, k, n_steps=n_steps, disk=disk)

    monkeypatch.setattr(zeros_module, "characteristic_batch", record)
    assert count_zeros(CONST4, (0.5, 2.0 * math.pi + 0.5, -1.0, 1.0)) == 6
    assert sum(k.size for k in ks) == 144      # 216 as a four-edge cell
    nonreal = sum(z.multiplicity for z in colton_spectrum_40.zeros if z.cls == "nonreal")
    assert count_zeros(colton, (0.3, 40.0, -6.0, 6.0)) == \
        colton_spectrum_40.total_count_by_argument_principle + nonreal
    assert min(k.imag.min() for k in ks) >= 0.0


@pytest.mark.parametrize("rect", [(0.3, 40.0, 0.0, 6.0), (0.3, 40.0, 1e-10, 6.0),
                                  (0.3, 40.0, -6.0, 0.0), (0.3, 40.0, -6.0, -1e-10)])
def test_count_of_a_rect_with_an_edge_on_the_axis_is_an_input_error(monkeypatch, colton, rect):
    # its contour would run through the real zeros and fail before a padded retry
    monkeypatch.setattr(zeros_module, "characteristic_batch", None)
    with pytest.raises(ValueError, match=r"edge on the real axis.*\(0\.3, 40\.0, -6\.0, 6\.0\)"
                                         r" \(2U \+ N_r zeros\) or use find_zeros \(U \+ N_r\)"):
        count_zeros(colton, rect)


@pytest.mark.parametrize("rect, zeros", [
    ((4.0, 2.0 * math.pi, 0.0, 0.5), [2.0 * math.pi]),
    ((2.0, 2.0 * math.pi, 0.0, 1.0), [math.pi, 2.0 * math.pi]),
])
def test_outer_edge_through_a_multiple_zero_restarts_on_a_padded_contour(const4, rect,
                                                                         zeros):
    # the right edge splits the triple zero at 2 pi and d_h's outer count
    # takes two of its zeros, but no cell of those 2 zeros can be certified
    rep = find_zeros(const4, rect)
    assert rep.stats["retries"]["inflate"] == 1
    assert rep.total_count_by_argument_principle == 3 * len(zeros)
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(3, "real")] * len(zeros)
    for z, k in zip(rep.zeros, zeros):
        assert abs(z.k - k) <= 1e-8


def test_uncertifiable_interior_cell_raises_newton_stall(colton, monkeypatch):
    # a verification circle that never counts its cell's zero
    circles = zeros_module._circles

    def miscount(centres, radii, counts):
        out = yield from circles(centres, radii, counts)
        return [(None if n is None else n + 1, mx, w, c) for n, mx, w, c in out]

    monkeypatch.setattr(zeros_module, "_circles", miscount)
    with pytest.raises(NewtonStall):
        find_zeros(colton, (4.0, 5.0, 2.5, 3.5))
    assert main(["spectrum", "--profile", "colton_example",
                 "--rect", "4,5,2.5,3.5"]) == EXIT_NUMERIC


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
        find_zeros(CONST1, (0.05, 30.0, 0.0, 0.5))


def test_rect_validation():
    with pytest.raises(ValueError):
        find_zeros(CONST4, (5.0, 1.0, 0.0, 1.0))       # empty
    with pytest.raises(ValueError):
        find_zeros(CONST4, (-3.0, 1.0, 0.0, 1.0))      # leaves quadrant


@pytest.mark.parametrize("rect", [(1.0, math.inf, 0.0, 1.0), (1.0, 5.0, 0.0, math.inf),
                                  (-math.inf, 5.0, 0.0, 1.0), (1.0, 5.0, 0.0, math.nan)])
def test_non_finite_rect_is_rejected(rect):
    # an infinite corner used to reach grid_steps and raise OverflowError
    for search in (find_zeros, count_zeros):
        with pytest.raises(ValueError, match="not finite"):
            search(CONST4, rect)


@pytest.mark.parametrize("rect", [(10.0, 3.0, 2.0, 4.0), (10.0, 3.0, 4.0, 2.0),
                                  (1.0, 1.0, 0.0, 1.0), ("a", 1, 0, 1)])
def test_count_zeros_rejects_an_empty_or_inverted_rect(colton, rect):
    # these used to raise ContourTooClose, count 2 with the orientation flipped
    # twice, and count 0; a non-number raised TypeError here and ValueError in
    # find_zeros, whose rect check count_zeros now shares
    for search in (count_zeros, find_zeros):
        with pytest.raises(ValueError,
                           match="could not convert" if rect[0] == "a" else "empty rect"):
            search(colton, rect)


def test_rect_containing_the_trivial_zero_is_rejected(colton, const4):
    # d(0) = y'(1,0) - y(1,0) = 0 for every profile; a corner within 1e-2 of
    # it would let the double zero pass half inside the padded contour
    for profile, rect in [(colton, (0.0, 5.0, 0.0, 2.0)), (colton, (1e-4, 5.0, 0.0, 2.0)),
                          (const4, (0.005, math.pi, 0.0, 0.5))]:
        with pytest.raises(ValueError, match="k = 0"):
            find_zeros(profile, rect)
    assert find_zeros(colton, (0.0, 5.0, 1.0, 2.0)).zeros == []


@pytest.mark.parametrize("rect", [(0.0, 4.4133980251658, 0.01, 4.0),
                                  (0.01, 4.4133980251658, 0.0, 4.0)])
def test_padding_keeps_the_contour_off_the_trivial_zero(colton, rect):
    # the right edge runs through a zero, so the contour is padded; its left
    # or bottom edge, 1e-2 from k = 0, may move only halfway towards it
    rep = find_zeros(colton, rect)
    assert rep.stats["retries"]["inflate"] == 1
    assert rep.total_count_by_argument_principle == 1
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(1, "nonreal")]
    with mpmath.workdps(30):
        root = complex(mpmath.findroot(_colton_d, mpmath.mpc(4.4134 + 2.9042j)))
    assert abs(rep.zeros[0].k - root) <= 1e-8


def test_padding_near_the_trivial_zero_keeps_a_triple_zero(const4):
    rep = find_zeros(const4, (0.01, math.pi, 0.0, 0.5))
    assert rep.total_count_by_argument_principle == 3
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(3, "real")]
    assert abs(rep.zeros[0].k - math.pi) <= 1e-8


@pytest.mark.parametrize("x0, first", [(math.pi, 1), (2.0 * math.pi, 2)])
def test_padded_outer_contour_stays_near_the_rect(const4, x0, first):
    # the left edge runs through a triple zero; padding it must neither pull
    # in k = 0 nor the triple zero at 7 pi, past the right edge
    rep = find_zeros(const4, (x0, 20.0, 0.0, 0.5))
    assert rep.stats["retries"]["inflate"] == 1
    assert rep.total_count_by_argument_principle == 3 * (7 - first)
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(3, "real")] * (7 - first)
    for n, z in enumerate(rep.zeros, start=first):
        assert abs(z.k - n * math.pi) <= 1e-8


def _real_zeros(profile, kmax):
    """The real zeros of a find_zeros search on the strip [0.05, kmax] x [0, 0.5]."""
    return [z for z in find_zeros(profile, (0.05, kmax, 0.0, 0.5)).zeros
            if z.cls == "real" and 0.05 <= z.k.real <= kmax]


def test_real_zeros_triple_multiplicity(const4):
    zs = _real_zeros(const4, 20.0)
    assert [z.multiplicity for z in zs] == [3] * 6
    for n, z in enumerate(zs, start=1):
        assert abs(z.k.real - n * math.pi) <= 1e-8
        assert z.k.imag == 0.0


@pytest.mark.parametrize("name, kmax", [("const4", 20.0), ("slow_core", 30.0)])
def test_real_zeros_account_for_the_axis_count(name, kmax):
    # every real zero in [0.05, kmax] is found, with its contour multiplicity
    p = get_profile(name)
    zs = _real_zeros(p, kmax)
    assert zs and all(z.cls == "real" for z in zs)
    assert sum(z.multiplicity for z in zs) == count_zeros(p, (0.05, kmax, -0.01, 0.01))


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


def test_scatter_csv_writes_each_orbit(tmp_path):
    zeros = [SpectralZero(2.5 + 0j, 1, "real", 0.0), SpectralZero(3.0 + 1.5j, 2, "nonreal", 0.0)]
    path = tmp_path / "scatter.csv"
    write_scatter_csv(path, zeros)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["re", "im"]
    assert [complex(float(re), float(im)) for re, im in rows[1:]] == [
        -2.5, 2.5, -3.0 - 1.5j, -3.0 + 1.5j, 3.0 - 1.5j, 3.0 + 1.5j]


def test_zeros_csv_round_trip(tmp_path, colton_spectrum_40, const4):
    zeros = colton_spectrum_40.zeros + find_zeros(const4, (0.5, 7.0, 0.0, 1.0)).zeros
    path = tmp_path / "zeros.csv"
    write_zeros_csv(path, zeros)
    back = read_zeros_csv(path)
    assert len(back) == len(zeros) == 15
    for z, b in zip(zeros, back):
        assert b.k.real == pytest.approx(z.k.real, rel=1e-12, abs=0.0)
        assert b.k.imag == pytest.approx(z.k.imag, rel=1e-12, abs=0.0)
        # the table keeps three digits of the residual, and no certificate
        assert (b.multiplicity, b.cls, b.residual) == (z.multiplicity, z.cls,
                                                      float(f"{z.residual:.3e}"))
        assert b.certificate is None


def test_report_json_keeps_residuals_and_stats():
    rep = SearchReport(rect=(0.0, 1.0, 0.0, 1.0),
                       zeros=[SpectralZero(k=1 + 2j, multiplicity=2, cls="nonreal",
                                           residual=3e-10)],
                       total_count_by_argument_principle=2,
                       stats={"evals": 5, "noteworthy_multiple_nonreal": [1 + 2j]})
    d = json.loads(json.dumps(report_to_json(rep)))
    assert d["zeros"][0]["residual"] == 3e-10
    assert d["stats"] == {"evals": 5, "noteworthy_multiple_nonreal": [[1.0, 2.0]]}


def test_phase_timings_stay_outside_the_stats(colton):
    start = time.perf_counter()
    rep = find_zeros(colton, (0.3, 12.0, 0.0, 4.0))
    wall = time.perf_counter() - start
    assert set(rep.timings) == {"count", "subdivide", "refine"}
    assert all(t >= 0.0 for t in rep.timings.values())
    assert sum(rep.timings.values()) <= wall
    assert "timings" not in rep.stats
    assert report_to_json(rep)["timings"] == rep.timings


def _moments(rect, zs):
    """The moments ``_count`` gives a rect holding the simple zeros ``zs``."""
    x0, x1, y0, y1 = rect
    u = (np.array(zs, dtype=complex) - complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))) \
        / (0.5 * max(x1 - x0, y1 - y0))
    return (u[:, None] ** np.arange(4 * zeros_module._MMAX)).sum(0)


def _counted(rect, zs):
    """A cell of ``rect`` counted and moment-resolved as holding the simple zeros ``zs``."""
    cell = _Cell(rect, count=len(zs))
    cell.moments = _moments(rect, zs)
    return cell


def _refined(service, cells):
    """Each of ``cells`` through ``_refine``, the points it asks for evaluated by
    ``service``: the zeros found and the cells handed back."""
    found, back = [], []
    for cell in cells:
        refinement, value = _refine(service, cell), None
        try:
            while True:
                points = refinement.send(value)
                value = service.eval(points, {"refine": len(points)})
        except StopIteration as stop:
            if stop.value is None:
                back.append(cell)
            else:
                found += stop.value
    return found, back


def _exact(log_derivative, abs_f):
    """A ``_Service`` over an exact f, given f'/f and |F|, at one k-step a point."""
    def evaluate(ks):
        with np.errstate(divide="ignore", invalid="ignore"):
            return log_derivative(ks), abs_f(ks)

    return _Service(evaluate, 1)


def _product(zs):
    """A ``_Service`` over f = prod (k - z_j): f'/f = sum 1/(k - z_j), |F| = |f|."""
    zs = np.array(zs, dtype=complex)
    return _exact(lambda k: (1.0 / (k[:, None] - zs)).sum(1),
                  lambda k: np.abs(k[:, None] - zs).prod(1))


def _ks(found):
    """The zeros of ``_search``'s (k, multiplicity, residual, certificate) list, sorted."""
    return np.array(sorted((k for k, *_rest in found), key=lambda k: (k.real, k.imag)))


def test_certificate_passes_an_exact_zero_and_fails_a_nan():
    service = _product([2.1 + 1.1j, 5.1 + 1.1j])
    cells = [_count(service, rect)[0] for rect in [(2.0, 2.2, 1.0, 1.2), (5.0, 5.2, 1.0, 1.2)]]
    # the circle's centroid lands on the zero, where f'/f is infinite: a Newton step of 0
    found, back = _refined(service, cells[:1])
    (k, mult, residual, cert), = found
    assert (k, mult, residual, back) == (2.1 + 1.1j, 1, 0.0, [])
    assert (cert.radius, cert.step) == (1e-3, 0.0) and cert.defect <= 1e-12
    assert cert.min_abs_d == pytest.approx(1e-3 * (3.0 - 1e-3), rel=1e-9)   # nearest z_2
    # f'/f undefined at the second centroid: the circle passes, the certificate does not
    exact = service.evaluate
    service.evaluate = lambda ks: exact(ks) if ks.size > 1 else (ks * np.nan, ks.real * np.nan)
    assert _refined(service, cells[1:]) == ([], cells[1:])
    assert service.stats["retries"]["resplit"] == 1


# ---------------------------------------------------------------------------
# the segment cache of the winding quadrature
# ---------------------------------------------------------------------------


def _evals(service, rects):
    """Points ``_count`` propagates for ``rects``, and each one's (count, max |D|, moments)."""
    before = service.stats["evals"]
    out = [(cell.count, cell.peak, cell.moments) for cell in _count(service, *rects)]
    return service.stats["evals"] - before, out


def _halving_leaves(key, sign, pieces, leaves):
    """Move from the end of ``pieces`` the leaves, left to right, of the tree of
    halvings of the piece ``key`` at 0.5 (lo + hi), each leaf a (key, sign) equal
    to the one it takes, to ``leaves`` as the tree's keys; every inner node must
    be longer than _SEG_LEN."""
    if pieces and pieces[-1] == (key, sign):
        leaves.append(key)
        pieces.pop()
        return
    (lo, hi), mid = key, 0.5 * (key[0] + key[1])
    assert abs(hi - lo) > zeros_module._SEG_LEN, key
    _halving_leaves((lo, mid), sign, pieces, leaves)
    _halving_leaves((mid, hi), sign, pieces, leaves)


def test_the_piece_table_cuts_a_new_cells_edges_by_halving():
    # edges within a few ulps of _SEG_LEN * 2**j are where a piece and its sibling
    # can fall on either side of _SEG_LEN; half the cells of either kind are
    # symmetric, (x0, x1, -y1, y1), and start as their three upper edges
    rng = np.random.default_rng(20)
    for i in range(2000):
        x0, y0 = rng.uniform(-300.0, 300.0, 2)
        if i % 2:
            w, h = rng.uniform(1e-3, 200.0, 2)
        else:
            w, h = zeros_module._SEG_LEN * 2.0 ** rng.integers(-1, 6, 2)
        sym = i % 4 >= 2
        x1, y1 = x0 + w, (0.0 if sym else y0) + h
        x1 += rng.integers(-3, 4) * np.spacing(x1)
        y1 += rng.integers(-3, 4) * np.spacing(y1)
        cell = _Cell((float(x0), float(x1), -float(y1) if sym else float(y0), float(y1)),
                     sym=sym)
        assert len(cell.pending) == 4 - sym
        edges = list(cell.pending)
        _Service(None, 1)._file(cell)
        assert cell.accepted == []
        pieces, leaves, first = cell.pending[::-1], [], []
        for key, sign in edges:
            first.append(len(leaves))
            _halving_leaves(key, sign, pieces, leaves)
        assert pieces == []
        # bits [piece, lo / hi, re / im] of the pieces, of the leaves and of the edges
        got, want, corners = (np.array(keys).view(np.uint64).reshape(-1, 2, 2) for keys in
                              ([key for key, _sign in cell.pending], leaves,
                               [key for key, _sign in edges]))
        assert np.array_equal(got, want)
        last = np.append(first[1:], len(got)) - 1
        joins = np.setdiff1d(np.arange(1, len(got)), first)
        assert np.array_equal(got[first, 0], corners[:, 0])
        assert np.array_equal(got[last, 1], corners[:, 1])
        assert np.array_equal(got[joins, 0], got[joins - 1, 1])
        lo, hi = np.array(leaves).T
        assert np.abs(hi - lo).max() <= zeros_module._SEG_LEN


def test_cached_contour_costs_no_evaluations(colton):
    rect = (0.3, 12.0, -0.15, 6.0)
    service = _d_service(colton, rect)
    cost, ((n, mx, moments),) = _evals(service, [rect])
    assert cost > 0
    again, ((n2, mx2, moments2),) = _evals(service, [rect])
    assert (again, n2, mx2) == (0, n, mx) and np.array_equal(moments2, moments)


@pytest.mark.parametrize("search, rect", [
    # the left edge runs through the triple zero at pi: the outer contour inflates
    (find_zeros, (math.pi, 5.0, 0.0, 0.5)),
    (find_zeros, (2.0 * math.pi, 20.0, 0.0, 0.5)),
    # the right edge splits the triple zero at 2 pi: the search restarts padded
    (find_zeros, (4.0, 2.0 * math.pi, 0.0, 0.5)),
    (count_zeros, (4.0, 2.0 * math.pi, -0.5, 0.5)),
])
def test_one_search_evaluates_on_one_grid(const4, monkeypatch, search, rect):
    calls = []

    def record(profile, k, *, n_steps, disk):
        calls.append((n_steps, float(np.abs(k).max())))
        return characteristic_batch(profile, k, n_steps=n_steps, disk=disk)

    monkeypatch.setattr(zeros_module, "characteristic_batch", record)
    search(const4, rect)
    assert len({n for n, _k in calls}) == 1
    n_steps = calls[0][0]
    # every |k| lies within the kmax that grid_steps sized the grid for
    per_radian_at = zeros_module._PER_RADIAN * travel_time(const4)
    assert all(kmax * per_radian_at <= n_steps for _n, kmax in calls)


def test_warmed_service_counts_like_a_fresh_one(colton):
    x0, x1, y0, y1 = 0.3, 12.0, -0.15, 6.0
    xm = 0.5 * (x0 + x1)
    children = [(x0, xm, y0, y1), (xm, x1, y0, y1)]
    warm = _d_service(colton, (x0, x1, y0, y1))
    _evals(warm, [(x0, x1, y0, y1)])
    warm_cost, warm_out = _evals(warm, children)
    fresh_cost, fresh_out = _evals(_d_service(colton, (x0, x1, y0, y1)), children)
    # the children's outer edges are the parent's; only the split line is new
    assert 0 < warm_cost < fresh_cost / 4
    assert [n for n, _, _ in warm_out] == [n for n, _, _ in fresh_out] == [1, 2]
    for (_, mx_w, s_w), (_, mx_f, s_f) in zip(warm_out, fresh_out):
        assert np.abs(s_w - s_f).max() <= 1e-12
        assert mx_w == mx_f


def test_siblings_evaluate_their_split_line_once(colton):
    x0, x1, y0, y1 = 0.3, 12.0, -0.15, 6.0
    xm = 0.5 * (x0 + x1)
    siblings = [(x0, xm, y0, y1), (xm, x1, y0, y1)]
    service = _d_service(colton, (x0, x1, y0, y1))
    together, _ = _evals(service, siblings)
    apart = sum(_evals(_d_service(colton, (x0, x1, y0, y1)), [rect])[0] for rect in siblings)
    assert together < apart
    # every segment is stored once, whichever way the contours run along it
    assert all((a.real, a.imag) < (b.real, b.imag) for (a, b) in service.segments)


def _pencil_of(profile, rect):
    """The count of ``rect`` and the zeros ``_pencil`` reads off its moments."""
    cell, = _count(_d_service(profile, rect), rect)
    return cell.count, zeros_module._pencil(cell)


def test_centroid_of_a_triple_zero(const4):
    # the rank of H0 is 1: one zero, at the centroid s_1/s_0 of the three
    n, [(k, mult, radius)] = _pencil_of(const4, (2.5, 3.8, -0.5, 0.5))
    assert (n, mult, radius) == (3, 3, zeros_module._SPLIT_FLOOR)
    assert abs(k - math.pi) <= 1e-10


def test_centroid_of_a_simple_zero(colton):
    n, [(k, mult, radius)] = _pencil_of(colton, (4.2, 4.6, 2.7, 3.1))
    assert (n, mult) == (1, 1)
    with mpmath.workdps(30):
        root = complex(mpmath.findroot(_colton_d, mpmath.mpc(4.4 + 2.9j)))
    assert abs(k - root) <= 1e-6
    assert radius == np.maximum(1e-3, 2e-4 * np.abs(k))   # _pencil's expression, to the ulp


def test_moments_of_an_empty_rect_vanish(const4):
    rect = (0.5, 2.5, 0.5, 2.0)
    cell, = _count(_d_service(const4, rect), rect)
    # |u| <= sqrt(2) on a square's contour: past the 2 _MMAX moments an upper cell's
    # pencil reads, rounding grows with it
    p = np.arange(cell.moments.size) + 1 - 2 * zeros_module._MMAX
    assert cell.count == 0
    assert np.all(np.abs(cell.moments) <= 1e-12 * np.sqrt(2.0) ** np.maximum(p, 0))


def _shifted(cell, delta):
    """Move every zero of ``cell``'s moments by ``delta``: u^p -> (u + t)^p, binomially."""
    x0, x1, y0, y1 = cell.rect
    t, s = delta / (0.5 * max(x1 - x0, y1 - y0)), cell.moments
    cell.moments = np.array([sum(math.comb(p, q) * s[q] * t ** (p - q) for q in range(p + 1))
                             for p in range(s.size)])


def _shift_first(refined):
    """Whether to spoil the next cell refined: only the first."""
    return not refined


def _shift_all(refined):
    """Whether to spoil the next cell refined: both halves of the outer cell."""
    return len(refined) < 2


@pytest.mark.parametrize("spoil, resplit", [(_shift_first, 1), (_shift_all, 2)])
def test_refinement_hands_back_zeros_it_cannot_verify(colton, monkeypatch, spoil,
                                                      resplit):
    # 5 zeros, 10 with their mirror images: the outer symmetric cell is split, and
    # its halves, of 2 and 3 zeros above the axis (4 and 6 mirrored), are refined first
    rect = (0.3, 20.0, 0.0, 6.0)
    clean = find_zeros(colton, rect).zeros
    refine, calls = zeros_module._refine, []

    def spoil_once(service, cell):
        if spoil(calls):
            _shifted(cell, 0.01)       # its verification circles miss the zeros
        calls.append((cell.rect, cell.count))
        return refine(service, cell)

    monkeypatch.setattr(zeros_module, "_refine", spoil_once)
    rep = find_zeros(colton, rect)
    halves = [half for half, _sym in zeros_module._halves((0.3, 20.0, -6.0, 6.0), True)]
    assert calls[:2] == [(halves[0], 4), (halves[1], 6)]
    # each cell handed back is refined again as its two halves, of a zero or more each
    assert len(calls) == rep.stats["clusters"] == 2 + 2 * resplit
    assert rep.stats["retries"]["resplit"] == resplit
    assert [z.multiplicity for z in rep.zeros] == [z.multiplicity for z in clean]
    for z, ref in zip(rep.zeros, clean, strict=True):
        assert abs(z.k - ref.k) <= 1e-10


def _moved_centroid(colton, monkeypatch, shift):
    """The clean search of (0.3, 12, 0, 6) and one whose first circle's centroid,
    which still counts its zero, is moved by ``shift``."""
    rect = (0.3, 12.0, 0.0, 6.0)
    clean = find_zeros(colton, rect)
    circles, moved = zeros_module._circles, []

    def move_once(centres, radii, counts):
        out = yield from circles(centres, radii, counts)
        if not moved:
            n, mx, w, centroid = out[0]
            out[0] = (n, mx, w, centroid + shift)
            moved.append(n)
        return out

    monkeypatch.setattr(zeros_module, "_circles", move_once)
    rep = find_zeros(colton, rect)
    assert moved == [1]
    assert [z.multiplicity for z in rep.zeros] == [z.multiplicity for z in clean.zeros]
    for z, ref in zip(rep.zeros, clean.zeros, strict=True):
        assert abs(z.k - ref.k) <= 1e-10
    return clean, rep


def test_certificate_hands_back_a_centroid_off_its_zero(colton, monkeypatch):
    # a Newton step of about 1e-2 remains, longer than the circle's radius of
    # 1.06e-3: it is not taken, and the cell is handed back
    _clean, rep = _moved_centroid(colton, monkeypatch, 1e-2)
    assert rep.stats["retries"]["resplit"] == 1


def test_certificate_takes_a_newton_step_shorter_than_the_radius(colton, monkeypatch):
    # a Newton step of about 1e-6 is taken and the certificate evaluated again
    # there: one evaluation more, no hand-back
    clean, rep = _moved_centroid(colton, monkeypatch, 1e-6)
    assert rep.stats["retries"]["resplit"] == 0
    assert rep.stats["evals"] == clean.stats["evals"] + 1


def test_search_stats_account_for_every_evaluation(const4):
    # triple zeros at pi, 2 pi and 3 pi, more than 2 _MMAX: the outer symmetric cell
    # is split on its provisional count, and the halves of pieces split after their
    # first round are reused
    rect = (0.5, 10.0, 0.0, 0.5)
    stats = find_zeros(const4, rect).stats
    assert find_zeros(const4, rect).stats == stats
    assert set(stats["phase_evals"]) == {"count", "subdivide", "refine"}
    assert all(v > 0 for v in stats["phase_evals"].values())
    assert sum(stats["phase_evals"].values()) == stats["evals"]
    assert set(stats["phase_ksteps"]) == set(stats["phase_evals"])
    assert all(v > 0 for v in stats["phase_ksteps"].values())
    assert sum(stats["phase_ksteps"].values()) == stats["ksteps"]
    assert stats["ksteps"] >= 64 * stats["evals"]
    assert stats["segments_reused"] > 0
    assert stats["retries"] == {"inflate": 0, "resplit": 0}
    assert stats["clusters"] == 2


@pytest.mark.parametrize("rect, retries", [
    # 5 zeros, more than a pencil takes; the first split line, Re k = Re k1, runs
    # through the middle one, k1 = 20.0850... + 4.5479...i, so the search restarts
    ((get_profile("colton_example"), _K1.real - 9.0, _K1.real + 9.0, 0.0, 6.0),
     {"inflate": 1, "resplit": 0}),
    # the left edge runs through the triple zero at pi, so the outer contour is inflated
    ((CONST4, math.pi, 5.0, 0.0, 0.5), {"inflate": 1, "resplit": 0}),
])
def test_retry_counters_record_contour_repairs(rect, retries):
    profile, *box = rect
    rep = find_zeros(profile, box)
    assert rep.stats["retries"] == retries
    if profile is CONST4:
        assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(3, "real")]
        assert abs(rep.zeros[0].k - math.pi) <= 1e-8
    else:
        assert [z.multiplicity for z in rep.zeros] == [1] * 5
        with mpmath.workdps(30):
            k1 = complex(mpmath.findroot(_colton_d, mpmath.mpc(_K1)))
        assert abs(rep.zeros[2].k - k1) <= 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_split_line_through_a_multiple_zero(const4, m):
    # the first split line, Re k = m pi, runs through a triple zero that d_h
    # splits by about 1e-4: each side keeps part of it, no circle certifies
    # either part, and the search restarts on a padded rect, whose split line
    # has moved off the zero
    rep = find_zeros(const4, (1.0, 2.0 * m * math.pi - 1.0, 0.0, 0.5))
    assert rep.stats["retries"]["inflate"] == 1
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == [(3, "real")] * (2 * m - 1)
    for n, z in enumerate(rep.zeros, start=1):
        assert abs(z.k - n * math.pi) <= 1e-8


@pytest.mark.parametrize("rect", [(1.0, 5.0, 0.5, 2.0), (2.0, 9.0, -0.15, 0.5)])
def test_padding_moves_the_centre_and_every_split_line(rect):
    # a left or bottom edge moves half as far as a right or top one, so the
    # centre, and with it every split line, moves with each pad
    x0, x1, y0, y1 = rect
    padded = zeros_module._padded_rects(rect)
    assert padded[0] == rect and len(padded) == 1 + len(zeros_module._PADS)
    for (a0, a1, b0, b1), pad in zip(padded[1:], zeros_module._PADS):
        assert (a1 - x1, b1 - y1) == pytest.approx((pad, pad), rel=1e-12)
        assert (x0 - a0, y0 - b0) == pytest.approx((0.5 * pad, 0.5 * pad), rel=1e-12)
        assert 0.5 * (a0 + a1) != 0.5 * (x0 + x1) and 0.5 * (b0 + b1) != 0.5 * (y0 + y1)


def test_padded_symmetric_rect_stays_symmetric():
    # its bottom edge moves as far as its top one; its split lines still move
    for (a0, a1, b0, b1), pad in zip(zeros_module._padded_rects((2.0, 9.0, -0.5, 0.5))[1:],
                                     zeros_module._PADS):
        assert (a0, a1, b0, b1) == (2.0 - 0.5 * pad, 9.0 + pad, -0.5 - pad, 0.5 + pad)


def test_certificates_of_the_k40_search(colton_spectrum_40):
    for z in colton_spectrum_40.zeros:
        cert = z.certificate
        assert cert.defect <= zeros_module._CIRCLE_TOL
        # the circle is sized at the cell's centroid, a little off the zero
        assert math.isclose(cert.radius, max(1e-3, 2e-4 * abs(z.k)), rel_tol=1e-3)
        assert cert.step <= 1e-10 * (1.0 + abs(z.k))
    d = json.loads(json.dumps(report_to_json(colton_spectrum_40)))
    assert [z["certificate"]["step"] for z in d["zeros"]] == \
        [z.certificate.step for z in colton_spectrum_40.zeros]


@pytest.mark.parametrize("fixture, budget", [("colton_spectrum_40", 2_500),
                                             ("colton_band_150", 420),
                                             ("colton_spectrum_150", 11_300)])
def test_search_evaluation_budget(request, fixture, budget):
    rep = request.getfixturevalue(fixture)
    assert rep.stats["evals"] <= budget
    # every zero is simple: 8 nodes for its circle, 1 for its residual
    assert rep.stats["phase_evals"]["refine"] == 9 * len(rep.zeros)


@pytest.mark.parametrize("search, evals, batches", [
    ("colton_spectrum_40", 1_005, 7),
    ("colton_band_150", 198, 3),
    ("colton_spectrum_150", 2_883, 7),
    ((get_profile("slow_core"), (0.3, 30.0, 0.0, 6.0)), 1_665, 6),
    ((get_profile("raised_cosine"), (0.3, 30.0, 0.0, 6.0)), 1_479, 7),
    ((CONST4, (0.5, 31.0, 0.0, 1.0)), 2_409, 7),
    ((ConstantProfile(4.0 + 1e-8), (2.5, 3.8, 0.0, 0.5)), 217, 4),
    ((ConstantProfile(4.0 + 1e-6), (2.5, 3.8, 0.0, 0.5)), 219, 4),
    ((ConstantProfile(4.0 + 1e-5), (2.5, 3.8, 0.0, 0.5)), 219, 4),
    ((ConstantProfile(4.0 + 1e-4), (2.5, 3.8, 0.0, 0.5)), 219, 4),
    ((ConstantProfile(4.0 + 1e-3), (2.5, 3.8, 0.0, 0.5)), 219, 4),
    ((ConstantProfile(4.0 + 1e-2), (2.5, 3.8, 0.0, 0.5)), 363, 7),
    # searches that restart on a padded rect: an edge through a triple zero ...
    ((CONST4, (4.0, 2.0 * math.pi, 0.0, 0.5)), 1_129, 19),
    ((CONST4, (2.0, 2.0 * math.pi, 0.0, 1.0)), 1_586, 20),
    ((CONST4, (math.pi, 20.0, 0.0, 0.5)), 3_210, 20),
    # ... and a first split line through a simple and through a triple zero
    ((get_profile("colton_example"), (_K1.real - 9.0, _K1.real + 9.0, 0.0, 6.0)), 2_157, 25),
    ((CONST4, (1.0, 4.0 * math.pi - 1.0, 0.0, 0.5)), 2_452, 23),
    # a cell split on its provisional count in a later round than its first,
    # and cells split in the round refinement hands them back
    ((get_profile("raised_cosine"), (0.3, 40.5, 0.0, 10.0)), 1_677, 8),
    ((get_profile("raised_cosine"), (145.0, 160.5, 0.0, 10.0)), 2_772, 35),
], ids=["k40", "band150", "headline", "slow_core", "raised_cosine", "const4",
        "eps1e-8", "eps1e-6", "eps1e-5", "eps1e-4", "eps1e-3", "eps1e-2",
        "const4_right_edge", "const4_right_edge_tall", "const4_left_edge",
        "colton_split_line", "const4_split_line",
        "raised_cosine_late_early_split", "raised_cosine_hand_backs"])
def test_search_costs_at_any_width(request, search, evals, batches):
    # every counted cell of at most _MMAX zeros, the outer one included, is
    # resolved from its moments, however wide
    rep = request.getfixturevalue(search) if isinstance(search, str) else find_zeros(*search)
    assert rep.stats["evals"] <= evals
    assert rep.stats["batches"] <= batches


@pytest.mark.parametrize("fixture, steps_per_row, certified_at_zero",
                         [("colton_spectrum_40", 8, 0), ("colton_band_150", 128, 0)])
def test_search_reports_its_table_and_zero_step_certificates(request, fixture, steps_per_row,
                                                             certified_at_zero):
    # k40's disk is too wide for longer rows, so it keeps the uncentred table; band150's
    # rows of 128 steps sit about the midpoint of its widest padded rect
    rep = request.getfixturevalue(fixture)
    x0, x1, *_ = zeros_module._padded_rects(rep.rect)[-1]
    table = rep.stats["table"]
    assert table["steps_per_row"] == steps_per_row
    assert table["centre"] == (0.5 * (x0 + x1) if steps_per_row > 8 else 0.0)
    assert table["n_steps"] * rep.stats["evals"] == rep.stats["ksteps"]
    # a simple zero whose f'/f is infinite, d_h rounded to 0 there, takes the Newton step 0.0;
    # how many do follows d_h's rounding, so a change to the engine's rounding moves the pin
    steps = [z.certificate.step for z in rep.zeros]
    assert rep.stats["zero_step_certificates"] == steps.count(0.0) == certified_at_zero


def test_d_h_is_conjugate_symmetric_bit_for_bit(colton):
    # the centred table stays real because its centre is: d_h(conj k) = conj d_h(k)
    # exactly, which a symmetric cell's three-edge count relies on
    service = _d_service(colton, (145.0, 150.5, -8.0, 8.0))
    assert service.stats["table"]["steps_per_row"] == 128
    x, y = np.meshgrid(np.linspace(144.9, 150.6, 12), np.linspace(0.0, 8.1, 7))
    k = (x + 1j * y).ravel()
    ld, absF = service.evaluate(k)
    ld_conj, absF_conj = service.evaluate(k.conj())
    assert np.array_equal(ld_conj, ld.conj()) and np.array_equal(absF_conj, absF)


@pytest.mark.parametrize("fixture, early", [("colton_spectrum_40", 3), ("colton_band_150", 0)])
def test_early_splits(request, fixture, early):
    # k40's outer symmetric cell of 25 zeros, mirror images included, and both its
    # halves, of 12 and 13, are split on their provisional counts, before their
    # contours converge; band150's 4 are never split
    assert request.getfixturevalue(fixture).stats["early_splits"] == early


@pytest.mark.parametrize("rect", [(0.3, 40.0, 0.0, 6.0), (145.0, 150.5, 0.0, 8.0),
                                  (_K1.real - 9.0, _K1.real + 9.0, 0.0, 6.0)],
                         ids=["k40", "band150", "colton_split_line"])
def test_every_engine_call_is_one_batch(colton, monkeypatch, rect):
    # the bench tracer counts the calls of tevp.zeros.characteristic_batch as the
    # search's batches: every round is one call, on every rect tried
    calls = []

    def engine(profile, k, *, n_steps, disk):
        calls.append(np.size(k))
        return characteristic_batch(profile, k, n_steps=n_steps, disk=disk)

    monkeypatch.setattr(zeros_module, "characteristic_batch", engine)
    rep = find_zeros(colton, rect)
    assert len(calls) == rep.stats["batches"] and sum(calls) == rep.stats["evals"]
    assert all(calls)


def test_outer_cell_of_at_most_mmax_zeros_is_refined_unsplit(colton_band_150):
    # the top strip of the |k| <= 150 search holds 2 zeros, 4 with their mirror
    # images in its symmetric cell: no subdivision
    stats = colton_band_150.stats
    assert colton_band_150.rect == (145.0, 150.5, -8.0, 8.0)
    assert stats["phase_evals"]["subdivide"] == 0 and stats["clusters"] == 1
    assert len(colton_band_150.zeros) == 2


@pytest.mark.parametrize("shift, cost", [(0.5, 144), (0.9, 192)])
def test_square_off_its_gate_is_counted_by_the_adaptive_rule(colton, shift, cost):
    # the zero lies (1 - shift) half-widths inside the square's right edge; the
    # adaptive rule still counts it, refining the edges next to it
    with mpmath.workdps(30):
        root = complex(mpmath.findroot(_colton_d, mpmath.mpc(4.4134 + 2.9042j)))
    h = 1e-3
    c = root - shift * h
    square = (c.real - h, c.real + h, c.imag - h, c.imag + h)
    service = _d_service(colton, square)
    adaptive_cost, out = _evals(service, [square])
    assert out[0][0] == 1
    assert service.stats["evals"] == adaptive_cost == cost


@pytest.mark.parametrize("zs, usable", [
    ([100.0 + 1.0j, 100.3 + 1.2j], True),
    ([100.0 + 1.0j, 100.005 + 1.0j], False),   # each radius-0.02 circle would hold both
    ([101.0 + 1.0j], False),                    # outside the cell
])
def test_pencil_gives_only_zeros_one_circle_each_can_verify(zs, usable):
    cell = _counted((99.5, 100.5, 0.5, 1.5), zs)
    zeros = zeros_module._pencil(cell)
    assert bool(zeros) == usable
    for (k, mult, radius), z in zip(sorted(zeros, key=lambda t: t[0].real), zs):
        assert abs(k - z) <= 1e-9 and mult == 1 and math.isclose(radius, 2e-4 * abs(k))


def test_nan_pencil_hands_its_cell_back_unevaluated(monkeypatch):
    rect = (4.0, 5.0, 2.5, 3.5)
    service = _product([4.4 + 2.9j])
    cell, = _count(service, rect)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(len(a), complex(np.nan)))

    def evaluate(ks):
        raise AssertionError("a cell without usable zeros was evaluated")

    service.evaluate = evaluate
    found, back = _refined(service, [cell])
    assert (cell.count, found, back, service.stats["retries"]["resplit"]) == (1, [], [cell], 1)


def test_circle_off_its_zero_hands_the_cell_back():
    root = 4.4134 + 2.9042j
    h = max(1e-3, 2e-4 * abs(root))
    centred, off = _counted((4.0, 5.0, 2.5, 3.5), [root]), _counted((4.0, 5.0, 2.5, 3.5),
                                                                     [root - 0.9 * h])
    service = _product([root])
    found, back = _refined(service, [centred, off])
    # the zero is 0.9 radius off the second circle's centre: its 8 nodes miss _CIRCLE_TOL
    assert back == [off] and service.stats["retries"]["resplit"] == 1
    (k, mult, _res, cert), = found
    assert (mult, cert.radius) == (1, pytest.approx(h, rel=1e-12))
    assert cert.defect <= zeros_module._CIRCLE_TOL
    assert abs(k - root) <= 1e-12
    circle = zeros_module._circles(np.array([root - 0.9 * h]), np.array([h]), np.array([1]))
    with pytest.raises(StopIteration) as stop:
        circle.send(service.eval(next(circle), {"refine": 8}))
    (n, _abs_d, w, _c), = stop.value.value
    assert n is None and abs(w - 1.0) > 0.1


def test_certificate_records_the_least_abs_d_on_its_circle(colton, monkeypatch):
    rect = (0.3, 12.0, 0.0, 6.0)
    clean = find_zeros(colton, rect)
    circles, drawn = zeros_module._circles, []

    def record(centres, radii, counts):
        drawn.extend(zip(centres, radii))
        return circles(centres, radii, counts)

    monkeypatch.setattr(zeros_module, "_circles", record)
    rep = find_zeros(colton, rect)
    mins = [z.certificate.min_abs_d for z in rep.zeros]
    assert mins == [z.certificate.min_abs_d for z in clean.zeros]
    assert [z["certificate"]["min_abs_d"] for z in report_to_json(rep)["zeros"]] == mins
    # a service on the search's padded rect evaluates on the search's grid
    service = _d_service(colton, (0.3, 12.0, -0.15, 6.0))
    for z in rep.zeros:
        (c, h), = [(c, h) for c, h in drawn if abs(z.k - c) < h]
        nodes = c + h * np.exp(2j * np.pi * np.arange(8) / 8)
        _ld, abs_d = service.eval(nodes, {"refine": nodes.size})
        assert 0.0 < z.certificate.min_abs_d == abs_d.min() < abs_d.max()


def _refined_cells(monkeypatch, zs, rect):
    """``_search`` on ``rect`` for f = prod (k - z_j): its zeros, refined cells and service."""
    refine, cells, service = zeros_module._refine, [], _product(zs)
    monkeypatch.setattr(zeros_module, "_refine",
                        lambda service, cell: cells.append(cell) or refine(service, cell))
    _top, found = _search(service, rect)
    return _ks(found), cells, service


@pytest.mark.parametrize("count", [1, 2, zeros_module._MMAX])
def test_subdivision_refines_every_count_at_any_width(monkeypatch, count):
    # up to _MMAX zeros 0.05 apart: the 256-wide cell that holds them is refined
    # first, from its moments; two or more it reads too coarsely to verify, so it
    # is handed back and split until every cell's circles and certificates pass
    zs = [3.01 + 0.47j + 0.05 * j for j in range(count)]
    found, (cell, *_rest), service = _refined_cells(monkeypatch, zs, (0.0, 256.0, 0.0, 1.0))
    assert (cell.rect, cell.count) == ((0.0, 256.0, 0.0, 1.0), count)
    assert np.abs(cell.moments - _moments(cell.rect, zs)).max() <= 1e-9
    stats = service.stats
    assert stats["clusters"] - 1 == stats["retries"]["resplit"] == {1: 0, 2: 1, 4: 8}[count]
    assert len(found) == count and np.abs(found - zs).max() <= 1e-14


def test_subdivision_splits_more_zeros_than_a_pencil_takes(monkeypatch):
    zs = [3.01 + 0.47j + 0.05 * j for j in range(zeros_module._MMAX + 1)]
    found, cells, _service = _refined_cells(monkeypatch, zs, (0.0, 16.0, 0.0, 1.0))
    assert sum(c.count for c in cells) == len(zs)
    assert all(c.count <= zeros_module._MMAX and c.rect[1] - c.rect[0] < 8.0 for c in cells)
    assert np.abs(found - zs).max() <= 1e-14


def test_subdivision_raises_on_a_zero_on_its_split_line(monkeypatch):
    # the zeros lie on the split line Im k = 0.5 of the cell (3, 3.5, 0, 1), so
    # the contour of its lower half fails and the search restarts on a padded rect
    zs = [3.01 + 0.5j + 0.05 * j for j in range(zeros_module._MMAX + 1)]
    with pytest.raises(ContourTooClose, match=r"contour of cell \(3.0, 3.5, 0.0, 0.5\) failed"):
        _refined_cells(monkeypatch, zs, (0.0, 16.0, 0.0, 1.0))
    service = _product(zs)
    _top, found = _on_padded_rects(service, (0.0, 16.0, 0.0, 1.0), _search)
    assert service.stats["retries"] == {"inflate": 1, "resplit": 0}
    assert np.abs(_ks(found) - zs).max() <= 1e-14


def _noise_cell(monkeypatch, max_pending):
    """A contour on f'/f of seeded Gaussian noise, advanced until it fails, with
    the pending-piece guard at ``max_pending``: (the cell, its service)."""
    rng = np.random.default_rng(0)
    monkeypatch.setattr(zeros_module, "_MAX_PENDING", max_pending)
    service = _exact(lambda k: rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size),
                     lambda k: np.ones(k.size))
    cell = _Cell((1.0, 5.0, 0.5, 3.0), "count")
    with pytest.raises(ContourTooClose, match="the contour of cell"):
        while cell.count is None:
            service.advance([cell], [])
    return cell, service


def test_pending_guard_fails_a_noise_contour_early(monkeypatch):
    # no piece of noise ever matches its halves, so all of them split every
    # round: the guard stops the contour at 4 * 2^7 = 512 pending pieces
    cell, service = _noise_cell(monkeypatch, zeros_module._MAX_PENDING)
    assert cell.rounds == 7 < zeros_module._MAX_ROUNDS
    assert len(cell.pending) == 512 and service.stats["evals"] == 12_240
    # without it the contour runs all _MAX_ROUNDS rounds at 24 times the cost
    cell, service = _noise_cell(monkeypatch, math.inf)
    assert cell.rounds == zeros_module._MAX_ROUNDS
    assert service.stats["evals"] > 24 * 12_240


def test_search_options_are_module_constants():
    assert list(inspect.signature(find_zeros).parameters) == ["profile", "rect"]
    assert list(inspect.signature(count_zeros).parameters) == ["profile", "rect"]


# ---------------------------------------------------------------------------
# symmetric cells: a product with real coefficients through the evaluator seam
# ---------------------------------------------------------------------------


# zeros above or on the axis: two conjugate pairs, two simple real zeros, a real double zero
_UPPER = [3.3 + 0.8j, 7.1 + 2.2j]
_REAL = [2.2, 5.6, 9.4, 9.4]


def _mirrored(zs):
    """A conjugate-symmetric ``_Service`` over f = prod (k - z) over ``zs`` and the
    mirror images of its non-real members: a product with real coefficients."""
    service = _product(list(zs) + [complex(z).conjugate() for z in zs if complex(z).imag])
    service.symmetric = True
    return service


def test_symmetric_cell_counts_from_its_upper_edges():
    # every zero at least 1.2 from the contour, so its pieces' rules are exact to
    # rounding: 0.8 below a 5-long piece, 7.1 + 2.2i alone puts 4e-7 in the moments
    rect = (1.0, 11.0, -4.0, 4.0)
    service, cell = _mirrored(_UPPER + _REAL), _Cell(rect, "count", sym=True)
    while cell.count is None:
        service.advance([cell], [])
    assert cell.count == 2 * len(_UPPER) + len(_REAL)
    # no piece runs along or below the real axis
    assert all(min(a.imag, b.imag) >= 0.0 and max(a.imag, b.imag) > 0.0
               for a, b in service.segments)
    # its moments are real, and those of all its zeros, mirror images included
    zs = np.array(_UPPER + [z.conjugate() for z in _UPPER] + _REAL)
    u = (zs - 6.0) / 5.0
    exact = (u[:, None] ** np.arange(4 * zeros_module._MMAX)).sum(0).real
    moments = np.asarray(cell.moments)
    assert np.all(np.abs(moments.imag) <= 1e-12 * np.abs(moments))
    assert np.abs(moments - exact).max() <= 1e-9


def test_symmetric_halves():
    # split across the axis while as wide as high above it, else at half that height
    assert zeros_module._halves((0.0, 8.0, -4.0, 4.0), True) == (
        ((0.0, 4.0, -4.0, 4.0), True), ((4.0, 8.0, -4.0, 4.0), True))
    assert zeros_module._halves((0.0, 3.0, -4.0, 4.0), True) == (
        ((0.0, 3.0, -2.0, 2.0), True), ((0.0, 3.0, 2.0, 4.0), False))


@pytest.mark.parametrize("rect, upper, real", [
    ((1.0, 11.0, 0.0, 3.0), _UPPER, _REAL),
    # 2 U + N_r = 13, more than a symmetric cell takes: it is split across the
    # axis into two symmetric halves, ...
    ((1.0, 30.0, 0.0, 3.0), _UPPER + [14.1 + 1.3j, 25.2 + 0.4j], _REAL + [17.5]),
    # ... or, narrower than high above the axis, at half that height into a
    # symmetric cell of 7 zeros and an upper cell of 2, which it counts twice
    ((1.0, 4.0, 0.0, 6.0), [1.5 + 2.5j, 2.0 + 1.0j, 2.5 + 4.5j, 3.0 + 5.5j, 3.5 + 0.5j], [2.2]),
], ids=["one_cell", "wide", "tall"])
def test_flush_search_reports_each_pair_once(monkeypatch, rect, upper, real):
    service = _mirrored(upper + real)
    monkeypatch.setattr(zeros_module, "_d_service", lambda profile, rect: service)
    rep = find_zeros(None, rect)
    x0, x1, _y0, y1 = rect
    assert rep.rect == (x0, x1, -y1, y1) and service.stats["retries"]["inflate"] == 0
    want = sorted([(complex(z), 1) for z in upper]
                  + [(complex(x), real.count(x)) for x in set(real)], key=lambda t: t[0].real)
    assert [(z.multiplicity, z.cls) for z in rep.zeros] == \
        [(m, "nonreal" if k.imag else "real") for k, m in want]
    assert np.abs(np.array([z.k for z in rep.zeros]) - [k for k, _m in want]).max() <= 1e-9
    assert sum(z.multiplicity for z in rep.zeros) == rep.total_count_by_argument_principle \
        == len(upper) + len(real)
    assert rep.stats["duplicates_removed"] == 0


def test_a_function_not_conjugate_symmetric_keeps_four_edge_cells():
    # the zeros of f have no mirror images: a flush rect is one four-edge cell,
    # whose bottom edge runs along the axis
    zs = [3.3 + 0.8j, 7.1 + 2.2j, 5.6 + 0.3j]
    service = _product(zs)
    top, found = _search(service, (1.0, 11.0, 0.0, 3.0))
    assert (top.rect, top.sym, top.count) == ((1.0, 11.0, 0.0, 3.0), False, 3)
    assert any(a.imag == b.imag == 0.0 for a, b in service.segments)
    assert np.abs(_ks(found) - sorted(zs, key=lambda z: z.real)).max() <= 1e-12


# ---------------------------------------------------------------------------
# exact functions: d of const4 in closed form, and close pairs of simple zeros
# ---------------------------------------------------------------------------


def _minus_sine_cubed_over_k():
    """A ``_Service`` over d of const4 in closed form, -sin^3 k / k: f'/f = 3 cot k
    - 1/k and |F| = |D| = |sin k|^3 e^(-3 |Im k|)."""
    return _exact(lambda k: 3.0 / np.tan(k) - 1.0 / k,
                  lambda k: np.abs(np.sin(k)) ** 3 * np.exp(-3.0 * np.abs(k.imag)))


@pytest.mark.parametrize("rect, n, inflate, evals, batches", [
    ((0.5, 31.0, -0.15, 1.0), 9, 0, 2_409, 7),
    # the first split line, Re k = 2 pi, runs through a triple zero: one restart;
    # on d_h the same search costs 7,517 evaluations, for its noise
    ((1.0, 4.0 * math.pi - 1.0, -0.15, 0.5), 3, 1, 2_679, 30),
], ids=["const4", "const4_split_line"])
def test_triple_zeros_of_the_exact_const4_d(rect, n, inflate, evals, batches):
    service = _minus_sine_cubed_over_k()
    top, found = _on_padded_rects(service, rect, _search)
    assert top.count == 3 * n and [m for _k, m, *_rest in found] == [3] * n
    assert np.abs(_ks(found) - math.pi * np.arange(1, n + 1)).max() <= 1e-11
    assert service.stats["retries"] == {"inflate": inflate, "resplit": 0}
    assert service.stats["evals"] <= evals and service.stats["batches"] <= batches


_STALLS = pytest.mark.xfail(strict=True, raises=NewtonStall, reason="an 8-node circle's "
                            "centroid errs by about h^8 / D^7 for a neighbour D away")


@pytest.mark.parametrize("centre, gap, rect, mults", [
    (3.3 + 0.4j, 3e-3, (2.0, 5.0, 0.0, 1.0), [2]),
    (3.3 + 0.4j, 9e-3, (2.0, 5.0, 0.0, 1.0), [1, 1]),
    # the centroid errs by about 1e-9, and the Newton step from it certifies it
    (3.3 + 0.4j, 7e-3, (2.0, 5.0, 0.0, 1.0), [1, 1]),
    (100.3 + 1.4j, 0.2, (99.0, 102.0, 0.0, 2.0), [1, 1]),
    pytest.param(100.3 + 1.4j, 0.1, (99.0, 102.0, 0.0, 2.0), [1, 1], marks=_STALLS),
], ids=["3e-3", "9e-3", "7e-3", "0.2_at_100", "0.1_at_100"])
def test_close_pair_of_simple_zeros(centre, gap, rect, mults):
    # a pair within _SPLIT_FLOOR of its centroid is one double zero there; a simple
    # zero is as close as its certificate's Newton step
    zs = [centre - 0.5 * gap, centre + 0.5 * gap]
    _top, found = _on_padded_rects(_product(zs), rect, _search)
    assert [m for _k, m, *_rest in found] == mults
    error = np.abs(_ks(found) - (zs if len(mults) == 2 else [centre])).max()
    assert error <= zeros_module._STEP_CERT * (1.0 + abs(centre))


# ---------------------------------------------------------------------------
# near-collisions of zeros: eta = 4 + eps splits the triple zero at pi
# ---------------------------------------------------------------------------


def _constant_d(c):
    """d(k) of the constant medium eta = c, up to a constant factor."""
    s = mpmath.sqrt(c)
    return lambda k: (mpmath.cos(s * k) * mpmath.sin(k) / k
                      - mpmath.sin(s * k) * mpmath.cos(k) / (s * k))


@pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
def test_split_triple_zero_is_resolved(eps):
    # the real zero and the non-real pair are all farther apart than the
    # split floor, so each is reported once, as a simple zero
    rep = find_zeros(ConstantProfile(4.0 + eps), (2.5, 3.8, 0.0, 0.5))
    assert [(z.cls, z.multiplicity) for z in rep.zeros] == [("real", 1), ("nonreal", 1)]
    d = _constant_d(mpmath.mpf(4) + mpmath.mpf(eps))
    roots = []
    with mpmath.workdps(30):
        for z in rep.zeros:
            root = complex(mpmath.findroot(d, mpmath.mpc(z.k)))
            assert abs(root - z.k) <= 1e-8, (z.k, root)
            assert all(abs(root - r) > 1e-8 for r in roots), f"two zeros share {root}"
            roots.append(root)


def test_one_cell_resolves_a_split_triple_zero():
    # eta = 4 + 1e-6 splits the triple zero at pi into three about 7e-3 apart;
    # the pencil of one cell around them gives all three, none handed back (a
    # rect that is not its own mirror image, so the cell has four edges)
    rect = (3.1, 3.2, -0.05, 0.06)
    service = _d_service(ConstantProfile(4.0 + 1e-6), rect)
    cell, = _count(service, rect)
    found, back = _refined(service, [cell])
    assert (cell.count, back, [mult for _k, mult, _res, _cert in found]) == (3, [], [1, 1, 1])
    d = _constant_d(mpmath.mpf(4) + mpmath.mpf(1e-6))
    with mpmath.workdps(30):
        roots = [complex(mpmath.findroot(d, mpmath.mpc(k))) for k, *_ in found]
    assert all(abs(root - k) <= 1e-8 for root, (k, *_) in zip(roots, found))
    assert min(abs(a - b) for i, a in enumerate(roots) for b in roots[:i]) > 5e-3


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
@pytest.mark.parametrize("scale", [0.01, 100.0])
def test_rank_tolerance_does_not_change_the_zeros(monkeypatch, eps, scale):
    # a rank too high or too low costs evaluations (merged points, a hand-back), not zeros
    def search():
        return find_zeros(ConstantProfile(4.0 + eps), (2.5, 3.8, 0.0, 0.5)).zeros

    ref = search()
    monkeypatch.setattr(zeros_module, "_RANK_TOL", scale * zeros_module._RANK_TOL)
    zeros = search()
    assert [(z.multiplicity, z.cls) for z in zeros] == [(z.multiplicity, z.cls) for z in ref]
    assert all(abs(z.k - r.k) <= 1e-10 for z, r in zip(zeros, ref))


def test_cluster_below_the_split_floor_is_one_multiple_zero():
    # eta = 4 + 1e-8: the three zeros lie about 1.6e-3 from pi, inside the floor
    eps = 1e-8
    rep = find_zeros(ConstantProfile(4.0 + eps), (2.5, 3.8, 0.0, 0.5))
    assert [(z.cls, z.multiplicity) for z in rep.zeros] == [("real", 3)]
    d = _constant_d(mpmath.mpf(4) + mpmath.mpf(eps))
    delta = 1.578e-3                   # cube-root spread of the split
    with mpmath.workdps(40):
        roots = [complex(mpmath.findroot(d, mpmath.mpc(math.pi + delta * w)))
                 for w in (-1.0, 0.5 + 0.866j, 0.5 - 0.866j)]
    assert min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]) > 1e-3
    assert max(abs(r - math.pi) for r in roots) < 2e-3
    assert abs(rep.zeros[0].k - sum(roots) / 3) <= 1e-6


# ---------------------------------------------------------------------------
# every colton_example zero against the closed form
# ---------------------------------------------------------------------------


def _colton_d(k):
    """d(k) of colton_example: q = 1/4 and a = ln 3 give it in closed form."""
    mu = mpmath.sqrt(k * k - mpmath.mpf(1) / 4)
    a = mpmath.log(3)
    return mpmath.sqrt(3) / 2 * (mpmath.cos(mu * a) * mpmath.sin(k) / k
                                 - mpmath.sin(mu * a) * mpmath.cos(k) / mu)


@pytest.mark.parametrize("fixture, n_zeros", [("colton_spectrum_40", 13),
                                              ("colton_band_150", 2),
                                              ("colton_spectrum_150", 51)])
def test_zeros_are_roots_of_the_closed_form(request, fixture, n_zeros):
    zeros = request.getfixturevalue(fixture).zeros
    assert len(zeros) == n_zeros
    roots = []
    with mpmath.workdps(30):
        for z in zeros:
            root = complex(mpmath.findroot(_colton_d, mpmath.mpc(z.k)))
            assert abs(root - z.k) <= 1e-8, (z.k, root)
            assert all(abs(root - r) > 1e-8 for r in roots), f"two zeros share {root}"
            roots.append(root)
