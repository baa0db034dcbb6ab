import cmath
import math

import numpy as np
import pytest

from tevp.asymptotics import (AsymptoticCase, case_from_profile,
                              counting_check, match, predict_nonreal,
                              predict_real, regime, solve_transcendental,
                              write_match_csv)
from tevp.errors import RegimeError
from tevp.profiles import get_profile, liouville_transform
from tevp.zeros import find_zeros
from tevp.zeros import SpectralZero


def test_transcendental_lambda_zero_is_identity():
    assert solve_transcendental(0.0, 37.0 + 5.0j) == 37.0 + 5.0j


def test_transcendental_residual_on_ring():
    # ring sampled at odd multiples of pi/16: for lam < 0 the principal-branch
    # equation has no solution for w exactly on the negative real axis (the
    # image of the cut plane omits a thin lens around the cut), so the sample
    # avoids theta = pi while still bracketing it closely
    for lam in (-2.0, -1.0, -0.5, 1.0):
        for j in range(16):
            w = 100.0 * cmath.exp(1j * (2 * j + 1) * math.pi / 16.0)
            z = solve_transcendental(lam, w)
            assert abs(z - lam * cmath.log(z) - w) <= 1e-12


def test_transcendental_seed_accuracy():
    z = solve_transcendental(1.0, 100.0)
    assert abs(z - (100.0 + math.log(100.0))) <= 0.1 * math.log(100.0) / 100.0 * 10


def test_transcendental_pre_violation():
    with pytest.raises(ValueError):
        solve_transcendental(1.0, 1.0)


def test_case_from_profile(colton):
    case = case_from_profile(colton)
    assert case.regime == "a_gt_1"
    assert case.m == 0
    assert case.eta_deriv == pytest.approx(1.0, abs=1e-10)


def test_case_from_profile_reads_a_higher_contact_order():
    # raised_cosine is flat at r = 1 up to its third derivative: m = 2, and
    # the fourth derivative there is 3 A pi^4 / 2 with A = 1
    case = case_from_profile(get_profile("raised_cosine"))
    assert case.m == 2
    assert case.eta_deriv == pytest.approx(1.5 * math.pi ** 4, rel=1e-14)


def test_case_validation():
    with pytest.raises(ValueError):
        AsymptoticCase(m=0, eta_deriv=0.0, a=2.0)
    with pytest.raises(ValueError):
        AsymptoticCase(m=-1, eta_deriv=1.0, a=2.0)
    with pytest.raises(ValueError):
        AsymptoticCase(m=0, eta_deriv=1.0, a=1.0, q_mean=0.0)


def test_regime_follows_the_travel_time():
    assert AsymptoticCase(m=0, eta_deriv=1.0, a=0.5).regime == "a_lt_1"
    assert AsymptoticCase(m=0, eta_deriv=1.0, a=2.0).regime == "a_gt_1"
    assert AsymptoticCase(m=0, eta_deriv=1.0, a=1.0, q_mean=0.3).regime == "a_eq_1"
    # a = 1 to within 1e-9 is the a = 1 regime, which needs a nonzero q_mean
    for a in (1.0, 1.0 + 1e-10, 1.0 - 1e-10):
        assert regime(a) == "a_eq_1"
        with pytest.raises(ValueError):
            AsymptoticCase(m=0, eta_deriv=1.0, a=a, q_mean=0.0)
    assert regime(1.0 + 2e-9) == "a_gt_1" and regime(1.0 - 2e-9) == "a_lt_1"
    case = AsymptoticCase(m=0, eta_deriv=1.0, a=0.5)
    with pytest.raises(AttributeError):
        case.regime = "a_gt_1"


def test_predict_nonreal_frozen_value(colton):
    # independent evaluation of the a>1, m=0 formula at n=5
    case = case_from_profile(colton)
    k5 = predict_nonreal(case, 5, refine=False)
    expect = 5 * math.pi + 0.5j * cmath.log(4.0 * (10.0 * math.pi * 1j) ** 2)
    assert k5 == pytest.approx(expect, abs=1e-13)
    # frozen digits from the formula
    assert k5.real == pytest.approx(14.137166941154069, abs=1e-12)
    assert k5.imag == pytest.approx(4.140462159403391, abs=1e-12)


def test_predict_imaginary_growth(colton):
    case = case_from_profile(colton)
    for n in (10, 40, 200):
        kp = predict_nonreal(case, n, refine=False)
        assert kp.imag == pytest.approx(0.5 * math.log(16 * n * n * math.pi ** 2),
                                        rel=1e-12)


def test_refined_prediction_consistent(colton):
    case = case_from_profile(colton)
    for n in (8, 20):
        lead = predict_nonreal(case, n, refine=False)
        ref = predict_nonreal(case, n, refine=True)
        assert abs(ref - lead) < 0.5        # small correction
        assert abs(ref - lead) > 1e-6       # but a genuine one


def test_principal_log_continuity(colton):
    case = case_from_profile(colton)
    ks = [predict_nonreal(case, n, refine=False) for n in range(1, 1001)]
    gaps = np.diff(np.array(ks))
    assert np.all(np.abs(gaps - math.pi) <= 2.0)


def test_a_lt_1_spacing():
    p = get_profile("slow_core")
    case = case_from_profile(p)
    assert case.regime == "a_lt_1"
    k1 = predict_nonreal(case, 30, refine=False)
    k2 = predict_nonreal(case, 31, refine=False)
    assert (k2 - k1).real == pytest.approx(math.pi / case.a, rel=1e-3)


@pytest.mark.parametrize("beta", [40.0, 4.0])
def test_a_lt_1_residual_decays(beta):
    # the a < 1 zeros sit near n pi / a, so (2i n pi / a)^(m+2) enters the log;
    # with (2i n pi)^(m+2) the residual stalls near (1/a) log(1/a)
    profile = get_profile("slow_core", [0.5, beta])
    case = case_from_profile(profile)
    worst = []
    for x0 in (70.0, 230.0):
        rep = find_zeros(profile, (x0, x0 + 12.0, 0.0, 10.0))
        window = (int(case.a * x0 / math.pi) - 2, int(case.a * (x0 + 12.0) / math.pi) + 3)
        paired = match(rep, case, n_window=window)
        assert paired.matched and not paired.unmatched_zeros
        worst.append(max(p.residual for p in paired.matched))
    assert worst[1] < worst[0] < 0.2


def test_a_lt_1_default_window_pairs_every_zero():
    # without n_window, match takes the index window from a Re k / pi
    profile = get_profile("slow_core", [0.5, 40.0])
    rep = find_zeros(profile, (70.0, 82.0, 0.0, 10.0))
    paired = match(rep, case_from_profile(profile))
    assert len(paired.matched) == sum(1 for z in rep.zeros if z.cls == "nonreal") > 0
    assert not paired.unmatched_zeros


def test_a_gt_1_predictions_frozen(colton):
    case = case_from_profile(colton)
    frozen = {(3, False): 7.853981633974483 + 3.6296365356374003j,
              (17, False): 51.83627878423159 + 5.364237591025507j,
              (17, True): 51.73346577724544 + 5.3376938351733285j,
              (60, True): 186.88936936009338 + 6.6174376769509005j}
    for (n, refine), k in frozen.items():
        assert predict_nonreal(case, n, refine=refine) == k


def test_predict_real_trivial_and_regime():
    lv4 = liouville_transform(get_profile("constant", [4.0]))
    for n in (1, 5, 9):
        assert predict_real(lv4, n) == pytest.approx(n * math.pi, rel=1e-12)
    lv1 = liouville_transform(get_profile("constant", [1.0]))
    with pytest.raises(RegimeError):
        predict_real(lv1, 3)


def test_match_empty():
    case = AsymptoticCase(m=0, eta_deriv=1.0, a=2.0)
    rep = match([], case)
    assert rep.matched == [] and rep.unmatched_zeros == []


@pytest.mark.parametrize("window", [(-1, 6), (0, 6), (7, 3)])
def test_match_rejects_an_unusable_n_window(colton, colton_spectrum_40, window):
    # (-1, 6) once raised TypeError, since no shift kept lo + shift >= 1;
    # (7, 3) matched nothing
    with pytest.raises(ValueError, match="n_window"):
        match(colton_spectrum_40, case_from_profile(colton), n_window=window)


def test_match_recovers_index_shift(colton):
    # synthetic zeros placed exactly at predictions with index n+1 must be
    # matched via the global shift, not greedily across indices
    case = case_from_profile(colton)
    fake = [SpectralZero(k=predict_nonreal(case, n + 1, refine=True),
                         multiplicity=1, cls="nonreal", residual=0.0)
            for n in range(8, 16)]
    rep = match(fake, case, n_window=(8, 15))
    assert all(p.residual <= 1e-10 for p in rep.matched)
    assert len(rep.matched) == len(fake)
    assert rep.index_shift == 1


def test_match_real_spectrum(colton, colton_spectrum_40):
    case = case_from_profile(colton)
    rep = match(colton_spectrum_40, case)
    assert len(rep.unmatched_zeros) == 0
    assert all(p.residual < 0.6 for p in rep.matched)
    # unmatched predictions are reported, never silently dropped
    assert len(rep.unmatched_predictions) > 0


def test_counting_check(colton_spectrum_40):
    rows = counting_check(colton_spectrum_40, [3.0, 20.0, 40.0])
    assert rows[0][1] == 0 and rows[0][2] == 0.0
    r, N, ratio = rows[-1]
    assert N % 4 == 0
    assert 0.6 <= ratio <= 1.4


def test_match_csv(tmp_path, colton, colton_spectrum_40):
    case = case_from_profile(colton)
    rep = match(colton_spectrum_40, case)
    out = tmp_path / "match.csv"
    write_match_csv(out, rep)
    header = out.read_text().splitlines()[0]
    assert header == "n,re_pred,im_pred,re_comp,im_comp,abs_residual"
    assert len(out.read_text().splitlines()) == 1 + len(rep.matched)


@pytest.mark.parametrize("spectrum", ["colton_spectrum_40", "colton_spectrum_150"])
def test_no_unmatched_prediction_inside_the_matched_range(colton, spectrum, request):
    # one prediction per first-quadrant zero, so inside the matched indices
    # every prediction has its zero
    rep = match(request.getfixturevalue(spectrum), case_from_profile(colton))
    lo, hi = min(p.n for p in rep.matched), max(p.n for p in rep.matched)
    assert [n for n in rep.unmatched_predictions if lo <= n <= hi] == []
