import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from rwrs import cli, harness
from rwrs.errors import DegenerateRatioError
from rwrs.simkit import RngStream
from rwrs.lattice_walk import StepLaw
from rwrs.scenery import SceneryLaw
from rwrs.exact_oracle import exact_counting_moment, exact_joint_return
from rwrs.harness import (
    _ks_statistic,
    correlation_ratio,
    counting_moment_curve,
    estimate_return_curve,
    fit_power_law,
    gram_convergence_test,
    ks_threshold,
    scaling_law_test,
    uniformity_shadow,
)

from reference import agree_within, tightness_stats

STEP = StepLaw.simple()
RAD = SceneryLaw.rademacher()


def test_fit_power_law_exact_line():
    pts = [(n, n ** -0.75, None) for n in (4, 16, 64, 256)]
    fit = fit_power_law(pts)
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)
    flat = fit_power_law([(n, 3.5, None) for n in (4, 16, 64)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_power_law_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([(4, 1.0, None), (8, 2.0, None)])
    with pytest.raises(ValueError):
        fit_power_law([(4, 1.0, None), (8, -2.0, None), (16, 1.0, None)])


def test_fit_power_law_ci_coverage():
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 100
    ns = [2 ** j for j in range(6, 12)]
    for _ in range(trials):
        pts = []
        for n in ns:
            rel = 0.05
            value = n ** -0.75 * math.exp(rng.standard_normal() * rel)
            pts.append((n, value, value * rel))
        fit = fit_power_law(pts)
        if abs(fit.slope + 0.75) <= fit.slope_ci:
            hits += 1
    assert hits >= 93


def test_return_curve_rejects_inadmissible_times():
    with pytest.raises(ValueError, match="d0"):
        estimate_return_curve(STEP, RAD, [2, 3, 4], stream=RngStream(1, 0))


def test_return_curve_needs_a_stream():
    with pytest.raises(TypeError, match="stream"):
        estimate_return_curve(STEP, RAD, [2, 4, 8])


def test_return_curve_oracle_gate_small_n():
    root = RngStream(401, 0)
    n_list = [2, 4, 6, 8, 10, 12]
    ests, _ = estimate_return_curve(STEP, RAD, n_list, walk_replicas=600,
                                    stream=root)
    for n, est in zip(n_list, ests):
        exact = exact_joint_return(STEP, RAD, [n]).value
        if n == 2:
            assert est.value == 0.5  # every walk gives the same conditional
        tol = max(3 * est.std_error, 1e-12)
        assert abs(est.value - exact) <= tol


def test_return_curve_k2_oracle_gate():
    root = RngStream(402, 0)
    exact = exact_joint_return(STEP, RAD, [4, 8]).value
    ests, _ = estimate_return_curve(
        STEP, RAD, [4], k=2, T_ratios=(1, 2), walk_replicas=4000, stream=root
    )
    assert abs(ests[0].value - exact) <= 4 * ests[0].std_error


def test_return_curve_matches_exact_past_n_12():
    # the sampled estimators against the exact DP at lengths the path
    # enumeration could not reach in a test: k = 1 at n = 16 and 20, and
    # k = 2 at times (8, 16) with the default 64 scenery draws
    ests, _ = estimate_return_curve(STEP, RAD, [16, 20], walk_replicas=4000,
                                    stream=RngStream(412, 0))
    for n, est in zip((16, 20), ests):
        exact = exact_joint_return(STEP, RAD, [n]).value
        assert abs(est.value - exact) <= 3 * est.std_error, n
    (est,), _ = estimate_return_curve(STEP, RAD, [8], k=2, T_ratios=(1, 2),
                                      walk_replicas=4000, scenery_draws=64,
                                      stream=RngStream(413, 0))
    exact = exact_joint_return(STEP, RAD, [8, 16]).value
    assert abs(est.value - exact) <= 3 * est.std_error


def test_k1_values_never_reach_the_single_walk_convolution(tmp_path, monkeypatch):
    # one k = 1 route at every n: ReturnProbTable, small n and the CLI's
    # off-lattice exact-zero check included
    def refuse(*args, **kwargs):
        raise AssertionError("k = 1 reached joint_return_prob_sampled")

    monkeypatch.setattr(harness, "joint_return_prob_sampled", refuse)
    ests, _ = estimate_return_curve(STEP, RAD, [2, 8, 64], walk_replicas=50,
                                    stream=RngStream(414, 0))
    assert ests[0].value == 0.5
    cfg = tmp_path / "config.ini"
    cfg.write_text("[experiment]\nsubcommand = return-curve\n[laws]\n"
                   "step = simple\nscenery = rademacher\n[params]\n"
                   "n_list = 7 9 11\nk = 1\n[run]\nreplicas = 30\n",
                   encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_return_curve_slope_reduced_scale():
    root = RngStream(403, 0)
    n_list = [1 << j for j in range(8, 13)]
    _, fit = estimate_return_curve(STEP, RAD, n_list, walk_replicas=500,
                                   stream=root)
    assert abs(fit.slope + 0.75) < 0.04


def test_counting_moment_oracle_gate():
    root = RngStream(404, 0)
    curve = counting_moment_curve(STEP, RAD, 1, [2, 4, 8], 4000, root)
    for n, est in zip((2, 4, 8), curve.estimates):
        exact = exact_counting_moment(STEP, RAD, n, 1)
        assert abs(est.value - exact) <= 4 * max(est.std_error, 1e-12)


def test_counting_moment_k2_oracle_gate():
    root = RngStream(405, 0)
    curve = counting_moment_curve(STEP, RAD, 2, [4, 8], 4000, root)
    for n, est in zip((4, 8), curve.estimates):
        exact = exact_counting_moment(STEP, RAD, n, 2)
        assert abs(est.value - exact) <= 4 * est.std_error


def test_counting_moment_curve_names_a_mark_whose_replicas_agree():
    # Z_1 = xi(0) is +-1, so every replica counts 0 returns at n = 1,
    # whatever the draws: its standard error is 0 and the amplitude fit's
    # 1/se^2 weight is infinite
    with pytest.raises(DegenerateRatioError, match="n = 1:"):
        counting_moment_curve(STEP, RAD, 1, [1, 2, 4, 8], 2, RngStream(3, 0))


def test_gram_convergence_self_test():
    # two independent walk batches at the same n: identical distributions
    reports = gram_convergence_test(STEP, 1 << 10, [1.0], 2000, 1 << 10,
                                    RngStream(406, 0))
    assert all(r.verdict for r in reports)


def test_scaling_law_identity_at_T_one():
    rep = scaling_law_test(1.0, 2000, RngStream(407, 0))
    assert rep.verdict


def test_correlation_ratio_reduced_scale():
    # the walk side's ratio is about 1.2 with a heavy tail: 500 replicas
    # put it 3 standard errors above 1 at 1 of 10 seeds, 3000 at 19 of 20
    lhs, rhs = correlation_ratio(1 << 10, 1.0, 3000, RngStream(408, 0),
                                 StepLaw.simple(), SceneryLaw.rademacher(),
                                 fineness=1 << 12)
    assert agree_within(lhs, rhs, n_sigma=4.0)
    assert lhs.value - 3 * lhs.std_error > 1.0
    assert rhs.value - 3 * rhs.std_error > 1.0


def test_cauchy_schwarz_forces_ratio_above_one():
    # determinant with a dependent (identical) pair collapses, so the
    # numerator functional strictly exceeds the independent-denominator one
    from rwrs.harness import _field_pair_stats

    root = RngStream(409, 0)
    num, den = np.empty(800), np.empty(800)
    for i in range(800):
        a, b, cross = _field_pair_stats(1.0, 1.0, 1 << 12, root.substream(i))
        num[i] = (a * b - cross ** 2) ** -0.5
        den[i] = (a * b) ** -0.5
    ratio = num.mean() / den.mean()
    se = ratio * math.hypot(num.std() / num.mean(), den.std() / den.mean()) \
        / math.sqrt(800)
    assert ratio - 3 * se > 1.0


def test_uniformity_shadow_bounded():
    vals, peak = uniformity_shadow(STEP, RAD, 1 << 12, 200,
                                   RngStream(410, 0), grid_points=3)
    assert peak < 4.0  # calibration budget; typical values sit near 0.8
    assert all(v >= 0 for _, _, v, _ in vals)


def test_tightness_shadow():
    n = 1 << 12
    rows = tightness_stats(STEP, RAD, n, 0.5, [2.0 ** -j for j in range(2, 7)],
                           500, RngStream(411, 0))
    for h, est in rows:
        assert est.value <= 2.0 * math.sqrt(h * n)


def test_ks_threshold_matches_quantile_formula():
    assert ks_threshold(10_000, 10_000) == pytest.approx(0.02757, abs=2e-4)


def _ks_cases():
    rng = np.random.default_rng(4_001)
    grid = np.arange(1000, dtype=np.float64)
    return {
        "ties-equal-sizes": (rng.integers(0, 6, 300), rng.integers(0, 7, 300)),
        "ties-unequal-sizes": (rng.integers(0, 6, 240), rng.integers(0, 7, 375)),
        "normal-unequal-sizes": (rng.normal(size=97), rng.normal(0.2, 1.1, 143)),
        "identical": (grid, grid.copy()),
        "10000-vs-10000": (rng.normal(size=10_000), rng.normal(0.02, 1.0, 10_000)),
        "10001-vs-9000": (rng.normal(size=10_001), rng.normal(0.02, 1.0, 9_000)),
        # n1 == n2 and d = 2/1000: scipy's exact p-value exceeds 1, it warns and
        # falls back to the asymptotic one, keeping the rounded statistic
        "exact-unsuccessful": (grid, grid + 1.5),
    }


KS_CASES = _ks_cases()


@pytest.mark.parametrize("name", list(KS_CASES))
def test_ks_statistic_equals_scipy_bit_for_bit(name):
    a, b = KS_CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = sps.ks_2samp(a, b).statistic
    unsuccessful = any("Exact calculation unsuccessful" in str(w.message)
                       for w in caught)
    assert unsuccessful == (name == "exact-unsuccessful")
    assert _ks_statistic(a, b) == expected
    if name == "identical":
        assert _ks_statistic(a, b) == 0.0
