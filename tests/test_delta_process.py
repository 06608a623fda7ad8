import math

import numpy as np
import pytest
from scipy import stats as sps

from rwrs.errors import DegenerateRatioError
from rwrs.simkit import RngStream, estimate_from_values
from rwrs.delta_process import (
    DeltaPath,
    MollifiedLocalTime,
    estimate_Mk,
    mollified_local_time,
    mollified_values,
    occupation_comparison,
    sample_delta_path,
    zero_set_boxcount,
)
from rwrs.brownian import sample_local_time_fields

from reference import sample_delta_marginal, support_increase_bound


def synthetic_path(values, dt):
    values = np.asarray(values, dtype=np.float64)
    times = np.arange(values.size) * dt
    return DeltaPath(times, values, dt, 0, None)


def test_path_starts_at_zero_and_matches_variance_oracle():
    root = RngStream(301, 0)
    finals = np.empty(4000)
    for i in range(4000):
        path = sample_delta_path(1.0, 2.0 ** -6, 1 << 12, root.substream(i))
        assert path.values[0] == 0.0
        finals[i] = path.values[-1]
    # independent oracle for E||L_1||^2, frozen from the double integral
    assert abs(finals.var() - 1.0638) < 0.05 * 1.0638
    assert abs(finals.mean()) < 4 * finals.std() / math.sqrt(finals.size)


def test_self_similarity_of_marginals():
    for T in (0.5, 2.0):
        a = np.empty(3000)
        b = np.empty(3000)
        sa = RngStream(302, int(T * 10))
        sb = RngStream(303, int(T * 10))
        for i in range(3000):
            a[i] = sample_delta_path(T, 2.0 ** -6, 1 << 14, sa.substream(i)).values[-1]
            b[i] = sample_delta_path(1.0, 2.0 ** -6, 1 << 14, sb.substream(i)).values[-1]
        stat = sps.ks_2samp(a / T ** 0.75, b).statistic
        assert stat < 0.035  # 1e-3 two-sample quantile at 3000 vs 3000


def test_conditional_gaussianity_on_frozen_walk():
    root = RngStream(304, 0)
    base = sample_delta_path(1.0, 2.0 ** -6, 1 << 12, root.substream(0))
    norm_sq = base.field(1.0).norm2_sq()
    redraws = np.array(
        [
            sample_delta_path(1.0, 2.0 ** -6, 1 << 12, root.substream(i + 1),
                              walk=base.walk).values[-1]
            for i in range(2500)
        ]
    )
    assert abs(redraws.var() - norm_sq) < 0.05 * norm_sq + 4 * norm_sq / math.sqrt(2500)


def test_marginal_sampler_agrees_with_path_sampler():
    a = np.empty(3000)
    b = np.empty(3000)
    sa = RngStream(305, 0)
    sb = RngStream(306, 0)
    for i in range(3000):
        a[i] = sample_delta_path(1.0, 2.0 ** -6, 1 << 12, sa.substream(i)).values[-1]
        b[i] = sample_delta_marginal([1.0], 1 << 12, sb.substream(i))[0]
    assert sps.ks_2samp(a, b).statistic < 0.035


def test_marginal_characteristic_function_match():
    sa = RngStream(307, 0)
    sb = RngStream(308, 0)
    n = 4000
    deltas = np.array(
        [sample_delta_marginal([1.0], 1 << 12, sa.substream(i))[0] for i in range(n)]
    )
    norms = np.empty(n)
    for i in range(n):
        cum, _ = sample_local_time_fields([1.0], 1 << 12, sb.substream(i))
        norms[i] = cum[0].norm2_sq()
    for theta in (0.5, 1.0, 2.0):
        lhs = np.cos(theta * deltas)
        rhs = np.exp(-theta ** 2 * norms / 2.0)
        se = math.hypot(lhs.std() / math.sqrt(n), rhs.std() / math.sqrt(n))
        assert abs(lhs.mean() - rhs.mean()) <= 3 * se


def test_mollified_kernel_closed_forms():
    dt = 2.0 ** -8
    flat = synthetic_path(np.zeros(257), dt)
    got = mollified_local_time(flat, 0.04, 1.0, 0.0)
    assert got.value == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.04))
    assert isinstance(got, MollifiedLocalTime)


def test_mollified_monotone_in_time():
    path = sample_delta_path(1.0, 2.0 ** -8, 1 << 12, RngStream(309, 0))
    vals = [mollified_values(path, 0.05, t, [0.0])[0] for t in (0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mollifier_modulus_consistent_with_eps_power_bound():
    # the kernel-halving second moments admit a uniform C |eps - eps'|^(1/6)
    # envelope; the raw difference means are not yet decreasing at desk
    # scale (the modulus exponent is tiny), so the bound itself is the
    # testable statement
    root = RngStream(310, 0)
    ladders = [(0.2, 0.1), (0.1, 0.05), (0.05, 0.025)]
    sq = {pair: [] for pair in ladders}
    for i in range(800):
        path = sample_delta_path(1.0, 2.0 ** -11, 1 << 12, root.substream(i))
        vals = {e: mollified_values(path, e, 1.0, [0.0])[0]
                for e in (0.2, 0.1, 0.05, 0.025)}
        for hi, lo in ladders:
            sq[(hi, lo)].append((vals[hi] - vals[lo]) ** 2)
    budget = 0.2
    for hi, lo in ladders:
        envelope = budget * (hi - lo) ** (1.0 / 6.0)
        assert np.mean(sq[(hi, lo)]) <= envelope


def test_moment_estimator_cross_checks():
    res = estimate_Mk(1, 1.0, 2500, 1 << 14, RngStream(311, 0))
    root = RngStream(312, 0)
    vals = np.empty(2500)
    for i in range(2500):
        cum, _ = sample_local_time_fields([1.0], 1 << 14, root.substream(i))
        vals[i] = cum[0].norm2_sq() ** -0.5
    direct = estimate_from_values(vals, 312)
    target = 4.0 / math.sqrt(2 * math.pi) * direct.value
    target_se = 4.0 / math.sqrt(2 * math.pi) * direct.std_error
    se = math.hypot(res.estimate.std_error, target_se)
    assert abs(res.estimate.value - target) <= 3 * se


def test_moment_estimator_time_scaling():
    r1 = estimate_Mk(1, 1.0, 2500, 1 << 13, RngStream(313, 0))
    rt = estimate_Mk(1, 0.5, 2500, 1 << 13, RngStream(314, 0))
    se = math.hypot(rt.estimate.std_error, 0.5 ** 0.25 * r1.estimate.std_error)
    assert abs(rt.estimate.value - 0.5 ** 0.25 * r1.estimate.value) <= 3 * se


def test_regularized_moment_identity_k2():
    # exact finite-eps identity: E[L(eps,1,0)^2] equals the ordered-time
    # integral of det(M_cum + eps I)^(-1/2), both sides Monte Carlo
    eps = 0.05
    root = RngStream(315, 0)
    vals = np.empty(2000)
    for i in range(2000):
        path = sample_delta_path(1.0, 2.0 ** -10, 1 << 13, root.substream(i))
        vals[i] = mollified_values(path, eps, 1.0, [0.0])[0] ** 2
    lhs = estimate_from_values(vals, 315)
    rhs = estimate_Mk(2, 1.0, 3000, 1 << 13, RngStream(316, 0), eps=eps)
    se = math.hypot(lhs.std_error, rhs.estimate.std_error)
    assert abs(lhs.value - rhs.estimate.value) <= 3 * se


def test_boxcount_calibration_on_brownian_paths():
    # dt = 2^-18 keeps >= 16 samples per box at the finest scale; coarser
    # sampling misses sub-box crossing clusters and deflates the slope
    scales = [2.0 ** -j for j in range(7, 15)]
    rng = np.random.default_rng(11)
    slopes = []
    n = 1 << 18
    dt = 1.0 / n
    for _ in range(60):
        incr = rng.standard_normal(n) * math.sqrt(dt)
        path = synthetic_path(np.concatenate([[0.0], np.cumsum(incr)]), dt)
        slopes.append(zero_set_boxcount(path, scales, hurst=0.5).slope)
    assert abs(np.mean(slopes) - 0.5) < 0.05


def test_boxcount_linear_path_counts_one_crossing():
    # a single transversal zero: sign changes contribute one box per scale;
    # the matched-threshold halo adds the designed s^(1 - hurst) factor, so
    # the fitted slope stays far below any fractal zero set's
    scales = [2.0 ** -j for j in range(4, 12)]
    n = 1 << 14
    path = synthetic_path(np.linspace(-1.0, 1.0, n + 1), 1.0 / n)
    fit = zero_set_boxcount(path, scales)
    assert fit.slope < 0.3
    for s in scales:
        width = int(round(s * n))
        boxes = path.values[: (n // width) * width].reshape(-1, width)
        crossings = int(((boxes.min(axis=1) <= 0) & (boxes.max(axis=1) >= 0)).sum())
        assert crossings == 1


def test_boxcount_flags_degenerate_paths():
    n = 1 << 14
    path = synthetic_path(np.linspace(1.0, 2.0, n + 1), 1.0 / n)
    with pytest.raises(DegenerateRatioError):
        zero_set_boxcount(path, [2.0 ** -j for j in range(4, 12)])
    with pytest.raises(ValueError):
        zero_set_boxcount(path, [0.5, 0.25, 0.125, 0.1])  # under 2 decades


def test_occupation_identity_on_intervals():
    root = RngStream(317, 0)
    lhs_total = rhs_total = 0.0
    for i in range(500):
        path = sample_delta_path(1.0, 2.0 ** -10, 1 << 12, root.substream(i))
        lhs, rhs = occupation_comparison(path, 1.0, -0.05, 0.05, 1e-4)
        lhs_total += lhs
        rhs_total += rhs
    assert abs(lhs_total - rhs_total) <= 0.05 * lhs_total


def test_support_of_local_time_increase():
    root = RngStream(318, 0)
    for i in range(200):
        path = sample_delta_path(1.0, 2.0 ** -10, 1 << 12, root.substream(i))
        observed, bound = support_increase_bound(path, 0.01, 2.0 ** -5)
        assert observed <= bound


def test_occupation_comparison_equals_the_norm_cdf_route():
    # the closed-form level integral uses scipy.special.ndtr; it must give
    # the bits scipy.stats.norm.cdf gave
    eps = 0.01
    for i in range(6):
        path = sample_delta_path(1.0, 2.0 ** -8, 1 << 10, RngStream(330, 0).substream(i))
        lhs, rhs = occupation_comparison(path, 1.0, -0.05, 0.05, eps)
        vals = path.values[:int(round(1.0 / path.dt))]
        expected = path.dt * float(
            (sps.norm.cdf((0.05 - vals) / math.sqrt(eps))
             - sps.norm.cdf((-0.05 - vals) / math.sqrt(eps))).sum())
        assert rhs == expected > 0.0
