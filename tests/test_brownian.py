import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import dblquad, quad

from rwrs.errors import BudgetExceededError
from rwrs.lattice_walk import StepLaw, _walk_positions
from rwrs.simkit import RngStream, estimate_from_values
from rwrs.brownian import (
    besq0_density,
    besq0_extinction,
    besq0_step,
    besq0_total_integral,
    estimate_C,
    gram_of_fields,
    hitting_time_density,
    origin_local_time_at_range_exit,
    ray_knight_profile_fast,
    sample_local_time_fields,
)

from reference import (
    embedded_positions_by_loop,
    origin_local_time_at_range_exit_by_loop,
    ray_knight_profile,
)


def scaled(fields, durations):
    """Field i divided by durations_i^(3/4): its Gram matrix is the normalized
    one whose smallest eigenvalue drives the small-ball bounds."""
    return [dataclasses.replace(f, values=f.values / d ** 0.75)
            for f, d in zip(fields, durations)]


def expected_l2_norm_sq():
    """Independent oracle: E||L_1||^2 by double time integral of the heated
    return density (the level integral of the product of Gaussian kernels
    collapses to the kernel at zero time-gap)."""
    val, _ = dblquad(
        lambda t, s: (2.0 * math.pi * (t - s)) ** -0.5,
        0.0, 1.0, lambda s: s, lambda s: 1.0,
    )
    return 2.0 * val


def test_field_masses_and_monotonicity():
    stream = RngStream(201, 0)
    T = [0.5, 1.0, 2.0]
    cum, inc = sample_local_time_fields(T, 4096, stream)
    for field, horizon in zip(cum, T):
        assert field.h * field.values.sum() == pytest.approx(horizon, rel=0.02)
    for a, b in zip(cum, cum[1:]):
        assert (b.values >= a.values).all()
    rebuilt = inc[0].values + inc[1].values + inc[2].values
    assert np.allclose(rebuilt, cum[-1].values)


def test_coinciding_marks_give_a_zero_increment():
    # floor(m T) is 1000 at both horizons, so the second segment of the
    # walk is empty (estimate_Mk with eps > 0 can draw such horizons)
    m = 1000
    cum, inc = sample_local_time_fields([1.0, 1.0004], m, RngStream(203, 0))
    assert not inc[1].values.any() and inc[1].values.size == inc[0].values.size
    assert np.array_equal(cum[0].values, cum[1].values)
    positions = _walk_positions(StepLaw.simple(), m, RngStream(203, 0))
    lo = int(positions.min())
    assert cum[0].origin == lo
    h = 1.0 / math.sqrt(m)
    assert np.array_equal(inc[0].values, np.bincount(positions - lo) * h)


def test_norm_matches_numerical_double_integral():
    oracle = expected_l2_norm_sq()
    assert oracle == pytest.approx(1.0638, abs=2e-4)
    root = RngStream(202, 0)
    vals = np.empty(1500)
    for i in range(1500):
        cum, _ = sample_local_time_fields([1.0], 1 << 14, root.substream(i))
        vals[i] = cum[0].norm2_sq()
    est = estimate_from_values(vals)
    assert abs(est.value - oracle) < 0.03


def test_gram_examples_and_hadamard():
    stream = RngStream(203, 0)
    cum, _ = sample_local_time_fields([1.0], 4096, stream)
    g1 = gram_of_fields(cum)
    assert g1.det == pytest.approx(cum[0].norm2_sq())
    dup = gram_of_fields([cum[0], cum[0]])
    assert dup.det <= 1e-10 * cum[0].norm2_sq() ** 2
    root = RngStream(204, 0)
    for i in range(10_000):
        _, inc = sample_local_time_fields([0.7, 1.3], 1024, root.substream(i))
        g = gram_of_fields(inc)
        diag = float(np.prod(np.diag(g.entries)))
        assert g.det <= diag * (1 + 1e-9)
        assert g.lambda_min >= 0.0


def test_grid_mismatch_rejected():
    c1, _ = sample_local_time_fields([1.0], 4096, RngStream(205, 0))
    c2, _ = sample_local_time_fields([1.0], 4096, RngStream(205, 1))
    if c1[0].origin == c2[0].origin and c1[0].values.size == c2[0].values.size:
        pytest.skip("grids coincide by chance")
    with pytest.raises(ValueError):
        gram_of_fields([c1[0], c2[0]])


def test_smallest_eigenvalue_is_variational_minimum():
    stream = RngStream(206, 0)
    _, inc = sample_local_time_fields([1.0, 2.0], 1 << 12, stream)
    g = gram_of_fields(scaled(inc, [1.0, 1.0]))
    rng = np.random.default_rng(1)
    best = np.inf
    for _ in range(1000):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        best = min(best, float(u @ g.entries @ u))
    assert best >= g.lambda_min - 1e-8
    assert best <= g.lambda_min * 1.2 + 1e-12  # random directions come close


def test_estimate_c_scaling_identity():
    ratios = {}
    for T in (0.25, 1.0, 4.0):
        res = estimate_C([T], 600, 1 << 13, RngStream(207, int(T * 100)))
        ratios[T] = (res.bound_ratio, res.bound_ratio_se)
    base, base_se = ratios[1.0]
    for T in (0.25, 4.0):
        val, se = ratios[T]
        assert abs(val - base) <= 3.0 * math.hypot(se, base_se)


def test_estimate_c_seed_consistency():
    a = estimate_C([1.0], 600, 1 << 13, RngStream(208, 0))
    b = estimate_C([1.0], 600, 1 << 13, RngStream(208, 999))
    se = math.hypot(a.estimate.std_error, b.estimate.std_error)
    assert abs(a.estimate.value - b.estimate.value) <= 3.0 * se


def test_small_ball_decay_of_min_eigenvalue():
    # desk-scale shadow of the super-polynomial small-ball bound
    root = RngStream(209, 0)
    replicas = 60_000
    vals = np.empty(replicas)
    for i in range(replicas):
        _, inc = sample_local_time_fields([1.0, 2.0], 1 << 13, root.substream(i))
        g = gram_of_fields(scaled(inc, [1.0, 1.0]))
        vals[i] = np.linalg.eigvalsh(g.entries)[0]
    hits = {eps: int((vals <= eps).sum()) for eps in (0.2, 0.1, 0.05)}
    assert hits[0.1] <= hits[0.2] / 8
    assert hits[0.05] <= max(hits[0.1] / 8, 1)


def test_besq0_absorption_and_atom():
    stream = RngStream(210, 0)
    assert besq0_step(0.0, 1.0, stream, size=1)[0] == 0.0
    draws = besq0_step(1.0, 1.0, stream, size=1_000_000)
    atom = float((draws == 0).mean())
    expect = besq0_extinction(1.0, 1.0)
    se = math.sqrt(expect * (1 - expect) / 1_000_000)
    assert abs(atom - expect) <= 3 * se


def test_besq0_positive_part_chi2_against_closed_form():
    stream = RngStream(211, 0)
    draws = besq0_step(1.0, 1.0, stream, size=1_000_000)
    pos = draws[draws > 0]
    edges = np.quantile(pos, np.linspace(0.0, 1.0, 51))
    edges[0], edges[-1] = 0.0, np.inf
    counts, _ = np.histogram(pos, bins=edges)
    probs = []
    for a, b in zip(edges[:-1], edges[1:]):
        hi = b if np.isfinite(b) else float(pos.max()) * 3
        v, _ = quad(lambda z: besq0_density(1.0, z, 1.0), a, hi, limit=200)
        probs.append(v)
    probs = np.asarray(probs)
    probs /= probs.sum()
    expected = probs * pos.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    pval = sps.chi2.sf(chi2, len(counts) - 1)
    assert pval > 1e-3


def test_besq0_chapman_kolmogorov():
    stream = RngStream(212, 0)
    one = besq0_step(1.0, 1.0, stream, size=100_000)
    half = besq0_step(1.0, 0.5, stream, size=100_000)
    two_step = np.array(
        [float(besq0_step(y, 0.5, stream, size=1)[0]) if y > 0 else 0.0
         for y in half[:100_000]]
    )
    assert sps.ks_2samp(one, two_step).statistic < 0.01


def test_total_integral_matches_hitting_time_law():
    stream = RngStream(213, 0)
    draws = besq0_total_integral(2.0, stream, size=1_000_000)
    # histogram bin around t = 1 against the closed-form density
    lo, hi = 0.95, 1.05
    f1 = hitting_time_density(2.0, np.array([1.0]))[0]
    assert f1 == pytest.approx(0.2420, abs=2e-4)
    frac = float(((draws >= lo) & (draws < hi)).mean())
    expect, _ = quad(lambda t: hitting_time_density(2.0, t), lo, hi)
    se = math.sqrt(expect * (1 - expect) / draws.size)
    assert abs(frac - expect) <= 3 * se
    # P(T <= 1) = P(|Z| >= 1)
    p = float((draws <= 1.0).mean())
    expect_p = 2.0 * sps.norm.sf(1.0)
    se_p = math.sqrt(expect_p * (1 - expect_p) / draws.size)
    assert abs(p - expect_p) <= 3 * se_p


def test_total_integral_brownian_scaling():
    s1 = RngStream(214, 0)
    s2 = RngStream(214, 1)
    base = besq0_total_integral(2.0, s1, size=100_000)
    big = besq0_total_integral(4.0, s2, size=100_000)
    assert sps.ks_2samp(4.0 * base, big).statistic < 0.01


def test_ray_knight_origin_value_tracks_level():
    m = 1 << 12
    for i in range(5):
        prof = ray_knight_profile(1.0, m, RngStream(215, i), horizon_cap=10 ** 8)
        assert abs(prof[0] - 1.0) <= 2 * m ** -0.25


def test_ray_knight_fast_agrees_with_direct_simulation():
    # seed chosen so no direct replica exceeds the cap
    m = 1 << 8
    offset = int(round(0.5 * math.sqrt(m)))
    slow, fast = [], []
    s1 = RngStream(216, 0)
    s2 = RngStream(217, 0)
    for i in range(1200):
        p1 = ray_knight_profile(1.0, m, s1.substream(i), horizon_cap=10 ** 8)
        slow.append(p1[offset] if offset < p1.size else 0.0)
        p2 = ray_knight_profile_fast(1.0, m, s2.substream(i))
        fast.append(p2[offset] if offset < p2.size else 0.0)
    stat = sps.ks_2samp(slow, fast).statistic
    assert stat < 1.9495 * math.sqrt(2 / 1200)


def test_ray_knight_profile_vs_besq_marginal():
    m = 1 << 14
    offset = int(round(0.5 * math.sqrt(m)))
    root = RngStream(218, 0)
    vals = np.empty(4000)
    for i in range(4000):
        prof = ray_knight_profile_fast(1.0, m, root.substream(i))
        vals[i] = prof[offset] if offset < prof.size else 0.0
    other = besq0_step(1.0, 0.5, RngStream(219, 0), size=4000)
    assert sps.ks_2samp(vals, other).statistic < 0.02


def test_ray_knight_cap_raises():
    with pytest.raises(BudgetExceededError):
        # cap far below the typical stopping time forces the error
        ray_knight_profile(1.0, 1 << 14, RngStream(220, 0), horizon_cap=100)


def test_exit_local_time_is_exponential():
    # acceptance runs the strict 0.02 bound at 10^4 replicas and m = 2^14;
    # here a reduced scale with the matching noise-floor threshold
    m = 1 << 14
    root = RngStream(221, 0)
    vals = np.array(
        [origin_local_time_at_range_exit(m, root.substream(i)) for i in range(3000)]
    )
    assert sps.kstest(vals, "expon").statistic < 0.03
    assert abs(vals.mean() - 1.0) < 0.06


def next_draws(stream):
    return stream.gen.integers(0, 2, size=3).tolist(), stream.gen.standard_normal()


@pytest.mark.parametrize("total", [1, 2, 3, 1000, 1001, (1 << 22) + 3])
def test_embedded_walk_equals_pre_fold_loop(total):
    # the one walk builder draws the embedded walk as the chunked loop of
    # one bit per step does, on a fresh stream and after a buffered half
    for buffered in (False, True):
        a, b = RngStream(222, total), RngStream(222, total)
        if buffered:
            a.gen.integers(0, 2, size=1)
            b.gen.integers(0, 2, size=1)
        assert np.array_equal(_walk_positions(StepLaw.simple(), total, a),
                              embedded_positions_by_loop(total, b))
        assert next_draws(a) == next_draws(b)


@pytest.mark.parametrize("fineness", [1 << 10, 1 << 14])
def test_range_exit_equals_pre_fold_loop(fineness):
    root = RngStream(223, fineness)
    for i in range(200):
        a, b = root.substream(i), root.substream(i)
        assert origin_local_time_at_range_exit(fineness, a) == \
            origin_local_time_at_range_exit_by_loop(fineness, b)
        assert next_draws(a) == next_draws(b)
