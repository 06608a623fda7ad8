"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Runs the full-scale experiments with pinned tolerances.  Shared Brownian
constants are computed once per session.  Expect a few minutes of runtime;
every test prints `[criterion N] PASS/FAIL` with the measured numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import quad

from rwrs import brownian, delta_process
from rwrs.simkit import RngStream, estimate_from_values
from rwrs.lattice_walk import StepLaw, simulate_local_times
from rwrs.scenery import SceneryLaw
from rwrs.exact_oracle import exact_joint_return
from rwrs import harness

STEP = StepLaw.simple()
RAD = SceneryLaw.rademacher()
FINE = 1 << 16


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def inv_norm():
    """E[1 / ||L_1||] at fineness 2^16 with its standard error."""
    root = RngStream(9001, 0)
    vals = np.empty(4000)
    for i in range(4000):
        cum, _ = brownian.sample_local_time_fields([1.0], FINE, root.substream(i))
        vals[i] = cum[0].norm2_sq() ** -0.5
    return estimate_from_values(vals, 9001)


@pytest.fixture(scope="module")
def return_curve_full():
    """Criterion-2 curve: n in 2^10..2^15, 1e4 conditional replicas per n."""
    started = time.time()
    n_list = [1 << j for j in range(10, 16)]
    ests, fit = harness.estimate_return_curve(
        STEP, RAD, n_list, k=1, walk_replicas=10_000,
        stream=RngStream(9002, 0),
    )
    return n_list, ests, fit, time.time() - started


@pytest.fixture(scope="module")
def m2_zero():
    """Moment functional at k=2 without regularization."""
    res = delta_process.estimate_Mk(2, 1.0, 4000, 1 << 14, RngStream(9003, 0))
    return res.estimate


def test_criterion_1_exact_oracle_gate():
    started = time.time()
    stream = RngStream(9101, 0)
    details = []
    ok = True
    for idx, n in enumerate((2, 4, 6, 8, 10, 12)):
        ests, _ = harness.estimate_return_curve(
            STEP, RAD, [n], walk_replicas=2000, stream=stream.substream(idx)
        )
        est = ests[0]
        exact = exact_joint_return(STEP, RAD, [n]).value
        tol = max(3 * est.std_error, 1e-12)
        ok &= abs(est.value - exact) <= tol
        if n == 2:
            ok &= est.value == 0.5 and exact == 0.5
        details.append(f"n={n}: {est.value:.5f} vs exact {exact:.5f}")
    for n in (3, 5, 7, 9, 11):
        exact = exact_joint_return(STEP, RAD, [n])
        profiles = simulate_local_times(STEP, [n], stream.substream(100 + n))
        from rwrs.scenery import conditional_return_prob

        ok &= exact.value == 0.0 and conditional_return_prob(profiles, RAD) == 0.0
    elapsed = time.time() - started
    ok &= elapsed < 60.0
    report(1, ok, f"{'; '.join(details[:3])}...; odd-n all exact zeros; "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_return_curve_exponent(return_curve_full):
    n_list, ests, fit, elapsed = return_curve_full
    ok = abs(fit.slope + 0.75) <= 0.04 and elapsed < 600.0
    report(2, ok, f"slope {fit.slope:.4f} (target -0.75 +- 0.04), "
                  f"ci {fit.slope_ci:.4f}, runtime {elapsed:.0f}s < 600s")


def test_criterion_3_return_curve_constant(return_curve_full, inv_norm):
    n_list, ests, _, _ = return_curve_full
    n = n_list[-1]
    walk = ests[-1]
    walk_const = walk.value * n ** 0.75
    walk_se = walk.std_error * n ** 0.75
    limit_const = 2.0 / math.sqrt(2 * math.pi) * inv_norm.value  # d=2, sigma=1
    limit_se = 2.0 / math.sqrt(2 * math.pi) * inv_norm.std_error
    se = math.hypot(walk_se, limit_se)
    ok = abs(walk_const - limit_const) <= 3 * se
    report(3, ok, f"walk n^3/4 P = {walk_const:.4f} +- {walk_se:.4f} vs "
                  f"d/sigma (2pi)^-1/2 E[1/||L||] = {limit_const:.4f} +- "
                  f"{limit_se:.4f} ({abs(walk_const-limit_const)/se:.2f} sigma)")


def test_criterion_4_joint_return_and_uniformity():
    n_list = [1 << j for j in range(8, 13)]
    _, fit = harness.estimate_return_curve(
        STEP, RAD, n_list, k=2, T_ratios=(1, 2), walk_replicas=1500,
        stream=RngStream(9104, 0),
    )
    slope_ok = abs(fit.slope + 1.5) <= 0.08
    values, peak = harness.uniformity_shadow(
        STEP, RAD, 1 << 14, 300, RngStream(9105, 0), grid_points=4
    )
    budget = 4.0
    ok = slope_ok and peak <= budget
    report(4, ok, f"k=2 slope {fit.slope:.4f} (target -1.5 +- 0.08); "
                  f"uniformity peak {peak:.3f} <= budget {budget}")


def test_criterion_5_increment_correlation():
    lhs, rhs = harness.correlation_ratio(
        1 << 12, 1.0, 5000, RngStream(9106, 0), fineness=1 << 14,
        scenery_draws=128,
    )
    se = math.hypot(lhs.std_error, rhs.std_error)
    match = abs(lhs.value - rhs.value) <= 3 * se
    above = lhs.value - 3 * lhs.std_error > 1.0 and rhs.value - 3 * rhs.std_error > 1.0
    report(5, match and above,
           f"lhs {lhs.value:.4f}+-{lhs.std_error:.4f} vs rhs {rhs.value:.4f}"
           f"+-{rhs.std_error:.4f} ({abs(lhs.value-rhs.value)/se:.2f} sigma); "
           f"both CIs exclude 1 from below: {above}")


def test_criterion_6_gram_functional_bounds(inv_norm):
    ratios = {}
    for T in (0.25, 1.0, 4.0):
        res = brownian.estimate_C([T], 2000, FINE,
                                  RngStream(9107, int(T * 100)))
        ratios[T] = res
    base = ratios[1.0]
    scaling_ok = all(
        abs(ratios[T].bound_ratio - base.bound_ratio)
        <= 3 * math.hypot(ratios[T].bound_ratio_se, base.bound_ratio_se)
        for T in (0.25, 4.0)
    )
    low = inv_norm.value ** 2
    band_ok = True
    rejections = 0
    for idx, Ts in enumerate(([1.0, 2.0], [0.5, 1.0], [1.0, 4.0],
                              [0.25, 1.0], [2.0, 3.0])):
        res = brownian.estimate_C(Ts, 1200, FINE, RngStream(9108, idx))
        band_ok &= low - 3 * res.bound_ratio_se <= res.bound_ratio <= 10 * low
        rejections += res.rejected
    ok = scaling_ok and band_ok and rejections == 0
    report(6, ok, f"k=1 bound ratios {[round(ratios[T].bound_ratio, 4) for T in (0.25, 1.0, 4.0)]} "
                  f"agree; k=2 ratios within [{low:.3f}, {10*low:.3f}]; "
                  f"rejected {rejections} near-singular samples (< 0.1%)")


def test_criterion_7_counting_moments(m2_zero):
    n_list = [1 << j for j in range(10, 17)]
    tol = {1: 0.04, 2: 0.06, 3: 0.08}
    slopes = {}
    amplitude = None
    for k in (1, 2, 3):
        curve = harness.counting_moment_curve(
            STEP, RAD, k, n_list, 6000, RngStream(9109, k)
        )
        slopes[k] = curve.fit.slope
        if k == 1:
            amplitude = (curve.amplitude, curve.amplitude_se)
    slope_ok = all(abs(slopes[k] - k / 4.0) <= tol[k] for k in (1, 2, 3))
    m1 = delta_process.estimate_Mk(1, 1.0, 4000, FINE, RngStream(9110, 0))
    # d/(sigma d0) = 1 for the simple walk with Rademacher scenery
    se = math.hypot(amplitude[1], m1.estimate.std_error)
    const_ok = abs(amplitude[0] - m1.estimate.value) <= 3 * se
    report(7, slope_ok and const_ok,
           f"slopes {slopes[1]:.3f}/{slopes[2]:.3f}/{slopes[3]:.3f} vs k/4 "
           f"within {tuple(tol.values())}; amplitude {amplitude[0]:.4f}+-"
           f"{amplitude[1]:.4f} vs M_1,1 {m1.estimate.value:.4f} "
           f"({abs(amplitude[0]-m1.estimate.value)/se:.2f} sigma)")


def test_criterion_8_joint_gram_convergence():
    reports = harness.gram_convergence_test(
        STEP, 1 << 16, [1.0, 2.0], 10_000, FINE, RngStream(9111, 0),
        threshold=0.03,
    )
    ok = all(r.verdict for r in reports)
    detail = ", ".join(f"{r.name}: KS {r.value:.4f}" for r in reports)
    report(8, ok, f"{detail} all below 0.03 at 1e4 samples")


def test_criterion_9_squared_bessel_suite():
    draws = 10 ** 6
    stream = RngStream(9112, 0)
    out = brownian.besq0_step(1.0, 1.0, stream, size=draws)
    atom = float((out == 0).mean())
    expect = brownian.besq0_extinction(1.0, 1.0)
    atom_se = math.sqrt(expect * (1 - expect) / draws)
    atom_ok = abs(atom - expect) <= 3 * atom_se

    pos = out[out > 0]
    edges = np.quantile(pos, np.linspace(0.0, 1.0, 51))
    edges[0], edges[-1] = 0.0, np.inf
    counts, _ = np.histogram(pos, bins=edges)
    probs = []
    for a, b in zip(edges[:-1], edges[1:]):
        hi = b if np.isfinite(b) else float(pos.max()) * 3
        v, _ = quad(lambda z: brownian.besq0_density(1.0, z, 1.0), a, hi,
                    limit=200)
        probs.append(v)
    probs = np.asarray(probs)
    probs /= probs.sum()
    chi2 = float((((counts - probs * pos.size) ** 2) / (probs * pos.size)).sum())
    pval = float(sps.chi2.sf(chi2, len(counts) - 1))
    chi_ok = pval > 1e-3

    ti = brownian.besq0_total_integral(2.0, RngStream(9113, 0), size=draws)
    f1 = brownian.hitting_time_density(2.0, np.array([1.0]))[0]
    bin_lo, bin_hi = 0.95, 1.05
    frac = float(((ti >= bin_lo) & (ti < bin_hi)).mean())
    expect_bin, _ = quad(lambda t: brownian.hitting_time_density(2.0, t),
                         bin_lo, bin_hi)
    bin_se = math.sqrt(expect_bin * (1 - expect_bin) / draws)
    hit_ok = abs(frac - expect_bin) <= 3 * bin_se and abs(f1 - 0.2420) < 5e-4

    m = FINE
    offset = int(round(0.5 * math.sqrt(m)))
    root = RngStream(9114, 0)
    rk = np.empty(10_000)
    for i in range(10_000):
        prof = brownian.ray_knight_profile_fast(1.0, m, root.substream(i))
        rk[i] = prof[offset] if offset < prof.size else 0.0
    bq = brownian.besq0_step(1.0, 0.5, RngStream(9115, 0), size=10_000)
    rk_stat = float(sps.ks_2samp(rk, bq).statistic)
    rk_ok = rk_stat < 0.02

    root = RngStream(9116, 0)
    exit_vals = np.array(
        [brownian.origin_local_time_at_range_exit(1 << 14, root.substream(i))
         for i in range(10_000)]
    )
    exp_stat = float(sps.kstest(exit_vals, "expon").statistic)
    exp_ok = exp_stat < 0.02

    ok = atom_ok and chi_ok and hit_ok and rk_ok and exp_ok
    report(9, ok, f"extinction dev {abs(atom-expect)/atom_se:.2f} sigma; "
                  f"chi2 p={pval:.3f} > 1e-3; f_2(1)={f1:.4f} bin dev "
                  f"{abs(frac-expect_bin)/bin_se:.2f} sigma; Ray-Knight KS "
                  f"{rk_stat:.4f} < 0.02; Exp(1) KS {exp_stat:.4f} < 0.02")


def test_criterion_10_delta_local_time(m2_zero):
    ks_ok = True
    ks_vals = {}
    for T in (0.5, 2.0):
        rep = harness.scaling_law_test(T, 10_000, RngStream(9117, int(T * 2)),
                                       eps=0.05, fineness=1 << 12, dt=2.0 ** -9,
                                       threshold=0.03)
        ks_vals[T] = rep.value
        ks_ok &= rep.verdict

    root = RngStream(9118, 0)
    paths = [delta_process.sample_delta_path(1.0, 2.0 ** -12, 1 << 14,
                                             root.substream(i))
             for i in range(800)]
    eps = 1e-4
    lags = [2.0 ** -j for j in range(3, 9)]
    space_pts, time_pts = [], []
    for lag in lags:
        sdiff = np.array([
            np.subtract(*delta_process.mollified_values(p, eps, 1.0, [0.0, lag])) ** 2
            for p in paths
        ])
        tdiff = np.array([
            (delta_process.mollified_values(p, eps, 0.5 + lag, [0.0])[0]
             - delta_process.mollified_values(p, eps, 0.5, [0.0])[0]) ** 2
            for p in paths
        ])
        se_s = estimate_from_values(sdiff, 0)
        se_t = estimate_from_values(tdiff, 0)
        space_pts.append((1.0 / lag, se_s.value, se_s.std_error))
        time_pts.append((1.0 / lag, se_t.value, se_t.std_error))
    space_slope = -harness.fit_power_law(space_pts).slope
    time_slope = -harness.fit_power_law(time_pts).slope
    holder_ok = space_slope >= 0.30 and time_slope >= 0.45

    occ_lhs = occ_rhs = 0.0
    for p in paths[:500]:
        lhs, rhs = delta_process.occupation_comparison(p, 1.0, -0.05, 0.05, eps)
        occ_lhs += lhs
        occ_rhs += rhs
    occ_ok = abs(occ_lhs - occ_rhs) <= 0.05 * occ_lhs

    # moment identity at matched regularization: both Monte Carlo routes
    # estimate the same mollified second moment, and the mollified values
    # increase toward the unregularized moment functional from below
    trend = []
    ident_ok = True
    for eps_m in (0.05, 0.025):
        vals = np.array([
            delta_process.mollified_values(p, eps_m, 1.0, [0.0])[0] ** 2
            for p in paths
        ])
        lhs = estimate_from_values(vals, 9118)
        rhs = delta_process.estimate_Mk(2, 1.0, 4000, 1 << 14,
                                        RngStream(9119, int(eps_m * 1000)),
                                        eps=eps_m)
        se = math.hypot(lhs.std_error, rhs.estimate.std_error)
        ident_ok &= abs(lhs.value - rhs.estimate.value) <= 3 * se
        trend.append(lhs.value)
    trend_ok = trend[0] < trend[1] < m2_zero.value + 3 * m2_zero.std_error

    ok = ks_ok and holder_ok and occ_ok and ident_ok and trend_ok
    report(10, ok, f"scaling KS {ks_vals[0.5]:.4f}/{ks_vals[2.0]:.4f} < 0.03; "
                   f"Hoelder slopes space {space_slope:.3f} >= 0.30, time "
                   f"{time_slope:.3f} >= 0.45; occupation rel dev "
                   f"{abs(occ_lhs-occ_rhs)/occ_lhs:.4f} < 0.05; mollified "
                   f"moment identity at eps 0.05/0.025 within 3 sigma, "
                   f"increasing toward M_2 = {m2_zero.value:.3f}")


def test_criterion_11_level_set_boxcount():
    scales = [2.0 ** -j for j in range(7, 15)]
    rng = np.random.default_rng(9120)
    n = 1 << 18
    dt = 1.0 / n
    bm_slopes = []
    for _ in range(100):
        incr = rng.standard_normal(n) * math.sqrt(dt)
        vals = np.concatenate([[0.0], np.cumsum(incr)])
        path = delta_process.DeltaPath(np.arange(n + 1) * dt, vals, dt, n, None)
        bm_slopes.append(delta_process.zero_set_boxcount(path, scales,
                                                         hurst=0.5).slope)
    bm_mean = float(np.mean(bm_slopes))
    calib_ok = abs(bm_mean - 0.5) <= 0.05

    root = RngStream(9121, 0)
    slopes = []
    for i in range(100):
        path = delta_process.sample_delta_path(1.0, 2.0 ** -16, 1 << 16,
                                               root.substream(i))
        slopes.append(delta_process.zero_set_boxcount(path, scales).slope)
    mean = float(np.mean(slopes))
    ok = calib_ok and abs(mean - 0.25) <= 0.05
    report(11, ok, f"Brownian calibration {bm_mean:.4f} (0.5 +- 0.05); "
                   f"scenery-integral slope {mean:.4f} (0.25 +- 0.05)")


def test_criterion_12_byte_identical_reruns(tmp_path):
    from rwrs.cli import main

    cfg = tmp_path / "acc.ini"
    cfg.write_text(
        "[experiment]\nsubcommand = return-curve\n\n"
        "[laws]\nstep = simple\nscenery = rademacher\n\n"
        "[params]\nn_list = 64 128 256\nk = 1\n\n"
        "[run]\nseed = 424242\nreplicas = 300\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    b1 = (out1 / "results.csv").read_bytes()
    b2 = (out2 / "results.csv").read_bytes()
    j1 = (out2 / "report.json").read_bytes()
    ok = b1 == b2 and len(j1) > 0
    report(12, ok, f"results.csv byte-identical across reruns "
                   f"({len(b1)} bytes)")
