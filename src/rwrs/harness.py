"""End-to-end estimators: return curves, exponent fits, convergence tests.

Everything here reduces to one of two pipelines: average an exact
conditional probability over walk replicas (discrete side), or average a
functional of sampled local-time fields (continuum side), then compare
through power-law fits or two-sample distribution tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import brownian, delta_process
from .errors import DegenerateRatioError
from .lattice_walk import _segment_counts, _walk_positions, simulate_local_times
from .scenery import ReturnProbTable, _check_exact_residuals, joint_return_prob_sampled
from .simkit import Estimate, estimate_from_values, replicate

__all__ = [
    "ScalingFit",
    "TestReport",
    "fit_power_law",
    "estimate_return_curve",
    "correlation_ratio",
    "counting_moment_curve",
    "CountingCurve",
    "gram_convergence_test",
    "scaling_law_test",
    "uniformity_shadow",
    "ks_threshold",
]


@dataclass(frozen=True)
class ScalingFit:
    """Weighted least-squares line in log-log coordinates."""

    slope: float
    intercept: float
    slope_ci: float
    r2: float


@dataclass(frozen=True)
class TestReport:
    """One named distribution-test outcome against a fixed threshold."""

    name: str
    statistic: str
    value: float
    n1: int
    n2: int
    threshold: float
    verdict: bool


_KS_ALPHA = 1e-3


def ks_threshold(n1, n2):
    """Asymptotic two-sample KS quantile at level `_KS_ALPHA`."""
    c = math.sqrt(-math.log(_KS_ALPHA / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    Equal bit for bit to `scipy.stats.ks_2samp(a, b).statistic` (scipy
    1.17.1, two-sided, default method) for non-empty samples without NaN,
    so the package need not import `scipy.stats`.  Up to 10000 values per
    side scipy rounds the statistic to the lattice of multiples of
    1 / lcm(n1, n2) before its exact p-value, and keeps the rounded value
    even when that p-value fails; the rounding is repeated here.
    """
    a = np.sort(a)
    b = np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    both = np.concatenate([a, b])
    diff = (np.searchsorted(a, both, side="right") / n1
            - np.searchsorted(b, both, side="right") / n2)
    min_s = np.clip(-diff[np.argmin(diff)], 0, 1)
    max_s = diff[np.argmax(diff)]
    d = min_s if min_s > max_s else max_s
    if max(n1, n2) <= 10000:
        lcm = (n1 // math.gcd(n1, n2)) * n2
        d = int(np.round(d * lcm)) * 1.0 / lcm
    return float(d)


def _ks_report(name, a, b, threshold=None):
    """Two-sample KS report of `a` against `b`.

    The threshold defaults to the asymptotic quantile `ks_threshold` of
    the two sample sizes.
    """
    n1, n2 = len(a), len(b)
    stat = _ks_statistic(a, b)
    thr = float(ks_threshold(n1, n2) if threshold is None else threshold)
    return TestReport(name, "KS", stat, n1, n2, thr, stat <= thr)


def fit_power_law(points):
    """Weighted log-log least squares over (n, value, std_error) triples.

    Weights are inverse squared relative errors (the delta-method variance
    of log value); points without an error get equal weight.
    """
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    xs, ys, ws = [], [], []
    for n, value, se in points:
        if value <= 0 or n <= 0:
            raise ValueError("power-law fit needs positive abscissae and values")
        xs.append(math.log(n))
        ys.append(math.log(value))
        ws.append((value / se) ** 2 if se else 1.0)
    x = np.array(xs)
    y = np.array(ys)
    w = np.array(ws)
    sw = w.sum()
    xbar = float(np.dot(w, x) / sw)
    ybar = float(np.dot(w, y) / sw)
    sxx = float(np.dot(w, (x - xbar) ** 2))
    if sxx == 0:
        raise ValueError("abscissae are all equal")
    slope = float(np.dot(w, (x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    ssr = float(np.dot(w, resid ** 2))
    syy = float(np.dot(w, (y - ybar) ** 2))
    dof = len(points) - 2
    s2 = ssr / dof if dof > 0 else 0.0
    ci = 1.96 * math.sqrt(s2 / sxx)
    r2 = 1.0 if syy == 0 else 1.0 - ssr / syy
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        slope_ci=ci,
        r2=r2,
    )


def _round_admissible(value, d0):
    """Largest multiple of d0 at most value (at least d0)."""
    return max(d0, (int(value) // d0) * d0)


def _joint_times(n, T_ratios, d0):
    """Times [n * T_r] rounded down to multiples of d0; they must increase."""
    times = [_round_admissible(n * r, d0) for r in T_ratios]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"T ratios collapse after admissible rounding: the "
                         f"times at n = {n} are {times} (d0 = {d0})")
    return times


def _return_values_k1(step, scen, n, replicas, stream):
    """Per-replica P(Z_n = 0 | walk) at every n: one `ReturnProbTable` batch."""
    profiles = replicate(lambda sub: simulate_local_times(step, [n], sub)[0],
                         replicas, stream)
    return ReturnProbTable(scen).evaluate(profiles)


def _return_values_joint(step, scen, times, replicas, stream, scenery_draws):
    def task(sub):
        profiles = simulate_local_times(step, times, sub)
        return joint_return_prob_sampled(
            profiles, scen, sub.substream(1 << 40), scenery_draws=scenery_draws
        )

    return replicate(task, replicas, stream)


def estimate_return_curve(step, scen, n_list, T_ratios=None,
                          walk_replicas=1000, *, stream, scenery_draws=64):
    """Conditional-estimator return probabilities over n with a log-log fit.

    The number of return times k is len(T_ratios), or 1 without ratios.
    For k >= 2 the joint times are [n * T_r] rounded down to multiples of
    d0 (the probability is identically zero off that lattice, so requested
    times must land on it).
    """
    d0 = scen.d0
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    for n in n_list:
        if n % d0:
            raise ValueError(
                f"n={n} violates the d0-divisibility constraint (d0={d0}); "
                "the return probability is exactly 0 there"
            )
    k = 1 if T_ratios is None else len(T_ratios)
    if k > 1:  # the longest walk, before any is drawn
        _check_exact_residuals(scen, _joint_times(n_list[-1], T_ratios, d0)[-1])
    estimates = []
    for idx, n in enumerate(n_list):
        sub = stream.substream(idx)
        if k == 1:
            vals = _return_values_k1(step, scen, n, walk_replicas, sub)
        else:
            vals = _return_values_joint(step, scen, _joint_times(n, T_ratios, d0),
                                        walk_replicas, sub, scenery_draws)
        estimates.append(estimate_from_values(vals))
    fit = None
    if len(n_list) >= 3:
        fit = fit_power_law(
            [(n, e.value, e.std_error) for n, e in zip(n_list, estimates)]
        )
    return estimates, fit


def _ratio_estimate(num, denoms):
    """Delta-method ratio of independent estimates num / prod(denoms)."""
    for d in denoms:
        if d.value <= 3.0 * d.std_error:
            raise DegenerateRatioError("ratio denominator consistent with zero")
    value = num.value
    rel2 = (num.std_error / num.value) ** 2 if num.value else 0.0
    for d in denoms:
        value /= d.value
        rel2 += (d.std_error / d.value) ** 2
    return Estimate(value, abs(value) * math.sqrt(rel2))


def correlation_ratio(n, t_ratio, replicas, stream, step, scen,
                      fineness=1 << 14, scenery_draws=64):
    """Both sides of the conditional-return correlation limit.

    lhs: P(increment returns | already at zero) over P(increment returns),
    from walk simulation with conditional evaluation.  rhs: the Gram-
    functional ratio over two independent Brownian local-time fields, of
    horizons 1 and m/n: E[det^(-1/2)] of their Gram matrix over
    E[(||L||^2 ||L~||^2)^(-1/2)] of its diagonal.  The numerator rejects
    singular samples by the rule of `brownian.estimate_C`.  Both sides are
    reported with delta-method uncertainties.
    """
    d0 = scen.d0
    n = _round_admissible(n, d0)
    m = _round_admissible(n * t_ratio, d0)
    _check_exact_residuals(scen, n + m)
    joint_vals = _return_values_joint(step, scen, [n, n + m], replicas,
                                      stream.substream(1), scenery_draws)
    p_n = estimate_from_values(
        _return_values_k1(step, scen, n, replicas, stream.substream(2)))
    p_m = estimate_from_values(
        _return_values_k1(step, scen, m, replicas, stream.substream(3)))
    joint = estimate_from_values(joint_vals)
    lhs = _ratio_estimate(joint, [p_n, p_m])

    def pair_gram(sub):
        (f,), _ = brownian.sample_local_time_fields([1.0], fineness, sub.substream(0))
        (g,), _ = brownian.sample_local_time_fields([m / n], fineness, sub.substream(1))
        return brownian.gram_of_fields([f, g])

    def num_task(sub):
        det = pair_gram(sub).det
        return det ** -0.5 if det > 0 else np.nan

    def den_task(sub):
        entries = pair_gram(sub).entries
        return (entries[0, 0] * entries[1, 1]) ** -0.5

    num, _ = brownian._estimate_nonsingular(
        replicate(num_task, replicas, stream.substream(4)))
    den = estimate_from_values(replicate(den_task, replicas, stream.substream(5)))
    rhs = _ratio_estimate(num, [den])
    return lhs, rhs


@dataclass(frozen=True)
class CountingCurve:
    """Zero-count moment estimates with slope fit and amplitude extraction."""

    estimates: tuple
    fit: ScalingFit
    amplitude: float
    amplitude_se: float


def _zero_count_trajectory(step, scen, marks, stream):
    """Counts of m <= mark with Z_m = 0, at each requested mark."""
    positions = _walk_positions(step, marks[-1], stream)
    lo = int(positions.min())
    width = int(positions.max()) - lo + 1
    xi = scen.sample(stream, width)
    z = np.cumsum(xi[positions - lo])
    zero_prefix = np.cumsum(z == 0)
    return zero_prefix[np.asarray(marks) - 1]


def counting_moment_curve(step, scen, k, n_list, replicas, stream):
    """Direct-counting moments of the zero-visit count with their scaling fit.

    The n_list must increase (ValueError, before any walk, otherwise).
    One trajectory of length max(n_list) serves every mark, and its int64
    running sum of Z needs max|x| * max(n_list) < 2**63 (ValueError, before
    any walk, otherwise).  The amplitude reported for the n^{k/4} law comes
    from a two-parameter fit A n^{k/4} + B, which absorbs the additive
    lattice-sum correction that otherwise contaminates the constant at
    desk-scale n.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing")
    if scen.max_value * max(n_list) >= 2 ** 63:
        raise ValueError(f"max|x| * max(n_list) = {scen.max_value} * {max(n_list)} "
                         "reaches 2**63, the bound of the int64 running sum of Z")
    marks = np.asarray(n_list)

    def moments(sub):
        counts = _zero_count_trajectory(step, scen, n_list, sub)
        return counts.astype(np.float64) ** k

    samples = replicate(moments, replicas, stream)
    estimates = [
        estimate_from_values(samples[:, j])
        for j in range(len(n_list))
    ]
    for n, e in zip(n_list, estimates):
        if e.std_error ** 2 == 0.0:
            raise DegenerateRatioError(
                f"n = {n}: every replica gives the same count, so the "
                "amplitude fit has no finite 1/se^2 weight for it")
    fit = None
    if len(n_list) >= 3:
        fit = fit_power_law(
            [(n, e.value, e.std_error) for n, e in zip(n_list, estimates)]
        )
    # two-parameter amplitude fit: E ~ A n^{k/4} + B, weighted by 1/se^2
    xs = marks.astype(np.float64) ** (k / 4.0)
    ys = np.array([e.value for e in estimates])
    ws = np.array([1.0 / e.std_error ** 2 for e in estimates])
    sw, sx = ws.sum(), float(np.dot(ws, xs))
    sxx = float(np.dot(ws, xs * xs))
    sy, sxy = float(np.dot(ws, ys)), float(np.dot(ws, xs * ys))
    det = sw * sxx - sx * sx
    amplitude = (sw * sxy - sx * sy) / det
    amplitude_var = sw / det
    resid = ys - amplitude * xs - (sy - amplitude * sx) / sw
    dof = max(len(n_list) - 2, 1)
    scale = float(np.dot(ws, resid ** 2)) / dof
    return CountingCurve(
        estimates=tuple(estimates),
        fit=fit,
        amplitude=float(amplitude),
        amplitude_se=float(math.sqrt(amplitude_var * max(scale, 1.0))),
    )


def _walk_gram_samples(step, n, T_list, replicas, stream):
    """Samples of sigma_S * n^{-3/2} <N_[nTi], N_[nTj]> for every pair."""
    marks = [int(math.floor(n * t)) for t in T_list]
    sigma = math.sqrt(step.variance)

    def task(sub):
        positions = _walk_positions(step, marks[-1], sub)
        # cumulative visit counts N_[nTi] and their inner products, exact
        # in integers
        counts = np.cumsum(_segment_counts(positions, marks)[1], axis=0)
        return sigma * (counts @ counts.T) * n ** -1.5

    return replicate(task, replicas, stream)


def gram_convergence_test(step, n, T_list, replicas, fineness, stream,
                          threshold=None):
    """Entrywise two-sample KS: walk inner products vs Brownian Gram samples."""
    walk = _walk_gram_samples(step, n, T_list, replicas, stream.substream(0))
    k = len(T_list)

    def brownian_task(sub):
        cum, _ = brownian.sample_local_time_fields(T_list, fineness, sub)
        return brownian.gram_of_fields(cum).entries

    bro = replicate(brownian_task, replicas, stream.substream(1))
    return [_ks_report(f"gram[{i},{j}]", walk[:, i, j], bro[:, i, j], threshold)
            for i in range(k) for j in range(i, k)]


def scaling_law_test(T, replicas, stream, eps=0.05, fineness=1 << 12,
                     dt=2.0 ** -9, threshold=None):
    """KS check of the local-time scaling identity between horizons T and 1."""
    if T <= 0:
        raise ValueError("T must be positive")

    def task_a(sub):
        pa = delta_process.sample_delta_path(T, dt, fineness, sub)
        return delta_process.mollified_values(pa, eps * T ** 1.5, T, [0.0])[0]

    def task_b(sub):
        pb = delta_process.sample_delta_path(1.0, dt, fineness, sub)
        return T ** 0.25 * delta_process.mollified_values(pb, eps, 1.0, [0.0])[0]

    side_a = replicate(task_a, replicas, stream.substream(0))
    side_b = replicate(task_b, replicas, stream.substream(1))
    return _ks_report(f"scaling[T={T}]", side_a, side_b, threshold)


def uniformity_shadow(step, scen, n, replicas, stream, grid_points=4,
                      scenery_draws=64):
    """Max of joint-return estimates times (n1 n2)^{3/4} over a time grid.

    Times sweep [n^(1/2), n] geometrically (rounded to the d0 lattice); a
    bounded maximum is the desk-scale shadow of the uniform local-limit
    bound.
    """
    d0 = scen.d0
    lo = n ** 0.5
    ratios = np.geomspace(lo, n, grid_points)
    values = []
    for i1, r1 in enumerate(ratios):
        n1 = _round_admissible(r1, d0)
        for i2, r2 in enumerate(ratios):
            n2 = _round_admissible(r2, d0)
            sub = stream.substream(i1 * grid_points + i2)
            vals = _return_values_joint(step, scen, [n1, n1 + n2], replicas, sub,
                                        scenery_draws)
            est = estimate_from_values(vals)
            values.append((n1, n2, est.value * (n1 * n2) ** 0.75,
                           est.std_error * (n1 * n2) ** 0.75))
    peak = max(v[2] for v in values)
    return values, peak
