"""Test-side helpers and independent samplers for the library modules.

Only the tests call these: profile algebra and statistics of one walk,
scenery evaluation with an explicit or sampled scenery, the tightness and
agreement helpers of the harness, a bound on the mollified local time's
increase, and `sample_delta_marginal`, a sampler coded independently of
`delta_process.sample_delta_path` so that the two can be compared.
"""

import math
from dataclasses import dataclass

import numpy as np

from rwrs.brownian import gram_of_fields, sample_local_time_fields
from rwrs.harness import _zero_count_trajectory
from rwrs.lattice_walk import LocalTimeProfile, _segment_profiles
from rwrs.scenery import _union_counts
from rwrs.simkit import estimate_from_values, replicate


@dataclass(frozen=True)
class ProfileStats:
    """Range, sup and discrete 1/2-Hoelder statistic of one profile."""

    range_size: int
    sup_count: int
    holder_half: float


def profiles_from_steps(steps, breakpoints, start=0):
    """Segment local-time profiles of the walk realized by `steps`.

    Positions are S_0 = start, S_1, ..., S_{B-1} with B the last breakpoint;
    segment i covers times [b_{i-1}, b_i).
    """
    steps = np.asarray(steps, dtype=np.int64)
    breakpoints = list(breakpoints)
    total = breakpoints[-1]
    if steps.size < total - 1:
        raise ValueError("not enough steps for the requested breakpoints")
    positions = start + np.concatenate(([0], np.cumsum(steps[: total - 1])))
    return _segment_profiles(positions, breakpoints)


def mutual_inner(p, q):
    """Sum over sites of p(y) * q(y); symmetric, nonnegative integer."""
    common, ip, iq = np.intersect1d(
        p.sites, q.sites, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return 0
    return int(np.dot(p.counts[ip], q.counts[iq]))


def merge_profiles(p, q):
    """Profile of the concatenated walk segments (counts add sitewise)."""
    sites = np.union1d(p.sites, q.sites)
    counts = np.zeros(sites.size, dtype=np.int64)
    counts[np.searchsorted(sites, p.sites)] += p.counts
    counts[np.searchsorted(sites, q.sites)] += q.counts
    return LocalTimeProfile(sites, counts, p.length + q.length, p.start)


def profile_stats(p, window=32):
    """Range, sup and the local 1/2-Hoelder quotient of one profile.

    The Hoelder scan covers every integer site in [min, max] of the occupied
    span (unoccupied gaps count 0) and site pairs up to `window` apart; the
    statistic is dominated by nearby sites, so a full quadratic scan would
    be wasted work.
    """
    lo, hi = int(p.sites[0]), int(p.sites[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[p.sites - lo] = p.counts
    best = 0.0
    for lag in range(1, min(window, dense.size - 1) + 1):
        diff = np.abs(dense[lag:] - dense[:-lag]).max() if dense.size > lag else 0
        best = max(best, diff / math.sqrt(lag))
    return ProfileStats(
        range_size=int(p.sites.size),
        sup_count=int(p.counts.max()),
        holder_half=float(best),
    )


def sample_and_evaluate(profiles, law, stream):
    """Draw one scenery (shared across segments) and return the Z increments.

    A site's value is drawn once and reused by every segment that visits
    it, which is what couples the increments.
    """
    sites, counts = _union_counts(profiles)
    values = law.sample(stream, sites.size)
    return [int(v) for v in counts.T @ values]


def evaluate_increments(profiles, scenery):
    """Z increments for an explicitly given site -> value map."""
    sites, counts = _union_counts(profiles)
    values = np.array([scenery[int(s)] for s in sites], dtype=np.int64)
    return [int(v) for v in counts.T @ values]


def char_given_profiles(profiles, law, theta):
    """Conditional characteristic value prod_y phi(sum_j theta_j N_j(y))."""
    _, counts = _union_counts(profiles)
    u = counts.astype(np.float64) @ np.asarray(theta, dtype=np.float64)
    vals = law.char(u)
    return complex(np.prod(vals))


def agree_within(a, b, n_sigma=3.0):
    """Whether two estimates agree within n_sigma combined standard errors."""
    se = math.sqrt(a.std_error ** 2 + b.std_error ** 2)
    return abs(a.value - b.value) <= n_sigma * se


def tightness_stats(step, scen, n, t, h_list, replicas, stream):
    """E[(zero-count increment over (t, t+h))^2], one row per h."""
    rows = []
    for idx, h in enumerate(h_list):
        m1 = max(1, int(n * t))
        m2 = int(n * (t + h))
        def task(sub):
            counts = _zero_count_trajectory(step, scen, [m1, m2], sub)
            return float(counts[1] - counts[0]) ** 2

        vals = replicate(task, replicas, stream.substream(idx))
        est = estimate_from_values(vals, stream.master_seed)
        rows.append((float(h), est))
    return rows


def sample_delta_marginal(T_list, fineness, stream):
    """Joint sample of the process at several horizons via its conditional law.

    Draws the local-time realization, then a centered Gaussian vector with
    the Gram covariance of the cumulative fields.  Coded independently of
    sample_delta_path on purpose: the agreement of the two samplers is one
    of the distributional checks.
    """
    cumulative, _ = sample_local_time_fields(T_list, fineness, stream)
    gram = gram_of_fields(cumulative, normalization="raw")
    eig, vecs = np.linalg.eigh(gram.entries)
    if eig.min() < -1e-10 * max(1.0, float(np.trace(gram.entries))):
        raise AssertionError("covariance not PSD after clamping")
    eig = np.clip(eig, 0.0, None)
    root = vecs @ np.diag(np.sqrt(eig))
    return root @ stream.gen.standard_normal(len(T_list))


def support_increase_bound(path, eps, box_width):
    """Max mollified-increase over boxes staying 3 sqrt(eps) away from zero.

    Deterministic bound: on such a box the kernel never exceeds its value
    at 3 sqrt(eps), so the increase is at most width * p_eps(3 sqrt(eps)).
    Returns (observed_max, bound).
    """
    width = max(1, int(round(box_width / path.dt)))
    vals = path.values
    nbox = vals.size // width
    trimmed = vals[: nbox * width].reshape(nbox, width)
    away = np.abs(trimmed).min(axis=1) >= 3.0 * math.sqrt(eps)
    dens = np.exp(-(trimmed**2) / (2.0 * eps)) / math.sqrt(2.0 * math.pi * eps)
    increases = path.dt * dens.sum(axis=1)
    observed = float(increases[away].max()) if away.any() else 0.0
    bound = width * path.dt * math.exp(-4.5) / math.sqrt(2.0 * math.pi * eps)
    return observed, bound
