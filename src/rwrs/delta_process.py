"""Brownian motion in random scenery and its local time diagnostics.

The process is the integral of the Brownian local-time field against an
independent white noise in space.  Conditionally on the local-time
realization it is Gaussian with covariance given by the Gram matrix of the
fields, which is exactly how it is sampled here: the embedded-walk field
supplies L, an independent Gaussian per lattice site supplies the noise.
Summed step by step this costs O(1) per time step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .brownian import (
    LocalTimeField,
    _embedded_positions,
    gram_of_fields,
    sample_local_time_fields,
)
from .errors import DegenerateRatioError, RejectionRateError
from .simkit import Estimate, estimate_from_values, replicate

__all__ = [
    "DeltaPath",
    "MollifiedLocalTime",
    "sample_delta_path",
    "mollified_local_time",
    "mollified_values",
    "estimate_Mk",
    "MkResult",
    "zero_set_boxcount",
    "occupation_comparison",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class WalkRealization:
    """Embedded-walk positions underlying one local-time realization."""

    positions: np.ndarray
    fineness: int

    def field_at(self, T):
        m = self.fineness
        mark = int(math.floor(m * T))
        seg = self.positions[:mark]
        lo = int(seg.min())
        counts = np.bincount(seg - lo).astype(np.float64)
        h = 1.0 / math.sqrt(m)
        return LocalTimeField(lo, h, counts / math.sqrt(m), float(T), m)


@dataclass(frozen=True)
class DeltaPath:
    """Sampled path of Brownian motion in random scenery on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray
    dt: float
    fineness: int
    walk: WalkRealization | None = None

    def horizon(self):
        return float(self.times[-1])

    def field(self, T=None):
        if self.walk is None:
            raise ValueError("synthetic path has no local-time realization")
        return self.walk.field_at(self.horizon() if T is None else T)


def sample_delta_path(horizon, dt, fineness, stream, walk=None):
    """Sample the scenery integral of the embedded local-time field.

    The field increment at each walk step touches one site, so the defining
    spatial sum telescopes into a cumulative sum of per-site Gaussian noise
    along the walk, evaluated at the requested grid times.  Passing a
    frozen `walk` redraws only the noise (conditional resampling).
    """
    m = int(fineness)
    if dt * m < 1.0:
        raise ValueError("need at least one lattice step per time-grid cell")
    n_grid = int(round(horizon / dt))
    total = int(math.floor(m * horizon))
    if walk is None:
        walk = WalkRealization(_embedded_positions(total, stream), m)
    positions = walk.positions
    sites, seq = np.unique(positions, return_inverse=True)
    noise = stream.gen.standard_normal(sites.size)
    increments = noise[seq] * m ** -0.75
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    marks = np.minimum((np.arange(n_grid + 1) * dt * m).astype(np.int64), total)
    times = np.arange(n_grid + 1) * dt
    return DeltaPath(times, cum[marks], float(dt), m, walk)


@dataclass(frozen=True)
class MollifiedLocalTime:
    """Gaussian-kernel occupation density of one path near level x."""

    eps: float
    t: float
    x: float
    value: float

    def __post_init__(self):
        bound = self.t / math.sqrt(2.0 * math.pi * self.eps) + 1e-12
        if self.value < 0 or self.value > bound:
            raise AssertionError("mollified local time outside kernel bounds")


def mollified_values(path, eps, t, xs):
    """Time-discretized mollified occupation at several levels at once."""
    upto = int(round(t / path.dt))
    if upto > path.values.size - 1:
        raise ValueError("t exceeds the path horizon")
    vals = path.values[:upto]  # left Riemann sum over [0, t)
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        z = (vals - x) ** 2 / (2.0 * eps)
        out[i] = path.dt * float(np.exp(-z).sum()) / math.sqrt(2.0 * math.pi * eps)
    return out


def mollified_local_time(path, eps, t, x):
    value = float(mollified_values(path, eps, t, [x])[0])
    return MollifiedLocalTime(float(eps), float(t), float(x), value)


@dataclass(frozen=True)
class MkResult:
    """Importance-sampled moment functional of the local time at the origin."""

    estimate: Estimate
    k: int
    t: float
    rejected: int
    replicas: int


def _sample_ordered_durations(k, t, stream):
    """Increment durations from the Dirichlet-type density ~ prod dT^(-3/4)."""
    g = stream.gen.gamma(np.full(k, 0.25), 1.0)
    tail = stream.gen.gamma(1.0, 1.0)
    v = g / (g.sum() + tail)
    return v * t


def _duration_density(durations, t):
    from scipy.special import gammaln

    k = durations.size
    logc = gammaln(k / 4.0 + 1.0) - k * gammaln(0.25)
    return math.exp(logc) * t ** (-k / 4.0) * float(np.prod(durations ** -0.75))


def _segment_norm_sq(steps, stream, duration):
    """||L||_2^2 of a fresh segment of `steps` lattice steps over `duration`."""
    pos = _embedded_positions(steps, stream)
    lo = pos.min()
    counts = np.bincount(pos - lo)
    v = float(np.dot(counts, counts))
    return (duration / steps) ** 1.5 * v


def estimate_Mk(k, t, replicas, fineness, stream, eps=0.0,
                tiny_steps=256, tiny_sim_steps=16384):
    """Importance-sampled estimate of the k-th local-time moment at level 0.

    Integrates k! (2 pi)^(-k/2) E[det^(-1/2)] over ordered times, sampling
    increment durations from the matching ~ prod dT^(-3/4) density so the
    integrable singularity at coinciding times carries no excess variance.

    With eps = 0 the determinant is taken over increment fields (equal to
    the cumulative one, better conditioned); increments too short to
    resolve on the shared grid (< tiny_steps lattice steps) enter through
    their norm factor alone, sampled at their own fineness, the cross
    terms being lower order for such short increments.

    With eps > 0 the target is the regularized functional
    det(M_cumulative + eps I)^(-1/2), whose ordered-time integral equals
    the eps-mollified moment of the occupation density exactly; the
    regularization removes the coinciding-time singularity, so every
    increment is simulated on the shared grid.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = int(fineness)
    pref = math.factorial(k) * (2.0 * math.pi) ** (-k / 2.0)

    def task(sub):
        durations = _sample_ordered_durations(k, t, sub)
        q = _duration_density(durations, t)
        if eps > 0.0:
            horizons = np.cumsum(durations)
            cum, _ = sample_local_time_fields(horizons, m, sub)
            gram = gram_of_fields(cum, normalization="raw")
            det = float(np.linalg.det(gram.entries + eps * np.eye(k)))
        else:
            tiny = durations * m < tiny_steps
            det = 1.0
            for j in np.nonzero(tiny)[0]:
                det *= _segment_norm_sq(tiny_sim_steps, sub, durations[j])
            big = durations[~tiny]
            if big.size:
                horizons = np.cumsum(big)
                _, incs = sample_local_time_fields(horizons, m, sub)
                gram = gram_of_fields(incs, normalization="raw")
                det *= gram.det
        return pref * det ** -0.5 / q if det > 0.0 else np.nan

    values = replicate(task, replicas, stream)
    ok = ~np.isnan(values)
    rejected = replicas - int(ok.sum())
    if rejected > max(1e-3 * replicas, 1.0):
        raise RejectionRateError(
            f"{rejected}/{replicas} rejected Gram samples in moment estimate"
        )
    est = estimate_from_values(values[ok], stream.master_seed)
    return MkResult(est, k, float(t), rejected, replicas)


def zero_set_boxcount(path, scales, hurst=0.75):
    """Box-count fit of the path's zero set across dyadic time scales.

    A time box is counted when the path changes sign inside it or dips
    below scale^hurst in absolute value.  The threshold is matched to the
    path's self-similarity index (3/4 for the scenery integral, 1/2 for
    the Brownian calibration run) so the near-zero halo stays a constant
    fraction of the crossing count at every scale; plain sign counting
    undercounts at coarse scales for non-Markov paths.
    """
    from .harness import fit_power_law

    scales = sorted(float(s) for s in scales)
    if len(scales) < 4 or scales[-1] / scales[0] < 100.0:
        raise ValueError("need >= 4 scales spanning >= 2 decades")
    vals = path.values
    pts = []
    for s in scales:
        width = max(1, int(round(s / path.dt)))
        nbox = vals.size // width
        if nbox < 1:
            continue
        trimmed = vals[: nbox * width].reshape(nbox, width)
        sign_change = (trimmed.min(axis=1) <= 0.0) & (trimmed.max(axis=1) >= 0.0)
        near = np.abs(trimmed).min(axis=1) < s ** hurst
        count = int(np.count_nonzero(sign_change | near))
        if count > 0:
            pts.append((1.0 / s, float(count), None))
    if len(pts) < 3:
        raise DegenerateRatioError("no countable zero boxes; degenerate path")
    return fit_power_law(pts)


def occupation_comparison(path, t, a, b, eps):
    """Occupation time of [a, b) vs the integral of the mollified density.

    The level integral of the Gaussian kernel over [a, b) has a closed
    form, so the comparison needs no level grid.
    """
    upto = int(round(t / path.dt))
    vals = path.values[:upto]
    lhs = path.dt * float(np.count_nonzero((vals >= a) & (vals < b)))
    from scipy.special import ndtr

    rhs = path.dt * float(
        (ndtr((b - vals) / math.sqrt(eps)) - ndtr((a - vals) / math.sqrt(eps))).sum()
    )
    return lhs, rhs
