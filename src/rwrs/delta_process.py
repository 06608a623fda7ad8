"""Brownian motion in random scenery and its local time diagnostics.

The process is the integral of the Brownian local-time field against an
independent white noise in space.  Conditionally on the local-time
realization it is Gaussian with covariance given by the Gram matrix of the
fields, which is exactly how it is sampled here: the embedded-walk field
supplies L, an independent Gaussian per lattice site supplies the noise.
The embedded walk is a `StepLaw.simple()` walk, one random bit per step.
Summed step by step this costs O(1) per time step.  Each path draws a
fresh walk; `DeltaPath.walk` keeps its positions.  A path holds its values
on the grid of times j * dt, j = 0, ..., round(horizon / dt).
"""

import math
from dataclasses import dataclass

import numpy as np

from .brownian import _estimate_nonsingular, gram_of_fields, sample_local_time_fields
from .errors import DegenerateRatioError
from .lattice_walk import _EMBEDDED_STEP, _walk_positions
from .simkit import Estimate, replicate

__all__ = [
    "DeltaPath",
    "sample_delta_path",
    "mollified_values",
    "estimate_Mk",
    "MkResult",
    "zero_set_boxcount",
    "occupation_comparison",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_TINY_STEPS = 256  # see estimate_Mk
_TINY_SIM_STEPS = 16384


@dataclass(frozen=True)
class WalkRealization:
    """Embedded-walk positions underlying one local-time realization."""

    positions: np.ndarray


@dataclass(frozen=True)
class DeltaPath:
    """Sampled path of Brownian motion in random scenery on a uniform time grid."""

    values: np.ndarray
    dt: float
    walk: WalkRealization | None = None


def sample_delta_path(horizon, dt, fineness, stream):
    """Sample the scenery integral of the embedded local-time field.

    The field increment at each walk step touches one site, so the defining
    spatial sum telescopes into a cumulative sum of per-site Gaussian noise
    along the walk, evaluated at the requested grid times.  The walk's
    floor(m * horizon) - 1 steps are one draw of the simple step law, and
    the normals follow on the next fresh raw word.  A +-1 walk
    visits every site between its minimum and maximum, so a site's offset
    from the minimum is its rank among the occupied sites: one normal per
    site, drawn in ascending site order after the walk.
    """
    m = int(fineness)
    if dt * m < 1.0:
        raise ValueError("need at least one lattice step per time-grid cell")
    n_grid = int(round(horizon / dt))
    total = int(math.floor(m * horizon))
    positions = _walk_positions(_EMBEDDED_STEP, total, stream)
    off = positions - positions.min()
    noise = stream.gen.standard_normal(int(off.max()) + 1)
    increments = noise[off] * m ** -0.75
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    marks = np.minimum((np.arange(n_grid + 1) * dt * m).astype(np.int64), total)
    return DeltaPath(cum[marks], float(dt), WalkRealization(positions))


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


@dataclass(frozen=True)
class MkResult:
    """Importance-sampled moment functional of the local time at the origin."""

    estimate: Estimate
    rejected: int


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


def estimate_Mk(k, t, replicas, fineness, stream, eps=0.0):
    """Importance-sampled estimate of the k-th local-time moment at level 0.

    Integrates k! (2 pi)^(-k/2) E[det^(-1/2)] over ordered times, sampling
    increment durations from the matching ~ prod dT^(-3/4) density so the
    integrable singularity at coinciding times carries no excess variance.

    With eps = 0 the determinant is taken over increment fields (equal to
    the cumulative one, better conditioned); increments too short to
    resolve on the shared grid (< `_TINY_STEPS` lattice steps) enter
    through their norm factor alone, the cross terms being lower order for
    such short increments: ||L||^2 of a unit-horizon field of
    `_TINY_SIM_STEPS` steps of their own, times duration^(3/2) by Brownian
    scaling.  Its grid spacing 1/128 is a power of two, so the field holds
    the visit counts scaled exactly.

    With eps > 0 the target is the regularized functional
    det(M_cumulative + eps I)^(-1/2), whose ordered-time integral equals
    the eps-mollified moment of the occupation density exactly; the
    regularization removes the coinciding-time singularity, so every
    increment is simulated on the shared grid.

    A replica whose determinant is not positive is rejected and counted;
    more than 0.1% of them fail the run with `RejectionRateError`, the
    rule of `brownian.estimate_C`.
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
            gram = gram_of_fields(cum)
            det = float(np.linalg.det(gram.entries + eps * np.eye(k)))
        else:
            tiny = durations * m < _TINY_STEPS
            det = 1.0
            for j in np.nonzero(tiny)[0]:
                cum, _ = sample_local_time_fields([1.0], _TINY_SIM_STEPS, sub)
                det *= cum[0].norm2_sq() * durations[j] ** 1.5
            big = durations[~tiny]
            if big.size:
                horizons = np.cumsum(big)
                _, incs = sample_local_time_fields(horizons, m, sub)
                gram = gram_of_fields(incs)
                det *= gram.det
        return pref * det ** -0.5 / q if det > 0.0 else np.nan

    return MkResult(*_estimate_nonsingular(replicate(task, replicas, stream)))


def _box_extrema(vals, width, level):
    """(width, mins, maxs) of vals over consecutive boxes of `width` cells.

    `level` is a previous result.  When `width` is its width times a power
    of two the boxes nest (nbox halves, rounding down), so pairwise minima
    and maxima of its even and odd boxes give the result; any other width
    reduces a reshape of `vals`.
    """
    w, mins, maxs = level
    ratio = width // w
    if width % w or ratio & (ratio - 1):
        boxes = vals[: vals.size // width * width].reshape(-1, width)
        return width, boxes.min(axis=1), boxes.max(axis=1)
    while w < width:
        end = mins.size // 2 * 2
        mins = np.minimum(mins[0:end:2], mins[1:end:2])
        maxs = np.maximum(maxs[0:end:2], maxs[1:end:2])
        w *= 2
    return w, mins, maxs


def zero_set_boxcount(path, scales, hurst=0.75):
    """Box-count fit of the path's zero set across dyadic time scales.

    A time box is counted when the path changes sign inside it or dips
    below scale^hurst in absolute value.  The threshold is matched to the
    path's self-similarity index (3/4 for the scenery integral, 1/2 for
    the Brownian calibration run) so the near-zero halo stays a constant
    fraction of the crossing count at every scale; plain sign counting
    undercounts at coarse scales for non-Markov paths.

    The per-box min and max decide the count: a box with min <= 0 <= max
    changes sign, and without a sign change its least |value| is
    min(|min|, |max|).  Each scale's boxes are `round(scale / dt)` grid
    cells wide, at least one.  A width that is a power-of-two multiple of
    the previous scale's width builds its min and max from that level by
    pairwise halving, in linear time over all scales; other widths reduce
    a reshape of the path's values.
    """
    from .harness import fit_power_law

    scales = sorted(float(s) for s in scales)
    if len(scales) < 4 or scales[-1] / scales[0] < 100.0:
        raise ValueError("need >= 4 scales spanning >= 2 decades")
    vals = path.values
    level = (1, vals, vals)
    pts = []
    for s in scales:
        width = max(1, int(round(s / path.dt)))
        if width > vals.size:
            continue
        level = _box_extrema(vals, width, level)
        _, mins, maxs = level
        sign_change = (mins <= 0.0) & (maxs >= 0.0)
        near = np.minimum(np.abs(mins), np.abs(maxs)) < s ** hurst
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
