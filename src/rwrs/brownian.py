"""Brownian local-time fields, Gram functionals, and squared-Bessel checks.

Local-time fields are built from an embedded simple random walk: the field
at level x over horizon T is N_[mT]([sqrt(m) x]) / sqrt(m) on the lattice
grid of spacing m^(-1/2).  The embedded walk is a `StepLaw.simple()` walk,
drawn and counted by `lattice_walk` as the walks of the discrete side are:
one random bit per step.  This keeps local times exactly integer-valued
(no kernel bandwidth) and is the same coupling that links the discrete and
continuum sides of the scaling results verified here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RejectionRateError
from .lattice_walk import _EMBEDDED_STEP, _segment_counts, _walk_positions
from .simkit import Estimate, estimate_from_values, replicate

__all__ = [
    "LocalTimeField",
    "GramSample",
    "sample_local_time_fields",
    "gram_of_fields",
    "estimate_C",
    "CResult",
    "besq0_step",
    "besq0_total_integral",
    "besq0_density",
    "besq0_extinction",
    "ray_knight_profile_fast",
    "origin_local_time_at_range_exit",
    "hitting_time_density",
]

_EIG_CLAMP = 1e-14
_MIN_FINENESS = 1000  # least lattice steps per unit time of the embedded walk


@dataclass(frozen=True)
class LocalTimeField:
    """Local-time approximation on a uniform grid of spacing h = m^(-1/2).

    `origin` is the lattice site of the first grid node; node j sits at
    x = (origin + j) * h.  The time mass h * sum(values) is the field's
    horizon, or the increment's duration for an increment field, to within
    one lattice step 1/m.
    """

    origin: int
    h: float
    values: np.ndarray

    def norm2_sq(self):
        return self.h * float(np.dot(self.values, self.values))


def sample_local_time_fields(T_list, fineness, stream):
    """Cumulative and increment local-time fields at the given horizons.

    Returns (cumulative, increments); cumulative[i] approximates the local
    time field at horizon T_i, increments[i] the field accumulated over
    (T_{i-1}, T_i].  All fields share one grid so inner products integrate
    over the same levels.
    """
    m = int(fineness)
    if m < _MIN_FINENESS:
        raise ValueError(f"fineness must be at least {_MIN_FINENESS}")
    T_list = [float(T) for T in T_list]
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])) or T_list[0] <= 0:
        raise ValueError("horizons must be increasing and positive")
    marks = [int(math.floor(m * T)) for T in T_list]
    total = max(marks[-1], 1)
    lo, rows = _segment_counts(_walk_positions(_EMBEDDED_STEP, total, stream), marks)
    h = 1.0 / math.sqrt(m)
    inc = rows * h
    increments = [LocalTimeField(lo, h, row) for row in inc]
    cumulative = [LocalTimeField(lo, h, row) for row in np.cumsum(inc, axis=0)]
    return cumulative, increments


@dataclass(frozen=True)
class GramSample:
    """Symmetric PSD matrix of local-time inner products with its determinant."""

    entries: np.ndarray
    det: float


def gram_of_fields(fields):
    """Gram matrix of the fields' pairwise L2 inner products.

    The fields share one spacing h.  A field is 0 outside its range, so each
    inner product runs over the overlap of two ranges: the whole arrays for
    fields of one walk, which share a grid.  Eigenvalues below 1e-14 * trace
    are clamped to zero so near-rank-deficient samples give a determinant
    of exactly 0, not a negative round-off one.
    """
    h = fields[0].h
    if any(f.h != h for f in fields):
        raise ValueError("fields must share one spacing h")
    k = len(fields)
    mat = np.empty((k, k))
    for i, f in enumerate(fields):
        for j, g in enumerate(fields[i:], i):
            lo = max(f.origin, g.origin)
            hi = max(lo, min(f.origin + f.values.size, g.origin + g.values.size))
            a = f.values[lo - f.origin:hi - f.origin]
            b = g.values[lo - g.origin:hi - g.origin]
            mat[i, j] = mat[j, i] = h * float(np.dot(a, b))
    eig = np.linalg.eigvalsh(mat)
    floor = _EIG_CLAMP * float(np.trace(mat))
    eig = np.where(eig < floor, 0.0, eig)
    det = float(np.prod(eig))
    return GramSample(mat, det)


def _estimate_nonsingular(values):
    """(Estimate, rejected) over replica values, NaN marking a singular Gram sample.

    More than 0.1% rejected signals a fineness too small for the horizons.
    """
    ok = ~np.isnan(values)
    rejected = values.size - int(ok.sum())
    if rejected > 1e-3 * values.size:
        raise RejectionRateError(
            f"{rejected}/{values.size} near-singular Gram samples; fineness too small"
        )
    return estimate_from_values(values[ok]), rejected


@dataclass(frozen=True)
class CResult:
    """Estimate of E[det^(-1/2)] with the scaling-bound diagnostics."""

    estimate: Estimate
    bound_ratio: float
    bound_ratio_se: float
    rejected: int


def estimate_C(T_list, replicas, fineness, stream):
    """Monte Carlo E[D^(-1/2)] over increment-field Gram determinants.

    Near-singular Gram samples (any eigenvalue clamped to zero, so det 0)
    are rejected and counted; more than 0.1% of them fail the run with
    `RejectionRateError`, as in every estimator over Gram determinants.
    """
    T_list = [float(T) for T in T_list]
    durations = np.diff([0.0] + T_list)

    def task(sub):
        _, increments = sample_local_time_fields(T_list, fineness, sub)
        gram = gram_of_fields(increments)
        if gram.det <= 0.0:
            return np.nan
        return gram.det ** -0.5

    est, rejected = _estimate_nonsingular(replicate(task, replicas, stream))
    scale = float(np.prod(durations ** 0.75))
    return CResult(
        estimate=est,
        bound_ratio=est.value * scale,
        bound_ratio_se=est.std_error * scale,
        rejected=rejected,
    )


def besq0_step(y, dt, stream, size):
    """`size` exact transitions of the squared Bessel process of dimension 0.

    Draw K ~ Poisson(y / (2 dt)); absorb at 0 when K = 0, else return a
    Gamma(K, scale 2 dt) variate.  This Poisson-Gamma mixture reproduces
    the known transition kernel: an atom at zero plus the modified-Bessel
    density, which the test suite verifies against the closed form.
    """
    if y < 0 or dt <= 0:
        raise ValueError("need y >= 0 and dt > 0")
    k = stream.gen.poisson(y / (2.0 * dt), size=size)
    out = np.zeros(size, dtype=np.float64)
    alive = k > 0
    if alive.any():
        out[alive] = stream.gen.gamma(k[alive].astype(np.float64), 2.0 * dt)
    return out


def besq0_extinction(y, dt):
    """Atom weight at zero of the BESQ0 transition over time dt."""
    return math.exp(-y / (2.0 * dt))


def besq0_density(y, z, dt):
    """Positive-part transition density q_dt(y, z) of BESQ0.

    Uses the exponentially scaled Bessel function to stay finite for large
    sqrt(y z) / dt.
    """
    from scipy.special import ive

    y = float(y)
    z = np.asarray(z, dtype=np.float64)
    arg = np.sqrt(y * z) / dt
    # ive(1, x) = iv(1, x) * exp(-x); fold the factor into the exponent
    expo = np.exp(-(y + z) / (2.0 * dt) + arg)
    return (1.0 / (2.0 * dt)) * np.sqrt(y / z) * expo * ive(1, arg)


def besq0_total_integral(y, stream, size=None):
    """Sample of the total integral of BESQ0 started at y.

    Equal in law to the first hitting time of y/2 by a standard Brownian
    motion, hence representable as (y/2)^2 / Z^2 with Z standard normal.
    """
    if y <= 0:
        raise ValueError("need y > 0")
    z = stream.gen.standard_normal(size=size)
    return (y / 2.0) ** 2 / z ** 2


def hitting_time_density(y, t):
    """Density f_y(t) of the first hitting time of y/2 by Brownian motion."""
    t = np.asarray(t, dtype=np.float64)
    return (y / 2.0) * (2.0 * math.pi * t ** 3) ** -0.5 * np.exp(
        -((y / 2.0) ** 2) / (2.0 * t)
    )


def ray_knight_profile_fast(level, fineness, stream):
    """Walk local-time profile at the first time the origin count tops level*sqrt(m).

    Returns the normalized profile N_tau(y) / sqrt(m) of the embedded walk
    for offsets y >= 0, stopped when the visit count at the origin first
    exceeds level * sqrt(m); by the second Ray-Knight theorem its continuum
    counterpart is a squared Bessel process of dimension 0 started from
    `level`.  For the simple walk stopped at that count, the edge upcrossing
    counts above the origin form a critical branching chain with geometric
    offspring; visit counts at level y are U(y) + U(y+1).  This samples the
    stopped profile in O(max height) work, avoiding the infinite-mean
    stopping time of direct simulation.
    """
    m = int(fineness)
    target = int(math.floor(level * math.sqrt(m))) + 1
    ups = [0]  # U(0) unused marker; ups[y] = upcrossings of edge (y-1, y)
    u = int(stream.gen.binomial(target - 1, 0.5))
    ups.append(u)
    while u > 0:
        u = int(stream.gen.negative_binomial(u, 0.5))
        ups.append(u)
    ups = np.asarray(ups[1:], dtype=np.int64)  # U(1), U(2), ...
    visits = np.empty(ups.size + 1, dtype=np.int64)
    visits[0] = target
    visits[1:-1] = ups[:-1] + ups[1:]
    visits[-1] = ups[-1]  # U at the top edge; the level above is unvisited
    return visits.astype(np.float64) / math.sqrt(m)


def origin_local_time_at_range_exit(fineness, stream):
    """Origin visit count, over sqrt(m), at the first exit of [-sqrt(m), sqrt(m)].

    The embedded walk is drawn in blocks of 2**16 steps, a multiple of the
    64 steps of one raw word, so the blocks read the stream as one long
    walk would.
    """
    m = int(fineness)
    bound = int(math.floor(math.sqrt(m)))
    pos = 0
    zeros = 0
    chunk = 1 << 16
    while True:
        walk = pos + _walk_positions(_EMBEDDED_STEP, chunk + 1, stream)
        block = walk[:-1]
        out = np.nonzero(np.abs(block) > bound)[0]
        if out.size:
            stop = int(out[0])
            zeros += int(np.count_nonzero(block[:stop] == 0))
            return zeros / math.sqrt(m)
        zeros += int(np.count_nonzero(block == 0))
        pos = int(walk[-1])
