"""Centered integer-lattice random walks and their local-time profiles.

A walk of length n occupies positions S_0, ..., S_{n-1}; its local time at
site y is the visit count N_n(y).  Every sampled walk of the package,
the embedded simple walk of `brownian` and `delta_process` included, is
built whole by `_walk_positions`, and its visits are counted by
`_segment_counts`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "StepLaw",
    "LocalTimeProfile",
    "simulate_local_times",
]

@dataclass(frozen=True)
class _FiniteLaw:
    """Centered law on finitely many integers.

    The support is sorted distinct integers, each probability positive.
    Normalization and centering are checked exactly when all probabilities
    are Fractions and within 1e-12 otherwise.
    """

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be nonempty and same length")
        if (not all(hasattr(x, "__index__") for x in self.support)
                or list(self.support) != sorted(set(self.support))):
            raise ValueError("support must be sorted distinct integers")
        if any(p <= 0 for p in self.probs):
            raise ValueError("all probabilities must be positive")
        total = sum(self.probs)
        mean = sum(x * p for x, p in zip(self.support, self.probs))
        tol = 0 if all(isinstance(p, Fraction) for p in self.probs) else 1e-12
        if abs(total - 1) > tol:
            raise ValueError("probabilities must sum to 1")
        if abs(mean) > tol:
            raise ValueError("law must be centered (mean 0)")
        # Generator.choice(p=...) returns the support index
        # searchsorted(cdf, u, side="right") for u = (raw >> 11) * 2**-53 of
        # one raw Philox word, so cdf[j] <= u iff raw >= ceil(cdf[j] * 2**53)
        # << 11; a threshold of 2**53 is never reached and is dropped, so the
        # kept ones are a prefix; passing the j-th adds support[j + 1] - support[j]
        cdf = self.float_probs().cumsum()
        cdf /= cdf[-1]
        cuts = np.ceil(cdf[:-1] * 2.0 ** 53)
        cuts = cuts[cuts < 2.0 ** 53].astype(np.uint64) << np.uint64(11)
        if not cuts.size:
            raise ValueError("all probability rounds onto the first atom")
        object.__setattr__(self, "_thresholds", cuts)
        object.__setattr__(self, "_gaps", np.diff(self.support).tolist())
        object.__setattr__(self, "_variance", float(
            sum(x * x * p for x, p in zip(self.support, self.probs))))

    @classmethod
    def from_dict(cls, pmf):
        items = sorted(pmf.items())
        return cls(tuple(x for x, _ in items), tuple(p for _, p in items))

    @property
    def variance(self):
        return self._variance

    def float_probs(self):
        return np.array([float(p) for p in self.probs])

    def _draw(self, stream, size):
        """`size` i.i.d. values from `stream` (an int or a shape).

        Bit for bit the values of `support[stream.gen.choice(len(support),
        size, p=float_probs())]`, and the stream ends at the same position:
        one raw 64-bit word per value, mapped to support[0] plus the sum of
        gap_j * [raw >= threshold_j].
        """
        raw = stream.gen.bit_generator.random_raw(size)
        passed = [raw >= cut for cut in self._thresholds]
        del raw  # peak memory stays at two arrays of `size`, as with choice
        out = passed[0] * self._gaps[0]
        for mask, gap in zip(passed[1:], self._gaps[1:]):
            out += mask * gap
        out += self.support[0]
        return out


class StepLaw(_FiniteLaw):
    """Step distribution of an aperiodic walk: its support generates Z."""

    def __post_init__(self):
        super().__post_init__()
        if math.gcd(*self.support) != 1:
            raise ValueError("support must generate the integers (gcd 1)")

    # bound in the class itself: the traced benchmark child wraps
    # StepLaw.__dict__["sample_steps"] (perfbench/child.py)
    sample_steps = _FiniteLaw._draw

    @classmethod
    def simple(cls):
        return cls((-1, 1), (Fraction(1, 2), Fraction(1, 2)))

    @classmethod
    def lazy(cls):
        return cls((-1, 0, 1), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))


@dataclass(frozen=True)
class LocalTimeProfile:
    """Sparse local-time profile of one walk segment, frozen in sorted form."""

    sites: np.ndarray
    counts: np.ndarray
    length: int

    def __post_init__(self):
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.sites.size != self.counts.size:
            raise ValueError("sites and counts must match")
        if self.counts.size and int(self.counts.min()) <= 0:
            raise ValueError("occupied sites must have positive counts")
        if int(self.counts.sum()) != self.length:
            raise ValueError("counts must sum to the segment length")


def _coin_steps(stream, size):
    """`size` steps of the simple +-1 walk: one `integers(0, 2)` draw each."""
    return stream.gen.integers(0, 2, size=size) * 2 - 1


def _walk_positions(draw, total, stream):
    """Positions S_0 = 0, S_1, ..., S_{total-1} of one walk.

    The total - 1 steps come from one `draw(stream, total - 1)` call and
    are summed in place.  Every sampled walk is built here: a step law's
    with `law.sample_steps`, the embedded simple walk of the continuum
    side with `_coin_steps`.
    """
    positions = np.empty(total, dtype=np.int64)
    positions[:1] = 0
    if total > 1:
        np.cumsum(draw(stream, total - 1), out=positions[1:])
    return positions


def _segment_counts(positions, marks):
    """Visit counts of the segments positions[m_{i-1}:m_i], with m_0 = 0.

    Returns (lo, rows): rows[i, j] is the number of visits of segment i to
    site lo + j, on the grid [min, max] of `positions` that every row
    shares.  Coinciding marks make an empty segment, whose row is zero; a
    mark past the end stops at the end.  Every count of visits over a
    walk's range in the package is taken here.
    """
    lo = int(positions.min())
    shifted = positions - lo
    width = int(shifted.max()) + 1
    return lo, np.array([np.bincount(shifted[a:b], minlength=width)
                         for a, b in zip([0, *marks], marks)])


def simulate_local_times(law, breakpoints, stream):
    """Simulate one walk and return the local-time profile of each segment.

    Segment i covers positions [b_{i-1}, b_i).  The whole walk of b_k
    positions is built by `_walk_positions` and counted once by
    `_segment_counts`, so memory is O(n + k * range).
    """
    breakpoints = [int(b) for b in breakpoints]
    if not breakpoints or any(b <= 0 for b in breakpoints):
        raise ValueError("breakpoints must be nonempty positive integers")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    lo, rows = _segment_counts(
        _walk_positions(law.sample_steps, breakpoints[-1], stream), breakpoints)
    profiles = []
    for row, first, b in zip(rows, [0] + breakpoints[:-1], breakpoints):
        sites = np.flatnonzero(row)
        profiles.append(LocalTimeProfile(sites + lo, row[sites], b - first))
    return profiles
