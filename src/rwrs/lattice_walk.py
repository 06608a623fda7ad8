"""Centered integer-lattice random walks and their local-time profiles.

A walk of length n occupies positions S_0, ..., S_{n-1}; its local time at
site y is the visit count N_n(y).  Every sampled walk of the package,
the embedded simple walk of `brownian` and `delta_process` included, is
built whole by `_walk_positions`, and its visits are counted by
`_segment_counts`.  Every step and scenery value of the package is drawn
by `_FiniteLaw._draw`.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "StepLaw",
    "LocalTimeProfile",
    "simulate_local_times",
]

# how the package's draws read a stream, recorded in every manifest; 2 since
# a uniform two-point law reads one bit per value (`_FiniteLaw._draw`)
_STREAM_LAYOUT = 2


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
        object.__setattr__(self, "_uniform_pair",
                           len(self.probs) == 2 and all(p == 0.5 for p in self.probs))
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
        """`size` i.i.d. int64 values from `stream` (an int or a shape).

        Stream layout 2 (`_STREAM_LAYOUT`).  A uniform two-point law
        reads one random bit per value: value i of the flat C-order output
        is support[0] + gap * bit, where bit is bit i % 64, counted from the
        least significant, of raw 64-bit word i // 64 read little-endian.
        The draw starts on a fresh word and drops the unused high bits of
        its last one, so it takes ceil(count / 64) words.

        Every other law reads one raw word per value, mapped to support[0]
        plus the sum of gap_j * [raw >= threshold_j]: bit for bit the values
        of `support[stream.gen.choice(len(support), size, p=float_probs())]`,
        with the stream left where choice leaves it.
        """
        bit_generator = stream.gen.bit_generator
        if self._uniform_pair:
            count = int(np.prod(size))
            words = bit_generator.random_raw(-(-count // 64)).astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), count=count, bitorder="little")
            out = bits.astype(np.int64)
            out *= self._gaps[0]
            out += self.support[0]
            return out.reshape(size)
        raw = bit_generator.random_raw(size)
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


# the step law of the embedded walk of `brownian` and `delta_process`: one
# random bit per step
_EMBEDDED_STEP = StepLaw.simple()


@dataclass(frozen=True)
class LocalTimeProfile:
    """Sparse local-time profile of one segment, sorted; `length` sums its counts."""

    sites: np.ndarray
    counts: np.ndarray
    length: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.sites.size != self.counts.size:
            raise ValueError("sites and counts must match")
        if self.counts.size and int(self.counts.min()) <= 0:
            raise ValueError("occupied sites must have positive counts")
        object.__setattr__(self, "length", int(self.counts.sum()))


def _walk_positions(law, total, stream):
    """Positions S_0 = 0, S_1, ..., S_{total-1} of one walk of step law `law`.

    The total - 1 steps come from one `law.sample_steps(stream, total - 1)`
    call and are summed in place.  Every sampled walk is built here, the
    embedded walk of the continuum side with `_EMBEDDED_STEP`.
    """
    positions = np.empty(total, dtype=np.int64)
    positions[:1] = 0
    if total > 1:
        np.cumsum(law.sample_steps(stream, total - 1), out=positions[1:])
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
        _walk_positions(law, breakpoints[-1], stream), breakpoints)
    profiles = []
    for row in rows:
        sites = np.flatnonzero(row)
        profiles.append(LocalTimeProfile(sites + lo, row[sites]))
    return profiles
