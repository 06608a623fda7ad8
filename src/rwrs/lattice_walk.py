"""Centered integer-lattice random walks and their local-time profiles.

A walk of length n occupies positions S_0, ..., S_{n-1}; its local time at
site y is the visit count N_n(y).  Walks are simulated in chunks so only
the profile (sparse counts), never the full path, has to be materialized
for long runs.
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

_CHUNK = 1 << 20


def _gcd_all(values):
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(v)))
    return g


@dataclass(frozen=True)
class _FiniteLaw:
    """Centered law on finitely many integers.

    The support is sorted and distinct and every probability is positive.
    Normalization and centering are checked exactly when all probabilities
    are Fractions and within 1e-12 otherwise.
    """

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be nonempty and same length")
        if list(self.support) != sorted(set(self.support)):
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
        # << 11; a threshold of 2**53 is never reached and is dropped
        cdf = self.float_probs().cumsum()
        cdf /= cdf[-1]
        cuts = np.ceil(cdf[:-1] * 2.0 ** 53)
        cuts = cuts[cuts < 2.0 ** 53].astype(np.uint64) << np.uint64(11)
        object.__setattr__(self, "_thresholds", cuts)
        object.__setattr__(self, "_values", np.asarray(self.support, dtype=np.int64))
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
        one raw 64-bit word per value, compared with the thresholds.
        """
        raw = stream.gen.bit_generator.random_raw(size)
        idx = np.zeros(raw.shape, dtype=np.int64)
        for cut in self._thresholds:
            idx += raw >= cut
        del raw  # peak memory stays at two arrays of `size`, as with choice
        return self._values[idx]


class StepLaw(_FiniteLaw):
    """Step distribution of an aperiodic walk: its support generates Z."""

    def __post_init__(self):
        super().__post_init__()
        if _gcd_all(self.support) != 1:
            raise ValueError("support must generate the integers (gcd 1)")

    # bound in the class itself: the traced benchmark child wraps
    # StepLaw.__dict__["sample_steps"] (perfbench/child.py)
    sample_steps = _FiniteLaw._draw

    @classmethod
    def simple(cls):
        return cls((-1, 1), (Fraction(1, 2), Fraction(1, 2)))

    @classmethod
    def lazy(cls, hold=Fraction(1, 2)):
        move = (1 - hold) / 2
        return cls((-1, 0, 1), (move, hold, move))


@dataclass(frozen=True)
class LocalTimeProfile:
    """Sparse local-time profile of one walk segment, frozen in sorted form."""

    sites: np.ndarray
    counts: np.ndarray
    length: int
    start: int

    def __post_init__(self):
        object.__setattr__(self, "sites", np.asarray(self.sites, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.sites.size != self.counts.size:
            raise ValueError("sites and counts must match")
        if self.counts.size and int(self.counts.min()) <= 0:
            raise ValueError("occupied sites must have positive counts")
        if int(self.counts.sum()) != self.length:
            raise ValueError("counts must sum to the segment length")

    @classmethod
    def from_dict(cls, counts, start=0):
        sites = np.array(sorted(counts), dtype=np.int64)
        vals = np.array([counts[int(s)] for s in sites], dtype=np.int64)
        return cls(sites, vals, int(vals.sum()), start)

    def as_dict(self):
        return {int(s): int(c) for s, c in zip(self.sites, self.counts)}


def _walk_positions(law, total, stream):
    """Positions S_0 = 0, S_1, ..., S_{total-1} of one walk.

    The total - 1 steps come from one `law.sample_steps` call on `stream`
    (none when total is 1).  Every sampled walk of `law` is built here.
    """
    positions = np.zeros(total, dtype=np.int64)
    if total > 1:
        np.cumsum(law.sample_steps(stream, total - 1), out=positions[1:])
    return positions


def _occupation(seg):
    """Sorted occupied sites of a nonempty position array and their counts."""
    low = int(seg.min())
    counts = np.bincount(seg - low)
    sites = np.flatnonzero(counts)
    return sites + low, counts[sites]


def _segment_profiles(positions, breakpoints):
    """Profile of positions[b_{i-1}:b_i] for each breakpoint b_i."""
    profiles = []
    prev = 0
    for b in breakpoints:
        seg = positions[prev:b]
        sites, counts = _occupation(seg)
        profiles.append(LocalTimeProfile(sites, counts, b - prev, int(seg[0])))
        prev = b
    return profiles


def simulate_local_times(law, breakpoints, stream):
    """Simulate one walk and return the local-time profile of each segment.

    Long walks are processed in chunks of 2**20 steps so memory stays
    O(occupied range), not O(n).
    """
    breakpoints = [int(b) for b in breakpoints]
    if not breakpoints or any(b <= 0 for b in breakpoints):
        raise ValueError("breakpoints must be nonempty positive integers")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    total = breakpoints[-1]
    if total <= _CHUNK:
        return _segment_profiles(_walk_positions(law, total, stream), breakpoints)

    # chunked accumulation into per-segment dicts
    seg_counts = [dict() for _ in breakpoints]
    seg_start = [None] * len(breakpoints)
    pos = 0
    t = 0
    seg = 0
    while t < total:
        take = min(_CHUNK, total - t)
        chunk = pos + _walk_positions(law, take, stream)
        lo = 0
        while lo < take:
            hi = min(take, breakpoints[seg] - t)
            part = chunk[lo:hi]
            if seg_start[seg] is None:
                seg_start[seg] = int(part[0])
            sites, counts = _occupation(part)
            d = seg_counts[seg]
            for s, c in zip(sites.tolist(), counts.tolist()):
                d[s] = d.get(s, 0) + c
            lo = hi
            if t + lo >= breakpoints[seg] and seg < len(breakpoints) - 1:
                seg += 1
        # position at the start of the next chunk: one more step past chunk end
        if t + take < total:
            pos = int(chunk[-1] + law.sample_steps(stream, 1)[0])
        t += take
    prev = 0
    out = []
    for i, b in enumerate(breakpoints):
        prof = LocalTimeProfile.from_dict(seg_counts[i], start=seg_start[i])
        if prof.length != b - prev:
            raise AssertionError("segment mass mismatch")
        out.append(prof)
        prev = b
    return out
