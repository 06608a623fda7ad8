"""Scenery laws, their lattice constants, and conditional return probabilities.

Given a walk realization with segment local times N^(i), the increments of
Z are sums over occupied sites of xi_y weighted by visit counts, so their
conditional joint law is an explicit finite convolution.  Averaging that
conditional zero-probability over walk replicas is an unbiased estimator of
P(Z = 0 at all requested times) with much smaller variance than indicator
counting (Rao-Blackwell).  Each case has one evaluation route:

- k = 1, a batch of walks: `ReturnProbTable`, a trapezoid quadrature of the
  conditional characteristic function over its periodicity cell;
- one walk: `conditional_return_prob`, exact dense convolution for k <= 2
  and the k-dimensional trapezoid quadrature for k >= 3;
- k >= 2 on the estimator path: `joint_return_prob_sampled`, which
  integrates the sites of one segment out by convolution and samples or
  enumerates the scenery on shared sites.

The law itself (`SceneryLaw`) shares its validation, `from_dict` and the
draw with `lattice_walk.StepLaw`.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .lattice_walk import _FiniteLaw, _gcd_all

__all__ = [
    "SceneryLaw",
    "analyze_law",
    "conditional_return_prob",
    "joint_return_prob_sampled",
    "ReturnProbTable",
]

_LOG_FLOOR = -800.0  # exp underflows to an exact 0.0 well before this


class SceneryLaw(_FiniteLaw):
    """Centered integer scenery distribution with its lattice constants.

    d is the span of the lattice carrying the support (gcd of pairwise
    support differences); it characterizes where |phi(u)| = 1.  d0 is the
    smallest m >= 1 with m * a divisible by d, where a is the common
    residue of the support mod d; returns to zero are only possible at
    times that are multiples of d0.
    """

    def __post_init__(self):
        super().__post_init__()
        if len(self.support) < 2:
            raise ValueError("degenerate (single-point) scenery law")
        self._check_lattice_constants()
        object.__setattr__(self, "_max_value", max(abs(x) for x in self.support))

    def _check_lattice_constants(self):
        d, d0 = self.d, self.d0
        # root-of-unity identity behind d0
        if abs(self.char(2 * math.pi / d) ** d - 1.0) > 1e-9:
            raise AssertionError("phi(2*pi/d)^d must equal 1")
        # n*xi in dZ almost surely iff n is a multiple of d0, exhaustively
        for n in range(1, 4 * d + 1):
            hits = [(n * x) % d == 0 for x in self.support]
            if any(hits) != all(hits):
                raise AssertionError("lattice residue must be constant on support")
            if all(hits) != (n % d0 == 0):
                raise AssertionError("d0 identity violated")

    # bound in the class itself: the traced benchmark child wraps
    # SceneryLaw.__dict__["sample"] (perfbench/child.py)
    sample = _FiniteLaw._draw

    @classmethod
    def rademacher(cls):
        return cls((-1, 1), (Fraction(1, 2), Fraction(1, 2)))

    sigma2 = _FiniteLaw.variance  # the paper's name for the scenery variance

    @property
    def d(self):
        x0 = self.support[0]
        return _gcd_all([x - x0 for x in self.support[1:]])

    @property
    def residue(self):
        return self.support[0] % self.d

    @property
    def d0(self):
        d = self.d
        a = self.residue
        return d // math.gcd(a, d) if a else 1

    @property
    def max_value(self):
        return self._max_value

    def char(self, u):
        """Characteristic function at scalar or array u (complex in general)."""
        u = np.asarray(u, dtype=np.float64)
        probs = self.float_probs()
        out = np.zeros(u.shape, dtype=np.complex128)
        for x, p in zip(self.support, probs):
            out += p * np.exp(1j * x * u)
        return out if out.shape else complex(out)


def analyze_law(pmf):
    """Return (sigma^2, d, d0) of a centered finite scenery pmf."""
    law = pmf if isinstance(pmf, SceneryLaw) else SceneryLaw.from_dict(pmf)
    return law.sigma2, law.d, law.d0


def _union_counts(profiles):
    """Union of occupied sites and the (n_sites, k) count matrix."""
    sites = profiles[0].sites
    for p in profiles[1:]:
        sites = np.union1d(sites, p.sites)
    counts = np.zeros((sites.size, len(profiles)), dtype=np.int64)
    for j, p in enumerate(profiles):
        counts[np.searchsorted(sites, p.sites), j] = p.counts
    return sites, counts


def _admissible(profiles, law):
    return all(p.length % law.d0 == 0 for p in profiles)


def _halfwidth(counts, law):
    """Truncation halfwidth for the dense pmf of sum_y xi_y * c_y.

    The target concentrates at scale sigma * n^(3/4); the designed cut is
    12 sigma n^(3/4), widened to 8 * max|xi| * sqrt(sum c^2) whenever the
    realized conditional variance is anomalously large, so the tracked
    truncation error stays below 1e-10.
    """
    counts = np.asarray(counts, dtype=np.int64)
    span = int(np.abs(counts).sum()) * law.max_value
    n = int(counts.sum())
    v = float(np.dot(counts, counts))
    cut = max(
        int(math.ceil(12.0 * math.sqrt(law.sigma2) * n ** 0.75)),
        int(math.ceil(8.0 * law.max_value * math.sqrt(v))),
        4,
    )
    return min(span, cut)


def _pmf_1d(counts, law):
    """Dense pmf (offset -A..A) of sum over sites of xi_y * count_y.

    Each convolution step writes only the window [lo, hi) outside which the
    running pmf is exactly zero, clamped to the grid.  A cell gets the same
    products in the same atom order as a full-width pass, so it is
    bit-equal: the first product is stored rather than added to 0.0, and
    the terms that pass adds beyond the window are p * 0.0.  Zero padding
    of max|c * x| on both sides keeps every shifted read inside the
    buffer.
    """
    A = _halfwidth(counts, law)
    size = 2 * A + 1
    counts = np.asarray(counts, dtype=np.int64).tolist()
    atoms = [(int(x), float(p)) for x, p in zip(law.support, law.probs)]
    (x_min, p_first), rest = atoms[0], atoms[1:]
    x_max = atoms[-1][0]
    pad = max(map(abs, counts), default=0) * max(-x_min, x_max)
    cur = np.zeros(size + 2 * pad)
    nxt = np.zeros(size + 2 * pad)
    cur[pad + A] = 1.0
    lo, hi = A, A + 1
    for c in counts:
        # the support of a centered law straddles 0, so the windows nest and
        # the new window covers every cell nxt held two steps back
        lo = max(0, lo + min(c * x_min, c * x_max))
        hi = min(size, hi + max(c * x_min, c * x_max))
        a, b = pad + lo, pad + hi
        out = nxt[a:b]
        s = c * x_min
        np.multiply(cur[a - s:b - s], p_first, out=out)
        for x, p in rest:
            s = c * x
            out += p * cur[a - s:b - s]
        cur, nxt = nxt, cur
    lost = abs(1.0 - math.fsum(cur[pad + lo:pad + hi].tolist()))
    if lost > 1e-10:
        raise AssertionError(f"convolution truncation lost {lost:.3e} mass")
    return cur[pad:pad + size], A


def _pmf_2d(count_pairs, law, cell_limit=int(6e7)):
    """Dense joint pmf of (sum xi*c1, sum xi*c2) over shared-scenery sites."""
    c1 = count_pairs[:, 0]
    c2 = count_pairs[:, 1]
    A1 = _halfwidth(c1, law)
    A2 = _halfwidth(c2, law)
    n1, n2 = 2 * A1 + 1, 2 * A2 + 1
    if n1 * n2 > cell_limit:
        raise BudgetExceededError(
            f"2D convolution grid {n1}x{n2} exceeds the exact-evaluation budget"
        )
    cur = np.zeros((n1, n2))
    cur[A1, A2] = 1.0
    nxt = np.empty_like(cur)
    atoms = [(int(x), float(p)) for x, p in zip(law.support, law.probs)]
    for a, b in np.asarray(count_pairs, dtype=np.int64):
        a, b = int(a), int(b)
        nxt[:] = 0.0
        for x, p in atoms:
            s1, s2 = a * x, b * x
            src1 = slice(max(0, -s1), min(n1, n1 - s1))
            dst1 = slice(max(0, s1), min(n1, n1 + s1))
            src2 = slice(max(0, -s2), min(n2, n2 - s2))
            dst2 = slice(max(0, s2), min(n2, n2 + s2))
            nxt[dst1, dst2] += p * cur[src1, src2]
        cur, nxt = nxt, cur
    lost = abs(1.0 - math.fsum(cur.ravel()))
    if lost > 1e-10:
        raise AssertionError(f"convolution truncation lost {lost:.3e} mass")
    return cur, A1, A2


def _alias_nodes(counts_matrix, law, d):
    """Even node count making trapezoid aliasing < 1e-12 in every direction."""
    v = (counts_matrix.astype(np.float64) ** 2).sum(axis=0).max()
    m = int(math.ceil(8.0 * law.max_value * math.sqrt(max(v, 1.0)) / d))
    return m + (m % 2)


def _quad_value_nd(distinct, mult, law, d, nodes, block=4096):
    k = distinct.shape[1]
    theta = (2.0 * math.pi / (d * nodes)) * np.arange(nodes)
    total_pts = nodes ** k
    acc = 0.0
    for lo in range(0, total_pts, block):
        idx = np.arange(lo, min(lo + block, total_pts))
        coords = np.empty((idx.size, k))
        rem = idx.copy()
        for j in range(k - 1, -1, -1):
            coords[:, j] = theta[rem % nodes]
            rem //= nodes
        prod = np.ones(idx.size, dtype=np.complex128)
        for row, m in zip(distinct, mult):
            u = coords @ row.astype(np.float64)
            prod *= law.char(u) ** int(m)
        acc += float(prod.real.sum())
    return acc / total_pts


def _char_quadrature(profiles, law):
    """Trapezoid mean of the conditional characteristic function.

    The equal-weight trapezoid sum over one periodicity cell of the (2pi/d
    periodic, even) integrand equals P(all increments 0 | walk) up to
    aliasing terms P(Z = l*d*M), so starting at the aliasing bound already
    gives 1e-12 accuracy; node doubling confirms to 1e-9.
    """
    _, counts = _union_counts(profiles)
    distinct, mult = np.unique(counts, axis=0, return_counts=True)
    keep = np.any(distinct != 0, axis=1)
    distinct, mult = distinct[keep], mult[keep].astype(np.float64)
    d = law.d
    k = counts.shape[1]
    m = max(64, _alias_nodes(counts, law, d))
    prev = _quad_value_nd(distinct, mult, law, d, m)
    while (2 * m) ** k <= (1 << 24):
        m *= 2
        val = _quad_value_nd(distinct, mult, law, d, m)
        if abs(val - prev) <= 1e-9:
            return val
        prev = val
    return prev


def conditional_return_prob(profiles, law):
    """P(all segment increments of Z equal 0 | walk realization).

    Exactly 0 whenever some segment length is not a multiple of d0 (the
    lattice constraint leaves no mass at zero).  Otherwise evaluated by an
    exact truncated convolution for k <= 2 segments, and for k >= 3 by
    periodic trapezoid quadrature of the conditional characteristic
    function, whose node count doubles until two refinements agree within
    1e-9.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    if not _admissible(profiles, law):
        return 0.0
    if len(profiles) == 1:
        pmf, A = _pmf_1d(profiles[0].counts, law)
        return float(pmf[A])
    if len(profiles) == 2:
        _, counts = _union_counts(profiles)
        pmf, A1, A2 = _pmf_2d(counts, law)
        return float(pmf[A1, A2])
    return min(1.0, max(0.0, _char_quadrature(profiles, law)))


def _zero_prob_given_shared(shared_values, shared_counts, pmfs):
    """Per scenery row on the shared sites, P(every increment is 0 | row).

    Segment j's sum over its own sites must cancel that row's shared
    residual, so the row's value is the product of pmf_j at minus the
    residual (0 off the truncated grid).
    """
    residuals = shared_values @ shared_counts  # (rows, k)
    val = np.full(residuals.shape[0], 1.0)
    for j, (pmf, A) in enumerate(pmfs):
        r = -residuals[:, j] + A
        ok = (r >= 0) & (r < pmf.size)
        val *= np.where(ok, pmf[np.clip(r, 0, pmf.size - 1)], 0.0)
    return val


def joint_return_prob_sampled(profiles, law, stream, scenery_draws=64,
                              enumerate_limit=4096):
    """Unbiased estimate of P(all increments = 0 | walk) for k >= 2.

    Sites visited by exactly one segment are integrated out exactly by 1D
    convolution; the scenery on sites shared between segments is enumerated
    when cheap and sampled otherwise.  Conditioning on strictly more than
    the bare indicator keeps this a variance-reduced estimator while
    avoiding the k-dimensional dense convolution.
    """
    if not _admissible(profiles, law):
        return 0.0
    k = len(profiles)
    if k == 1:
        pmf, A = _pmf_1d(profiles[0].counts, law)
        return float(pmf[A])
    sites, counts = _union_counts(profiles)
    visited = (counts > 0).sum(axis=1)
    shared = visited >= 2
    pmfs = []
    for j in range(k):
        excl = (counts[:, j] > 0) & ~shared
        pmfs.append(_pmf_1d(counts[excl, j], law))
    shared_counts = counts[shared]
    if shared_counts.shape[0] == 0:
        return float(np.prod([pmf[A] for pmf, A in pmfs]))

    nsh = shared_counts.shape[0]
    nsup = len(law.support)
    if nsup ** nsh <= enumerate_limit:
        support = np.asarray(law.support, dtype=np.int64)
        probs = law.float_probs()
        total = nsup ** nsh
        digits = np.arange(total)
        choice = np.empty((total, nsh), dtype=np.int64)
        weight = np.ones(total)
        for i in range(nsh):
            digit = digits % nsup
            choice[:, i] = support[digit]
            weight *= probs[digit]
            digits //= nsup
        val = _zero_prob_given_shared(choice, shared_counts, pmfs)
        return float(np.dot(weight, val))

    draws = law.sample(stream, (scenery_draws, nsh))
    return float(_zero_prob_given_shared(draws, shared_counts, pmfs).mean())


class ReturnProbTable:
    """Batched k=1 conditional zero-probabilities sharing one node grid.

    Evaluates the same periodic trapezoid sum as the quadrature route, but
    with log-magnitude and phase tables over (count value, node) reused by
    every profile in the batch, so the per-profile work is two matrix
    products.  Node count is fixed upfront from the aliasing bound over
    the whole batch, which keeps results within 1e-12 of the exact value.
    """

    def __init__(self, law):
        self.law = law

    def evaluate(self, profiles, block=512):
        law = self.law
        admissible = [p.length % law.d0 == 0 for p in profiles]
        out = np.zeros(len(profiles))
        todo = [i for i, ok in enumerate(admissible) if ok]
        if not todo:
            return out
        cmax = max(int(profiles[i].counts.max()) for i in todo)
        vmax = max(float(np.dot(profiles[i].counts, profiles[i].counts)) for i in todo)
        d = law.d
        nodes = int(math.ceil(8.0 * law.max_value * math.sqrt(vmax) / d))
        nodes = max(64, nodes + (nodes % 2))
        half = nodes // 2
        theta = (2.0 * math.pi / (d * nodes)) * np.arange(half + 1)
        phi = law.char(np.outer(np.arange(1, cmax + 1, dtype=np.float64), theta))
        mag = np.abs(phi)
        logmag = np.where(mag > 0, np.log(np.maximum(mag, 1e-320)), _LOG_FLOOR)
        ang = np.angle(phi)
        w = np.full(half + 1, 2.0 / nodes)
        w[0] = w[-1] = 1.0 / nodes
        for lo in range(0, len(todo), block):
            batch = todo[lo : lo + block]
            mults = np.empty((len(batch), cmax))
            for row, i in enumerate(batch):
                c = profiles[i].counts
                mults[row] = np.bincount(c - 1, minlength=cmax)[:cmax]
            total_log = np.maximum(mults @ logmag, _LOG_FLOOR)
            total_ang = mults @ ang
            vals = (np.exp(total_log) * np.cos(total_ang)) @ w
            out[batch] = np.maximum(vals, 0.0)
        return out
