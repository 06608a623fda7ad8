"""Scenery laws, their lattice constants, and conditional return probabilities.

Given a walk realization with segment local times N^(i), the increments of
Z are sums over occupied sites of xi_y weighted by visit counts, so their
conditional joint law is an explicit finite convolution.  Averaging that
conditional zero-probability over walk replicas is an unbiased estimator of
P(Z = 0 at all requested times) with much smaller variance than indicator
counting (Rao-Blackwell).  Each k has one evaluation route:

- k = 1, at every n: `ReturnProbTable`, a trapezoid quadrature of the
  conditional characteristic function over its periodicity cell;
- k >= 2, one walk: `joint_return_prob_sampled` integrates the sites of
  one segment out by an exact 1D convolution, whose pmf covers the whole
  support on its coset x0 * C + d * Z with nothing truncated, and samples
  or enumerates the scenery on shared sites; its exact k = 1 case is the
  table's test reference.

The law itself (`SceneryLaw`) shares its validation, `from_dict` and the
draw with `lattice_walk.StepLaw`.
"""

import math
from fractions import Fraction

import numpy as np

from .lattice_walk import _FiniteLaw

__all__ = [
    "SceneryLaw",
    "joint_return_prob_sampled",
    "ReturnProbTable",
]

_LOG_FLOOR = -800.0  # exp underflows to an exact 0.0 well before this
_ENUMERATE_LIMIT = 4096  # shared-site sceneries enumerated rather than sampled
_BLOCK = 512  # profiles per ReturnProbTable product
_ROWS = 64  # count values per ReturnProbTable table chunk
_PARITY_SITES = 2 ** 23  # float32 parity products are exact below this


class SceneryLaw(_FiniteLaw):
    """Centered integer scenery distribution with its lattice constants.

    d, the gcd of the atoms' differences, is the span of the lattice that
    carries the support: |phi(u)| = 1 exactly on 2 pi Z / d.  Every atom has
    residue a mod d, and d0 = d / gcd(a, d), the least m >= 1 with m * a in
    dZ: Z returns to zero only at multiples of d0.  Both are O(|support|)
    at any atom size; sums of Z bound max|x| * n instead (2**53 in
    `_check_exact_residuals`, 2**63 in `harness.counting_moment_curve`).
    """

    def __post_init__(self):
        super().__post_init__()
        if len(self.support) < 2:
            raise ValueError("degenerate (single-point) scenery law")
        x0 = self.support[0]
        object.__setattr__(self, "_d", math.gcd(*(x - x0 for x in self.support[1:])))
        # phi is real for a mirror-image law, and `char` sums its imaginary
        # parts to exactly 0 when at most one magnitude is nonzero: the
        # terms are -s, (0,) +s.  Two or more magnitudes leave rounding
        # residue of up to 2.8e-17 in the imaginary part, so `char`'s
        # |phi| and angle are not those of the real value.
        mirror = (self.support == tuple(-x for x in reversed(self.support))
                  and self.probs == tuple(reversed(self.probs)))
        object.__setattr__(self, "_real_char", mirror and len(self.support) <= 3)

    # bound in the class itself: the traced benchmark child wraps
    # SceneryLaw.__dict__["sample"] (perfbench/child.py)
    sample = _FiniteLaw._draw

    @classmethod
    def rademacher(cls):
        return cls((-1, 1), (Fraction(1, 2), Fraction(1, 2)))

    sigma2 = _FiniteLaw.variance  # the paper's name for the scenery variance

    @property
    def d(self):
        return self._d

    @property
    def residue(self):
        return self.support[0] % self.d

    @property
    def d0(self):
        return self.d // math.gcd(self.residue, self.d)

    @property
    def max_value(self):
        return max(map(abs, self.support))

    def char(self, u):
        """Characteristic function at scalar or array u (complex in general)."""
        u = np.asarray(u, dtype=np.float64)
        probs = self.float_probs()
        out = np.zeros(u.shape, dtype=np.complex128)
        for x, p in zip(self.support, probs):
            out += p * np.exp(1j * x * u)
        return out if out.shape else complex(out)


def _union_counts(profiles):
    """The (n_sites, k) count matrix over the union of occupied sites.

    Row i counts the visits of every segment to the i-th smallest site
    that some segment visits.  Counts go densely over the union's site
    range, which a walk fills; the rows no segment visits are dropped.
    """
    low = min(int(p.sites[0]) for p in profiles)
    high = max(int(p.sites[-1]) for p in profiles)
    dense = np.zeros((high - low + 1, len(profiles)), dtype=np.int64)
    for j, p in enumerate(profiles):
        dense[p.sites - low, j] = p.counts
    return dense[dense.any(axis=1)]


def _admissible(profiles, law):
    return all(p.length % law.d0 == 0 for p in profiles)


def _pmf_1d(counts, law):
    """Exact pmf of sum over sites of xi_y * count_y, on its coset.

    Returns `(pmf, low)` with `pmf[u] = P(sum = low + d * u)`, `low = x0 * C`
    (x0 the smallest atom, C the count total, d the law's span), over the
    whole support: `C * top + 1` cells, `top = (max - x0) / d`.  The running
    sum lies on the coset x0 * C + d * Z, and atom x shifts it by
    c * (x - x0) / d >= 0, so each step writes the support so far, a window
    that only grows: the cells past it still hold the buffer's zeros, and
    zero padding below u = 0 keeps every shifted read inside the buffer.
    The first product is stored rather than added to 0.0, which a
    full-width pass gets bit for bit; the copy releases both work rows.
    """
    counts = np.asarray(counts, dtype=np.int64).tolist()
    d, x0 = law.d, int(law.support[0])
    atoms = [((int(x) - x0) // d, float(p)) for x, p in zip(law.support, law.probs)]
    p_first, rest, top = atoms[0][1], atoms[1:], atoms[-1][0]
    total = sum(counts)
    pad = max(counts, default=0) * top
    cur, nxt = np.zeros((2, pad + total * top + 1))
    cur[pad] = 1.0
    b = pad + 1
    for c in counts:
        b += c * top
        out = nxt[pad:b]
        np.multiply(cur[pad:b], p_first, out=out)
        for k, p in rest:
            s = c * k
            out += p * cur[pad - s:b - s]
        cur, nxt = nxt, cur
    return cur[pad:].copy(), x0 * total


def _check_exact_residuals(law, n):
    """ValueError unless max|x| * n, which bounds |Z| over n steps, is below 2**53."""
    if law.max_value * n >= 2 ** 53:
        raise ValueError(f"max|x| * n = {law.max_value} * {n} reaches 2**53, the "
                         "bound of the exact float64 shared-site residuals")


def _zero_prob_given_shared(shared_values, shared_counts, pmfs, d):
    """Per scenery row on the shared sites, P(every increment is 0 | row).

    Segment j's sum over its own sites must cancel that row's shared
    residual, so the row's value is the product of pmf_j at minus the
    residual, read on the coset `low + d * u` of `(pmf, low)` (0 off the
    coset or outside the support).  The float64 (BLAS) residuals are
    exact: every partial sum is an integer of at most max|x| * n < 2**53.
    """
    residuals = (shared_values.astype(np.float64)
                 @ shared_counts.astype(np.float64)).astype(np.intp)
    val = np.full(residuals.shape[0], 1.0)
    for j, (pmf, low) in enumerate(pmfs):
        u, off = np.divmod(-low - residuals[:, j], d)
        ok = (off == 0) & (u >= 0) & (u < pmf.size)
        val *= np.where(ok, pmf.take(u, mode="clip"), 0.0)
    return val


def joint_return_prob_sampled(profiles, law, stream, scenery_draws=64):
    """Unbiased estimate of P(all increments = 0 | walk): the k >= 2 evaluator.

    Exactly 0 whenever some segment length is not a multiple of d0 (the
    lattice constraint leaves no mass at zero).  The generic path takes
    k = 1 too, exactly (the 1D convolution's pmf at zero, with no draw
    from `stream`); the tests hold `ReturnProbTable` to that value.
    For k >= 2, sites visited by exactly one segment are integrated out
    exactly by 1D convolution over their whole support; the scenery on
    sites shared between segments is enumerated when it has at most
    `_ENUMERATE_LIMIT` assignments and sampled otherwise.  With no shared
    site the enumeration has one empty row, which reads each pmf at zero.
    Conditioning on more than the bare indicator reduces the variance
    without a k-dimensional convolution.  A walk of n steps with
    max|x| * n >= 2**53 raises ValueError before any draw.
    """
    _check_exact_residuals(law, sum(p.length for p in profiles))
    if not _admissible(profiles, law):
        return 0.0
    k = len(profiles)
    counts = _union_counts(profiles)
    visited = (counts > 0).sum(axis=1)
    shared = visited >= 2
    pmfs = []
    for j in range(k):
        excl = (counts[:, j] > 0) & ~shared
        pmfs.append(_pmf_1d(counts[excl, j], law))
    shared_counts = counts[shared]
    nsh = shared_counts.shape[0]
    nsup = len(law.support)
    if nsup ** nsh <= _ENUMERATE_LIMIT:
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
        val = _zero_prob_given_shared(choice, shared_counts, pmfs, law.d)
        return float(np.dot(weight, val))

    draws = law.sample(stream, (scenery_draws, nsh))
    return float(_zero_prob_given_shared(draws, shared_counts, pmfs, law.d).mean())


def _cos_char(law, u):
    """phi(u) of a law with a real `char`: the cosine sum in support order.

    Bit for bit `law.char(u).real`, in one float table and in place.
    """
    phi = np.zeros_like(u)
    term = np.empty_like(u)
    for x, p in zip(law.support, law.float_probs()):
        np.multiply(u, x, out=term)
        np.cos(term, out=term)
        term *= p
        phi += term
    return phi


def _log_magnitude(mag):
    """log|phi| from |phi|, floored at _LOG_FLOOR where |phi| is 0."""
    return np.where(mag > 0, np.log(np.maximum(mag, 1e-320)), _LOG_FLOOR)


class ReturnProbTable:
    """Batched k=1 conditional zero-probabilities sharing one node grid.

    A periodic trapezoid sum of the conditional characteristic function
    over one periodicity cell, with tables over (count value, node) reused
    by every profile in the batch, so the per-profile work is matrix
    products.  The node count is
    fixed upfront from the aliasing bound over the whole batch, which keeps
    results within 1e-12 of the exact value.

    The tables hold log|phi| and the phase of phi.  For a law whose `char`
    is exactly real (`SceneryLaw._real_char`: a mirror image on {-a, 0, a})
    phi is the cosine sum in support order, the real part of `char` bit for
    bit, and the phase is its sign: the product over sites is the exp of
    the log-magnitude product, negated where the product with `phi < 0` is
    odd.  That is the complex route's value bit for bit, since the cos of
    a sum of multiples of pi is exactly +-1 at these sizes.  Any other law
    takes `np.angle` of the complex `char` and multiplies by the cos of the
    phase product.

    The tables are built `_ROWS` count values at a time into preallocated
    arrays, the sign table as float32 0/1.  Its product with the count
    multiplicities is taken in float32, exact while a profile has fewer
    than 2**23 sites (no caller builds more than 2**18 positions; a larger
    profile raises ValueError), and signs the terms in place.  Each block's
    arrays are released before the next, so memory is
    O((cmax + _BLOCK) * nodes).
    """

    def __init__(self, law):
        self.law = law

    def evaluate(self, profiles):
        law = self.law
        out = np.zeros(len(profiles))
        d0 = law.d0
        todo = [i for i, p in enumerate(profiles) if p.length % d0 == 0]
        if not todo:
            return out
        real = law._real_char
        if real and max(profiles[i].counts.size for i in todo) >= _PARITY_SITES:
            raise ValueError(
                f"a profile has 2**23 = {_PARITY_SITES} sites or more; the "
                "float32 sign parity is exact only below that")
        cmax = max(int(profiles[i].counts.max()) for i in todo)
        vmax = max(float(np.dot(profiles[i].counts, profiles[i].counts)) for i in todo)
        d = law.d
        nodes = int(math.ceil(8.0 * law.max_value * math.sqrt(vmax) / d))
        nodes = max(64, nodes + (nodes % 2))
        half = nodes // 2
        theta = (2.0 * math.pi / (d * nodes)) * np.arange(half + 1)
        # every table operation is elementwise, so a chunk of rows gets the
        # bits the whole table would
        logmag = np.empty((cmax, half + 1))
        phase = np.empty((cmax, half + 1), dtype=np.float32 if real else np.float64)
        for lo in range(0, cmax, _ROWS):
            hi = min(lo + _ROWS, cmax)
            u = np.outer(np.arange(lo + 1, hi + 1, dtype=np.float64), theta)
            if real:
                phi = _cos_char(law, u)
                phase[lo:hi] = phi < 0
                np.abs(phi, out=phi)
            else:
                phi = law.char(u)
                phase[lo:hi] = np.angle(phi)
                phi = np.abs(phi)
            logmag[lo:hi] = _log_magnitude(phi)
        del u, phi
        w = np.full(half + 1, 2.0 / nodes)
        w[0] = w[-1] = 1.0 / nodes
        for lo in range(0, len(todo), _BLOCK):
            batch = todo[lo : lo + _BLOCK]
            mults = np.empty((len(batch), cmax))
            for row, i in enumerate(batch):
                c = profiles[i].counts
                mults[row] = np.bincount(c - 1, minlength=cmax)[:cmax]
            terms = mults @ logmag
            np.maximum(terms, _LOG_FLOOR, out=terms)
            np.exp(terms, out=terms)
            if real:
                # the product counts sites, so it is an exact integer below
                # 2**23; plus 2**23 it lies in [2**23, 2**24), where a
                # float32's last mantissa bit is its parity, and the shift
                # moves that bit to the sign: -0.0 where odd, +0.0 where
                # even.  terms are >= 0, so copysign negates the odd ones
                odd = mults.astype(np.float32) @ phase
                odd += 2.0 ** 23
                bits = odd.view(np.uint32)
                np.left_shift(bits, 31, out=bits)
                np.copysign(terms, odd, out=terms)
                del odd, bits
            else:
                cos = mults @ phase
                np.cos(cos, out=cos)
                terms *= cos
                del cos
            out[batch] = np.maximum(terms @ w, 0.0)
            del mults, terms
        return out
