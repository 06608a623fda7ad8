"""Exact ground truth at tiny n by total path enumeration.

Every oracle here walks the paths with one enumerator, `_gray_paths`, in
mixed-radix Gray-code order: one step changes per transition, so positions
and segment local times are patched incrementally instead of being
rebuilt.  Given a path, `exact_joint_return` evaluates the scenery through
`scenery.conditional_return_prob` (float mode) or an exact integer
convolution shared by every path with the same multiset of per-site count
rows (rational mode); the counting moment enumerates the scenery directly.
Probabilities accumulate either in compensated floating point or, when
both laws have rational weights, exactly over the rationals (the reference
mode for acceptance checks).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .lattice_walk import LocalTimeProfile
from .scenery import conditional_return_prob

__all__ = [
    "ExactResult",
    "exact_joint_return",
    "exact_counting_moment",
    "exact_char_function",
]

_BUDGET = 10 ** 8
_SCENERY_BUDGET = 4 * 10 ** 6


@dataclass(frozen=True)
class ExactResult:
    """Value accumulated in extended precision plus enumeration bookkeeping."""

    value: float
    path_count: int
    note: str = ""
    exact: Fraction | None = None


class _Neumaier:
    """Compensated scalar accumulator (Neumaier variant of Kahan summation)."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x):
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self):
        return self.s + self.c


def _check_budget(step, n_steps):
    count = len(step.support) ** n_steps
    if count > _BUDGET:
        raise BudgetExceededError(
            f"{len(step.support)}^{n_steps} paths exceed the {_BUDGET:.0e} budget"
        )
    return count


def _check_scenery_budget(scen, n_sites):
    """The counting moment enumerates every scenery on a path's sites."""
    if len(scen.support) ** n_sites > _SCENERY_BUDGET:
        raise BudgetExceededError(
            f"{len(scen.support)}^{n_sites} scenery assignments exceed the "
            f"{_SCENERY_BUDGET:.0e} budget"
        )


def _rational_weights(law):
    """Common denominator and integer numerators, or None if not rational."""
    if not all(isinstance(p, Fraction) for p in law.probs):
        return None
    denom = 1
    for p in law.probs:
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    nums = [int(p * denom) for p in law.probs]
    return denom, nums


def _gray_paths(step, n_steps, times):
    """Iterate all |support|^n_steps paths, patching state incrementally.

    Yields (counts, pos, weight, numerator) per path, where counts maps
    site -> per-segment visit vector over positions S_0..S_{n_steps-1}
    split at the given times, and pos is the list of positions
    S_0..S_{n_steps}.  Both are patched in place, so a caller copies what
    it keeps.  Digit 0 of the Gray code drives the final step, so the most
    frequent transitions touch the fewest positions.
    """
    support = [int(x) for x in step.support]
    probs = [float(p) for p in step.probs]
    b = len(support)
    L = n_steps
    rat = _rational_weights(step)
    seg_of = np.empty(L, dtype=np.int64)
    prev = 0
    for i, t in enumerate(times):
        seg_of[prev:t] = i
        prev = t
    k = len(times)

    # initial path: every step equals support[0]
    pos = [t * support[0] for t in range(L + 1)]
    counts = {}
    for t in range(L):
        vec = counts.setdefault(pos[t], np.zeros(k, dtype=np.int64))
        vec[seg_of[t]] += 1
    weight = probs[0] ** L
    numerator = (rat[1][0] ** L) if rat else 0

    a = [0] * L
    f = list(range(L + 1))
    o = [1] * L
    while True:
        yield counts, pos, weight, numerator
        j = f[0]
        f[0] = 0
        if j == L:
            return
        old = a[j]
        a[j] += o[j]
        new = a[j]
        if new == 0 or new == b - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1
        # digit j drives step number L - j (1-based), i.e. position index L - j on
        delta = support[new] - support[old]
        weight *= probs[new] / probs[old]
        if rat:
            numerator = numerator * rat[1][new] // rat[1][old]
        start = L - j
        for t in range(start, L):
            site = pos[t]
            vec = counts[site]
            vec[seg_of[t]] -= 1
            if not vec.any():
                del counts[site]
            site += delta
            pos[t] = site
            vec = counts.setdefault(site, np.zeros(k, dtype=np.int64))
            vec[seg_of[t]] += 1
        pos[L] += delta


def _profiles_from_counts(counts, times):
    prev = 0
    profiles = []
    k = len(times)
    sites = sorted(counts)
    matrix = np.array([counts[s] for s in sites], dtype=np.int64).reshape(-1, k)
    sites = np.array(sites, dtype=np.int64)
    for i, t in enumerate(times):
        mask = matrix[:, i] > 0
        profiles.append(
            LocalTimeProfile(sites[mask], matrix[mask, i], t - prev, 0)
        )
        prev = t
    return profiles


def _zero_prob_exact(rows, atoms, denom):
    """Exact P(every weighted scenery sum is 0) given per-site count rows.

    `atoms` pairs each scenery value with its integer numerator over
    `denom`.  The dict convolution carries integer numerators over
    denom ** (rows so far), so only the result is a Fraction.
    """
    zero = (0,) * len(rows[0])
    cur = {zero: 1}
    for row in rows:
        nxt = {}
        for key, w in cur.items():
            for x, num in atoms:
                new = tuple(a + c * x for a, c in zip(key, row))
                nxt[new] = nxt.get(new, 0) + w * num
        cur = nxt
    return Fraction(cur.get(zero, 0), denom ** len(rows))


def exact_joint_return(step, scen, times, rational=False):
    """P(Z at every requested time = 0) by total path enumeration.

    Sums path-probability times the conditional zero-probability given the
    walk.  Exactly 0 when some segment length is off the d0 lattice.  The
    scenery is i.i.d. across sites, so that conditional probability
    depends only on the multiset of per-site count rows: the rational mode
    sums the path numerators per multiset and convolves once per distinct
    multiset.
    """
    times = [int(t) for t in times]
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(b >= c for b, c in zip(times, times[1:])):
        raise ValueError("times must be increasing")
    n_k = times[-1]
    count = _check_budget(step, n_k)
    seg_lengths = [b - a for a, b in zip([0] + times[:-1], times)]
    if any(n % scen.d0 for n in seg_lengths):
        return ExactResult(0.0, count, "lattice-vanishing",
                           Fraction(0) if rational else None)

    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    if rational and rat_s and rat_x:
        weights = {}
        for counts, _, _, numerator in _gray_paths(step, n_k, times):
            key = tuple(sorted(tuple(v.tolist()) for v in counts.values()))
            weights[key] = weights.get(key, 0) + numerator
        atoms = list(zip((int(x) for x in scen.support), rat_x[1]))
        total = sum(w * _zero_prob_exact(key, atoms, rat_x[0])
                    for key, w in weights.items())
        exact = Fraction(total, rat_s[0] ** n_k)
        return ExactResult(float(exact), count, "rational", exact)
    acc = _Neumaier()
    for counts, _, weight, _ in _gray_paths(step, n_k, times):
        profiles = _profiles_from_counts(counts, times)
        acc.add(weight * conditional_return_prob(profiles, scen))
    return ExactResult(acc.total, count, "compensated-float", None)


def exact_counting_moment(step, scen, n, k):
    """Exact E[(number of m <= n with Z_m = 0)^k] by double enumeration.

    Z_m needs the ordered visit sequence, not just the profile, so the
    scenery is enumerated (vectorized) on each path's occupied sites, from
    one table of assignments per occupied-site count.  Z_1..Z_n read only
    S_0..S_{n-1}, so the rational mode enumerates n - 1 steps: the final
    step's numerators sum to its denominator.  The float mode enumerates
    all n steps.
    """
    n = int(n)
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    _check_budget(step, n)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    use_rational = bool(rat_s and rat_x)
    supportx = np.asarray(scen.support, dtype=np.int64)
    nsup = len(scen.support)
    tables = {}

    def table(r):
        """Scenery values and weights of all nsup**r assignments to r sites."""
        _check_scenery_budget(scen, r)
        idx = np.arange(nsup ** r)
        digits = np.empty((idx.size, r), dtype=np.int64)
        for i in range(r):
            digits[:, i] = (idx // nsup ** i) % nsup
        if not use_rational:
            return supportx[digits], np.prod(scen.float_probs()[digits], axis=1)
        nums = np.asarray(rat_x[1], dtype=object)
        return supportx[digits], nums[digits].prod(axis=1)

    acc = _Neumaier()
    by_r = {}
    for _, pos, weight, numerator in _gray_paths(
            step, n - 1 if use_rational else n, [n]):
        sites, seq = np.unique(np.asarray(pos[:n], dtype=np.int64),
                               return_inverse=True)
        r = sites.size
        if r not in tables:
            tables[r] = table(r)
        xi, wscen = tables[r]
        zeros = (np.cumsum(xi[:, seq], axis=1) == 0).sum(axis=1)
        combined = np.dot(wscen, zeros.astype(wscen.dtype) ** k)
        if use_rational:
            by_r[r] = by_r.get(r, 0) + numerator * int(combined)
        else:
            acc.add(weight * float(combined))
    if not use_rational:
        return acc.total
    total = sum(Fraction(num, rat_x[0] ** r) for r, num in by_r.items())
    return float(total / rat_s[0] ** (n - 1))


def exact_char_function(step, scen, times, theta):
    """E[prod_y phi_xi(sum_j theta_j N_j(y))] by path enumeration."""
    times = [int(t) for t in times]
    n_k = times[-1]
    _check_budget(step, n_k)
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size != len(times):
        raise ValueError("theta must have one component per time")
    re = _Neumaier()
    im = _Neumaier()
    for counts, _, weight, _ in _gray_paths(step, n_k, times):
        matrix = np.array(list(counts.values()), dtype=np.float64)
        u = matrix @ theta
        val = complex(np.prod(scen.char(u)))
        re.add(weight * val.real)
        im.add(weight * val.imag)
    return complex(re.total, im.total)
