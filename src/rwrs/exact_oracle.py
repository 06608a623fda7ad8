"""Exact ground truth at tiny n by total path enumeration.

Every oracle here walks the paths with one enumerator, `_gray_paths`, in
mixed-radix Gray-code order: one step changes per transition, so positions
and segment local times are patched incrementally instead of being
rebuilt.  Given a path, `exact_joint_return` evaluates the scenery through
`scenery.conditional_return_prob` (float mode) or an exact rational
convolution; the counting moment and the brute-force cross-check enumerate
the scenery directly.  Probabilities accumulate either in compensated
floating point or, when both laws have rational weights, exactly over the
rationals (the reference mode for acceptance checks).
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
    "exact_joint_return_bruteforce",
]

_BUDGET = 10 ** 8


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


def _pmf_exact_at_zero(counts_matrix, scen):
    """Exact rational P(all weighted scenery sums are 0) by dict convolution."""
    rat = _rational_weights(scen)
    denom, nums = rat
    cur = {tuple([0] * counts_matrix.shape[1]): Fraction(1)}
    atoms = list(zip(scen.support, [Fraction(n, denom) for n in nums]))
    for row in counts_matrix:
        nxt = {}
        for key, w in cur.items():
            for x, p in atoms:
                new = tuple(key[i] + int(row[i]) * int(x) for i in range(len(key)))
                nxt[new] = nxt.get(new, Fraction(0)) + w * p
        cur = nxt
    zero = tuple([0] * counts_matrix.shape[1])
    return cur.get(zero, Fraction(0))


def exact_joint_return(step, scen, times, rational=False):
    """P(Z at every requested time = 0) by total path enumeration.

    Sums path-probability times the conditional zero-probability given the
    walk.  Exactly 0 when some segment length is off the d0 lattice.
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

    k = len(times)
    use_rational = rational and _rational_weights(step) and _rational_weights(scen)
    acc = _Neumaier()
    acc_exact = Fraction(0)
    denom_steps = _rational_weights(step)[0] if use_rational else 1
    for counts, _, weight, numerator in _gray_paths(step, n_k, times):
        if use_rational:
            matrix = np.array(list(counts.values()), dtype=np.int64).reshape(-1, k)
            cond = _pmf_exact_at_zero(matrix, scen)
            acc_exact += Fraction(numerator, denom_steps ** n_k) * cond
        else:
            profiles = _profiles_from_counts(counts, times)
            acc.add(weight * conditional_return_prob(profiles, scen))
    if use_rational:
        return ExactResult(float(acc_exact), count, "rational", acc_exact)
    return ExactResult(acc.total, count, "compensated-float", None)


def exact_joint_return_bruteforce(step, scen, times):
    """Independent cross-check: direct (path, scenery) double enumeration.

    No conditional factorization at all; every scenery assignment on the
    occupied sites is enumerated with exact rational weights.
    """
    times = [int(t) for t in times]
    n_k = times[-1]
    _check_budget(step, n_k)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    if not (rat_s and rat_x):
        raise ValueError("bruteforce cross-check requires rational laws")
    supportx = np.asarray(scen.support, dtype=np.int64)
    numx = np.asarray(rat_x[1], dtype=np.int64)
    k = len(times)
    total = Fraction(0)
    nsup = len(scen.support)
    for counts, _, _, numerator in _gray_paths(step, n_k, times):
        sites = list(counts)
        matrix = np.array([counts[s] for s in sites], dtype=np.int64).reshape(-1, k)
        r = len(sites)
        if nsup ** r > 4 * 10 ** 6:
            raise BudgetExceededError("scenery enumeration too large")
        idx = np.arange(nsup ** r)
        inc = np.zeros((nsup ** r, k), dtype=np.int64)
        wnum = np.ones(nsup ** r, dtype=object)
        for i in range(r):
            digit = (idx // nsup ** i) % nsup
            inc += supportx[digit, None] * matrix[i]
            wnum = wnum * numx[digit]
        hit = np.all(inc == 0, axis=1)
        scen_num = int(sum(wnum[hit]))
        total += Fraction(numerator * scen_num,
                          rat_s[0] ** n_k * rat_x[0] ** r)
    return total


def exact_counting_moment(step, scen, n, k):
    """Exact E[(number of m <= n with Z_m = 0)^k] by double enumeration.

    Z_m needs the ordered visit sequence, not just the profile, so the
    scenery is enumerated (vectorized) on each path's occupied sites.
    """
    n = int(n)
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    _check_budget(step, n)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    use_rational = bool(rat_s and rat_x)
    supportx = np.asarray(scen.support, dtype=np.int64)
    probsx = scen.float_probs()
    nsup = len(scen.support)

    acc = _Neumaier()
    acc_exact = Fraction(0)
    # enumerate n steps (positions S_0..S_{n-1}; the final step is inert)
    for _, pos, weight, numerator in _gray_paths(step, n, [n]):
        positions = np.asarray(pos[:n], dtype=np.int64)
        sites, seq = np.unique(positions, return_inverse=True)
        r = sites.size
        if nsup ** r > 4 * 10 ** 6:
            raise BudgetExceededError("scenery enumeration too large")
        idx = np.arange(nsup ** r)
        digits = np.empty((idx.size, r), dtype=np.int64)
        for i in range(r):
            digits[:, i] = (idx // nsup ** i) % nsup
        xi_seq = supportx[digits[:, seq]]
        zeros = (np.cumsum(xi_seq, axis=1) == 0).sum(axis=1)
        powed = zeros.astype(np.float64) ** k
        if use_rational:
            wnum = np.ones(idx.size, dtype=object)
            for i in range(r):
                wnum = wnum * np.asarray(rat_x[1], dtype=np.int64)[digits[:, i]]
            combined = int(sum(wnum * zeros.astype(object) ** k))
            acc_exact += Fraction(numerator * combined,
                                  rat_s[0] ** n * rat_x[0] ** r)
        else:
            wscen = np.prod(probsx[digits], axis=1)
            acc.add(weight * float(np.dot(wscen, powed)))
    return float(acc_exact) if use_rational else acc.total


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
