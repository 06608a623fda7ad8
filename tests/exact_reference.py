"""Reference oracles that cross-check `rwrs.exact_oracle`.

These are slow, direct implementations kept only for the tests: the
per-path rational joint return (one exact convolution per path), the
per-path counting moment, a brute-force double enumeration over paths
and sceneries with no conditional factorization, and the characteristic
function of the segment increments, summed in compensated floating point.
Each enumerates all n steps of its paths with its own enumerator,
`_all_paths`, so the oracle's n - 1 step shortcut is checked, not shared.
"""

import math
from fractions import Fraction

import numpy as np

from rwrs.errors import BudgetExceededError
from rwrs.exact_oracle import _check_budget, _rational_weights


def _all_paths(step, n_steps, times):
    """Every path of n_steps steps, indexed by its base-|support| digits.

    Yields (counts, positions, numerator) per path: counts maps site ->
    per-segment visit vector over S_0..S_{n_steps-1} split at the given
    times, positions are S_0..S_{n_steps}, and numerator is the path
    probability over the step law's common denominator to the power
    n_steps.
    """
    support = [int(x) for x in step.support]
    nums = _rational_weights(step)[1]
    b = len(support)
    seg_of = np.searchsorted(np.asarray(times), np.arange(n_steps), side="right")
    for idx in range(b ** n_steps):
        digits = [(idx // b ** j) % b for j in range(n_steps)]
        positions = [0]
        for d in digits:
            positions.append(positions[-1] + support[d])
        counts = {}
        for t in range(n_steps):
            vec = counts.setdefault(positions[t], np.zeros(len(times), dtype=np.int64))
            vec[seg_of[t]] += 1
        yield counts, positions, math.prod(nums[d] for d in digits)


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


def pmf_exact_at_zero(counts_matrix, scen):
    """Exact rational P(all weighted scenery sums are 0) by dict convolution.

    The weights are integer numerators over denom ** (rows so far), so a
    single Fraction is built, at the end.
    """
    denom, nums = _rational_weights(scen)
    zero = tuple([0] * counts_matrix.shape[1])
    cur = {zero: 1}
    atoms = list(zip([int(x) for x in scen.support], nums))
    rows = counts_matrix.tolist()
    for row in rows:
        nxt = {}
        for key, w in cur.items():
            for x, num in atoms:
                new = tuple(key[i] + row[i] * x for i in range(len(key)))
                nxt[new] = nxt.get(new, 0) + w * num
        cur = nxt
    return Fraction(cur.get(zero, 0), denom ** len(rows))


def joint_return_per_path(step, scen, times):
    """(exact value, path count) of the joint return, one convolution per path.

    Both laws must be rational and every segment length admissible.
    """
    times = [int(t) for t in times]
    n_k = times[-1]
    count = _check_budget(step, n_k)
    k = len(times)
    denom_steps = _rational_weights(step)[0]
    total = Fraction(0)
    for counts, _, numerator in _all_paths(step, n_k, times):
        matrix = np.array(list(counts.values()), dtype=np.int64).reshape(-1, k)
        cond = pmf_exact_at_zero(matrix, scen)
        total += Fraction(numerator, denom_steps ** n_k) * cond
    return total, count


def counting_moment_per_path(step, scen, n, k):
    """E[(number of m <= n with Z_m = 0)^k], enumerating all n steps per path."""
    n = int(n)
    _check_budget(step, n)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    supportx = np.asarray(scen.support, dtype=np.int64)
    nsup = len(scen.support)

    acc_exact = Fraction(0)
    for _, pos, numerator in _all_paths(step, n, [n]):
        positions = np.asarray(pos[:n], dtype=np.int64)
        sites, seq = np.unique(positions, return_inverse=True)
        r = sites.size
        idx = np.arange(nsup ** r)
        digits = np.empty((idx.size, r), dtype=np.int64)
        for i in range(r):
            digits[:, i] = (idx // nsup ** i) % nsup
        xi_seq = supportx[digits[:, seq]]
        zeros = (np.cumsum(xi_seq, axis=1) == 0).sum(axis=1)
        wnum = np.ones(idx.size, dtype=object)
        for i in range(r):
            wnum = wnum * np.asarray(rat_x[1], dtype=np.int64)[digits[:, i]]
        combined = int(sum(wnum * zeros.astype(object) ** k))
        acc_exact += Fraction(numerator * combined,
                              rat_s[0] ** n * rat_x[0] ** r)
    return float(acc_exact)


def joint_return_bruteforce(step, scen, times):
    """Direct (path, scenery) double enumeration with exact rational weights.

    No conditional factorization at all; every scenery assignment on the
    occupied sites is enumerated.
    """
    times = [int(t) for t in times]
    n_k = times[-1]
    _check_budget(step, n_k)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    supportx = np.asarray(scen.support, dtype=np.int64)
    numx = np.asarray(rat_x[1], dtype=np.int64)
    k = len(times)
    total = Fraction(0)
    nsup = len(scen.support)
    for counts, _, numerator in _all_paths(step, n_k, times):
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


def exact_char_function(step, scen, times, theta):
    """E[prod_y phi_xi(sum_j theta_j N_j(y))] by path enumeration."""
    times = [int(t) for t in times]
    n_k = times[-1]
    _check_budget(step, n_k)
    denom = _rational_weights(step)[0] ** n_k
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.size != len(times):
        raise ValueError("theta must have one component per time")
    re = _Neumaier()
    im = _Neumaier()
    for counts, _, numerator in _all_paths(step, n_k, times):
        weight = numerator / denom
        matrix = np.array(list(counts.values()), dtype=np.float64)
        u = matrix @ theta
        val = complex(np.prod(scen.char(u)))
        re.add(weight * val.real)
        im.add(weight * val.imag)
    return complex(re.total, im.total)
