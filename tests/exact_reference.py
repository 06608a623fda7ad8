"""Reference oracles that cross-check `rwrs.exact_oracle`.

These are slow, direct implementations kept only for the tests: the
per-path rational joint return (one Fraction convolution per path), the
per-path counting moment over all n steps, a brute-force double
enumeration over paths and sceneries with no conditional factorization,
and the characteristic function of the segment increments.
"""

from fractions import Fraction

import numpy as np

from rwrs.errors import BudgetExceededError
from rwrs.exact_oracle import (
    _check_budget,
    _gray_paths,
    _Neumaier,
    _rational_weights,
)


def pmf_exact_at_zero(counts_matrix, scen):
    """Exact rational P(all weighted scenery sums are 0) by dict convolution."""
    denom, nums = _rational_weights(scen)
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
    for counts, _, _, numerator in _gray_paths(step, n_k, times):
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
    use_rational = bool(rat_s and rat_x)
    supportx = np.asarray(scen.support, dtype=np.int64)
    probsx = scen.float_probs()
    nsup = len(scen.support)

    acc = _Neumaier()
    acc_exact = Fraction(0)
    for _, pos, weight, numerator in _gray_paths(step, n, [n]):
        positions = np.asarray(pos[:n], dtype=np.int64)
        sites, seq = np.unique(positions, return_inverse=True)
        r = sites.size
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
