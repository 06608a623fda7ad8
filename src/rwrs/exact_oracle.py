"""Exact ground truth at small n by dynamic programming over walk states.

One exact algorithm: the joint return, by one forward pass over walk
states.  A state is the walk's position relative to its visited range
and the per-site count rows over that range, one column per segment
between requested times; a segment's column is frozen once its time has
passed.  Its weight is the integer numerator of every path that reaches
it, so paths that reach the same state are merged.  `Z` at time m reads
only S_0..S_{m-1}, so after m - 1 steps the pass reads off the return at
m: the states are grouped by their multiset of nonzero rows, and each
group is evaluated by one exact integer convolution over the scenery.
One pass after a fixed head of earlier times reads every last time up to
n.  The counting moment is a surjection-weighted sum of those passes over
the heads of at most k - 1 times.  Both laws must have `Fraction`
probabilities, and probabilities accumulate exactly over the rationals as
integer numerators over a common denominator.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceededError

__all__ = [
    "ExactResult",
    "exact_joint_return",
    "exact_counting_moment",
]

_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ExactResult:
    """Exact rational value and its float.

    `path_count` is the |support|^n paths that the value sums over, not the
    work done: the dynamic program merges them into far fewer states.
    """

    value: float
    path_count: int
    exact: Fraction


def _check_budget(step, n_steps):
    count = len(step.support) ** n_steps
    if count > _BUDGET:
        raise BudgetExceededError(
            f"{len(step.support)}^{n_steps} paths exceed the {_BUDGET:.0e} budget"
        )
    return count


def _rational_weights(law):
    """Common denominator and integer numerators of a `Fraction` law."""
    if not all(isinstance(p, Fraction) for p in law.probs):
        raise ValueError("the exact oracle needs Fraction probabilities "
                         f"for both laws, got {law.probs}")
    denom = math.lcm(*(p.denominator for p in law.probs))
    nums = [int(p * denom) for p in law.probs]
    return denom, nums


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


def _advance(states, moves, col, k):
    """One step of every state, the arrival counted in column `col`."""
    nxt = {}
    for (pos, rows), w in states.items():
        width = len(rows) // k
        for x, num in moves:
            p, r = pos + x, rows
            if p < 0:
                p, r = 0, (0,) * (-p * k) + r
            elif p >= width:
                r = r + (0,) * ((p - width + 1) * k)
            i = p * k + col
            key = (p, r[:i] + (r[i] + 1,) + r[i + 1:])
            nxt[key] = nxt.get(key, 0) + w * num
    return nxt


def _joint_exact(step, scen, head, lasts):
    """Exact sum over m in `lasts` of P(Z_s = 0 for s in `head`, and at m).

    `head` holds the increasing positive earlier times; an m that does not
    exceed them is skipped.  A state is (position relative to the leftmost
    visited site, the flat count rows from there to the rightmost), and
    the scenery is i.i.d. across sites, so only the multiset of nonzero
    rows reaches the convolution.
    """
    denom_s, nums_s = _rational_weights(step)
    moves = list(zip((int(x) for x in step.support), nums_s))
    denom_x, nums_x = _rational_weights(scen)
    atoms = list(zip((int(x) for x in scen.support), nums_x))
    k = len(head) + 1
    bounds = [0, *head]
    if any((b - a) % scen.d0 for a, b in zip(bounds, head)):
        return Fraction(0)
    lasts = {m for m in lasts
             if m > bounds[-1] and (m - bounds[-1]) % scen.d0 == 0}
    if not lasts:
        return Fraction(0)
    states = {(0, (1,) + (0,) * (k - 1)): 1}
    total = Fraction(0)
    for m in range(1, max(lasts) + 1):
        if m > 1:
            states = _advance(states, moves, bisect_right(head, m - 1), k)
        if m in lasts:
            weights = {}
            for (_, rows), w in states.items():
                # the flat rows, k counts per site, unvisited sites dropped
                key = tuple(sorted(r for r in zip(*[iter(rows)] * k) if any(r)))
                weights[key] = weights.get(key, 0) + w
            total += Fraction(sum(w * _zero_prob_exact(key, atoms, denom_x)
                                  for key, w in weights.items()),
                              denom_s ** (m - 1))
    return total


def exact_joint_return(step, scen, times):
    """P(Z at every requested time = 0) by one pass over walk states.

    Sums state weight times the conditional zero-probability given the
    walk, exactly over the rationals (`ExactResult.exact`).  Exactly 0 when
    some segment length is off the d0 lattice.  Both laws need `Fraction`
    probabilities (ValueError otherwise).
    """
    times = [int(t) for t in times]
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(b >= c for b, c in zip(times, times[1:])):
        raise ValueError("times must be increasing")
    count = _check_budget(step, times[-1])
    exact = _joint_exact(step, scen, times[:-1], [times[-1]])
    return ExactResult(float(exact), count, exact)


def exact_counting_moment(step, scen, n, k):
    """Exact E[N_n^k], N_n the number of m <= n with Z_m = 0.

    Expanding the k-th power, each set S of j distinct times is hit by
    the surj(k, j) maps of the k factors onto S, so
    E[N_n^k] = sum_{j <= k} surj(k, j) sum_{|S| = j} P(Z_s = 0 for s in S),
    a sum of exact joint returns.  Both laws need `Fraction` probabilities
    (ValueError otherwise); BudgetExceededError is raised before any pass
    when |support|^n, or the paths those joint returns sum over, exceed the
    budget.  One pass per head of j - 1 times reads every last time.
    """
    n, k = int(n), int(k)
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    _check_budget(step, n)
    # the C(m-1, j-1) sets of j times with last time m sum over
    # |support|^(m-1) paths each; at k = 1 that is below |support|^n
    b = len(step.support)
    count = sum(math.comb(m - 1, j - 1) * b ** (m - 1)
                for j in range(1, min(k, n) + 1) for m in range(j, n + 1))
    if count > _BUDGET:
        raise BudgetExceededError(
            f"the k = {k} moment at n = {n} enumerates {count} paths, "
            f"over the {_BUDGET:.0e} budget"
        )
    total = Fraction(0)
    for j in range(1, min(k, n) + 1):
        surj = sum((-1) ** i * math.comb(j, i) * (j - i) ** k for i in range(j + 1))
        total += surj * sum(_joint_exact(step, scen, head, range(1, n + 1))
                            for head in combinations(range(1, n), j - 1))
    return float(total)
