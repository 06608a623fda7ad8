"""Exact ground truth at tiny n by total path enumeration.

One exact algorithm: the joint return.  It walks the paths with one plain
enumerator, `_paths`, which rebuilds each path's positions from its
steps.  `Z` at time n reads only S_0..S_{n-1}, so a joint return whose
last time is n enumerates n - 1 steps: the final step's numerators sum
to its denominator.  The scenery is evaluated by an exact integer
convolution shared by every path with the same multiset of per-site
count rows.  The counting moment is a surjection-weighted sum of joint
returns over the sets of at most k times.  Both laws must have
`Fraction` probabilities, and probabilities accumulate exactly over the
rationals as integer numerators over a common denominator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product

from .errors import BudgetExceededError

__all__ = [
    "ExactResult",
    "exact_joint_return",
    "exact_counting_moment",
]

_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ExactResult:
    """Exact rational value, its float, and the |support|^n paths it sums over."""

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
    denom = 1
    for p in law.probs:
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    nums = [int(p * denom) for p in law.probs]
    return denom, nums


def _paths(step, n_steps):
    """Every path of n_steps steps, in lexicographic order of its steps.

    Yields (positions, numerator) per path: the positions S_0..S_{n_steps}
    and the path probability over the step law's common denominator to
    the power n_steps.
    """
    atoms = list(zip((int(x) for x in step.support), _rational_weights(step)[1]))
    for path in product(atoms, repeat=n_steps):
        yield (list(accumulate((x for x, _ in path), initial=0)),
               math.prod(num for _, num in path))


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


def _joint_exact(step, scen, times):
    """Exact P(Z_t = 0 for every t in the increasing positive `times`).

    The scenery is i.i.d. across sites, so the conditional zero-probability
    given the walk depends only on the multiset of per-site count rows: the
    path numerators are summed per multiset and convolved once per distinct
    multiset.  The rows count the visits of S_0..S_{n_k-1}, so n_k - 1
    steps are enumerated.
    """
    n_k = times[-1]
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    seg_lengths = [b - a for a, b in zip([0] + times[:-1], times)]
    if any(n % scen.d0 for n in seg_lengths):
        return Fraction(0)
    seg_of = [j for j, length in enumerate(seg_lengths) for _ in range(length)]
    weights = {}
    for pos, numerator in _paths(step, n_k - 1):
        rows = {}
        for site, j in zip(pos, seg_of):
            rows.setdefault(site, [0] * len(times))[j] += 1
        key = tuple(sorted(map(tuple, rows.values())))
        weights[key] = weights.get(key, 0) + numerator
    atoms = list(zip((int(x) for x in scen.support), rat_x[1]))
    total = sum(w * _zero_prob_exact(key, atoms, rat_x[0])
                for key, w in weights.items())
    return Fraction(total, rat_s[0] ** (n_k - 1))


def exact_joint_return(step, scen, times):
    """P(Z at every requested time = 0) by total path enumeration.

    Sums path-probability times the conditional zero-probability given the
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
    exact = _joint_exact(step, scen, times)
    return ExactResult(float(exact), count, exact)


def exact_counting_moment(step, scen, n, k):
    """Exact E[N_n^k], N_n the number of m <= n with Z_m = 0.

    Expanding the k-th power, each set S of j distinct times is hit by
    the surj(k, j) maps of the k factors onto S, so
    E[N_n^k] = sum_{j <= k} surj(k, j) sum_{|S| = j} P(Z_s = 0 for s in S),
    a sum of exact joint returns.  Both laws need `Fraction` probabilities
    (ValueError otherwise); BudgetExceededError is raised before any
    enumeration when |support|^n, or the paths those joint returns
    enumerate, exceed the budget.
    """
    n, k = int(n), int(k)
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    _check_budget(step, n)
    # the C(m-1, j-1) sets of j times with last time m enumerate
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
        total += surj * sum(_joint_exact(step, scen, list(times))
                            for times in combinations(range(1, n + 1), j))
    return float(total)
