"""Exact ground truth at tiny n by total path enumeration.

Every oracle here walks the paths with one plain enumerator, `_paths`,
which rebuilds each path's positions from its steps.  `Z` at time n reads
only S_0..S_{n-1}, so an oracle whose last time is n enumerates n - 1
steps: the final step's numerators sum to its denominator.  Both laws
must have `Fraction` probabilities, and probabilities accumulate exactly
over the rationals as integer numerators over a common denominator.
`exact_joint_return` evaluates the scenery by an exact integer
convolution shared by every path with the same multiset of per-site
count rows; the counting moment enumerates the scenery directly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from .errors import BudgetExceededError

__all__ = [
    "ExactResult",
    "exact_joint_return",
    "exact_counting_moment",
]

_BUDGET = 10 ** 8
_SCENERY_BUDGET = 4 * 10 ** 6


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


def _check_scenery_budget(scen, n_sites):
    """The counting moment enumerates every scenery on a path's sites."""
    if len(scen.support) ** n_sites > _SCENERY_BUDGET:
        raise BudgetExceededError(
            f"{len(scen.support)}^{n_sites} scenery assignments exceed the "
            f"{_SCENERY_BUDGET:.0e} budget"
        )


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


def exact_joint_return(step, scen, times):
    """P(Z at every requested time = 0) by total path enumeration.

    Sums path-probability times the conditional zero-probability given the
    walk, exactly over the rationals (`ExactResult.exact`).  Exactly 0 when
    some segment length is off the d0 lattice.  The scenery is i.i.d.
    across sites, so that conditional probability depends only on the
    multiset of per-site count rows: the path numerators are summed per
    multiset and convolved once per distinct multiset.  The rows count
    the visits of S_0..S_{n_k-1}, so n_k - 1 steps are enumerated.  Both
    laws need `Fraction` probabilities (ValueError otherwise).
    """
    times = [int(t) for t in times]
    if not times or any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(b >= c for b, c in zip(times, times[1:])):
        raise ValueError("times must be increasing")
    n_k = times[-1]
    count = _check_budget(step, n_k)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    seg_lengths = [b - a for a, b in zip([0] + times[:-1], times)]
    if any(n % scen.d0 for n in seg_lengths):
        return ExactResult(0.0, count, Fraction(0))
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
    exact = Fraction(total, rat_s[0] ** (n_k - 1))
    return ExactResult(float(exact), count, exact)


def exact_counting_moment(step, scen, n, k):
    """Exact E[(number of m <= n with Z_m = 0)^k] by double enumeration.

    Z_m needs the ordered visit sequence, not just the profile, so the
    scenery is enumerated (vectorized) on each path's occupied sites, from
    one table of assignments per occupied-site count.  Z_1..Z_n read only
    S_0..S_{n-1}, so n - 1 steps are enumerated: the final step's
    numerators sum to its denominator.  Both laws need `Fraction`
    probabilities (ValueError otherwise).
    """
    n = int(n)
    if n <= 0 or k <= 0:
        raise ValueError("n and k must be positive")
    _check_budget(step, n)
    rat_s = _rational_weights(step)
    rat_x = _rational_weights(scen)
    supportx = np.asarray(scen.support, dtype=np.int64)
    nums = np.asarray(rat_x[1], dtype=object)
    nsup = len(scen.support)
    tables = {}

    def table(r):
        """Scenery values and numerators of all nsup**r assignments to r sites."""
        _check_scenery_budget(scen, r)
        idx = np.arange(nsup ** r)
        digits = np.empty((idx.size, r), dtype=np.int64)
        for i in range(r):
            digits[:, i] = (idx // nsup ** i) % nsup
        return supportx[digits], nums[digits].prod(axis=1)

    by_r = {}
    for pos, numerator in _paths(step, n - 1):
        sites, seq = np.unique(np.asarray(pos, dtype=np.int64), return_inverse=True)
        r = sites.size
        if r not in tables:
            tables[r] = table(r)
        xi, wscen = tables[r]
        zeros = (np.cumsum(xi[:, seq], axis=1) == 0).sum(axis=1)
        combined = np.dot(wscen, zeros.astype(object) ** k)
        by_r[r] = by_r.get(r, 0) + numerator * int(combined)
    total = sum(Fraction(num, rat_x[0] ** r) for r, num in by_r.items())
    return float(total / rat_s[0] ** (n - 1))
