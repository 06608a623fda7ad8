import math
from fractions import Fraction

import numpy as np
import pytest

from rwrs import exact_oracle
from rwrs.errors import BudgetExceededError
from rwrs.lattice_walk import StepLaw
from rwrs.scenery import SceneryLaw
from rwrs.exact_oracle import exact_counting_moment, exact_joint_return

from exact_reference import (
    counting_moment_per_path,
    exact_char_function,
    joint_return_bruteforce,
    joint_return_per_path,
)

STEP = StepLaw.simple()
RAD = SceneryLaw.rademacher()
ASYM = {-2: Fraction(1, 3), 1: Fraction(2, 3)}

STEPS = {
    "simple": STEP,
    "lazy": StepLaw.lazy(),
    "asymmetric": StepLaw.from_dict(ASYM),
}
# name -> (law, one, two and three times, each segment a multiple of d0)
SCENERIES = {
    "rademacher": (RAD, ([6], [2, 6], [2, 4, 6])),
    "asymmetric": (SceneryLaw.from_dict(ASYM), ([6], [3, 6], [3, 6, 9])),
    "zero-atom": (
        SceneryLaw.from_dict({-1: Fraction(1, 4), 0: Fraction(1, 2),
                              1: Fraction(1, 4)}),
        ([5], [2, 5], [1, 3, 5]),
    ),
}


def test_single_time_examples():
    res = exact_joint_return(STEP, RAD, [2])
    assert res.value == 0.5
    assert res.path_count == 4
    assert exact_joint_return(STEP, RAD, [3]).value == 0.0


def test_lattice_vanishing_is_exact_zero():
    law = SceneryLaw.from_dict({-2: Fraction(1, 2), 2: Fraction(1, 2)})  # d0 = 2
    for times in ([1], [3], [2, 5], [1, 2]):
        res = exact_joint_return(STEP, law, times)
        assert res.value == 0.0
        assert res.exact == 0


def test_joint_return_cross_checked_by_double_enumeration():
    res = exact_joint_return(STEP, RAD, [2, 4])
    brute = joint_return_bruteforce(STEP, RAD, [2, 4])
    assert res.exact == brute
    res2 = exact_joint_return(STEP, RAD, [4, 6])
    brute2 = joint_return_bruteforce(STEP, RAD, [4, 6])
    assert res2.exact == brute2


@pytest.mark.parametrize("scen_name", list(SCENERIES))
@pytest.mark.parametrize("step_name", list(STEPS))
def test_rational_joint_return_matches_per_path_reference(step_name, scen_name):
    step = STEPS[step_name]
    scen, times_list = SCENERIES[scen_name]
    for times in times_list:
        res = exact_joint_return(step, scen, times)
        exact, count = joint_return_per_path(step, scen, times)
        assert res.exact == exact
        assert res.value == float(exact)
        assert res.path_count == count == len(step.support) ** times[-1]


@pytest.mark.parametrize("step_name", list(STEPS))
def test_joint_return_over_one_step_less_matches_all_steps_reference(step_name):
    # the oracle's pass takes times[-1] - 1 steps (none at times = [1]),
    # the reference enumerates all of them; path_count counts its paths
    step = STEPS[step_name]
    scen, _ = SCENERIES["zero-atom"]
    for times in ([1], [1, 2], [3, 4]):
        res = exact_joint_return(step, scen, times)
        exact, count = joint_return_per_path(step, scen, times)
        assert res.exact == exact, times
        assert res.path_count == count == len(step.support) ** times[-1]


@pytest.mark.parametrize("times, exact", [
    ([16], Fraction(64136831, 536870912)),
    ([20], Fraction(6756650385, 68719476736)),
    ([8, 16], Fraction(19308239, 268435456)),
])
def test_joint_return_past_n_12_pinned(times, exact):
    # values of the path enumeration that the dynamic program replaced
    res = exact_joint_return(STEP, RAD, times)
    assert res.exact == exact
    assert res.path_count == 2 ** times[-1]


def test_two_time_joint_return_at_12_matches_per_path_reference():
    exact, count = joint_return_per_path(STEP, RAD, [6, 12])
    res = exact_joint_return(STEP, RAD, [6, 12])
    assert res.exact == exact
    assert res.path_count == count == 2 ** 12


def test_rational_joint_return_matches_double_enumeration_asymmetric():
    # an asymmetric scenery: a row and its negative have different laws
    scen, _ = SCENERIES["asymmetric"]
    step = STEPS["asymmetric"]
    for times in ([3, 6], [3, 6, 9]):
        res = exact_joint_return(step, scen, times)
        assert res.exact == joint_return_bruteforce(step, scen, times)


@pytest.mark.parametrize("scen_name", list(SCENERIES))
@pytest.mark.parametrize("step_name", list(STEPS))
def test_rational_counting_moment_matches_per_path_reference(step_name, scen_name):
    # n = 1 enumerates no step at all, n = 2 a single one; only k = 3
    # tells the surjection counts surj(3, 2) = 6 from 2! = 2
    step = STEPS[step_name]
    scen, _ = SCENERIES[scen_name]
    for k, n_top in ((1, 7), (2, 7), (3, 5)):
        for n in range(1, n_top + 1):
            assert exact_counting_moment(step, scen, n, k) == \
                counting_moment_per_path(step, scen, n, k), (k, n)


def test_counting_moment_with_wide_denominators_stays_exact():
    # denom ** r * n ** k passes 2 ** 63 here, beyond any int64 weight table
    p = Fraction(1, 999999937)
    scen = SceneryLaw.from_dict({-1: p, 0: 1 - 2 * p, 1: p})
    for n, k in ((3, 1), (5, 2)):
        assert exact_counting_moment(STEP, scen, n, k) == \
            counting_moment_per_path(STEP, scen, n, k)


def test_float_weight_laws_are_rejected():
    # the oracle is exact over the rationals only
    float_lazy = StepLaw((-1, 0, 1), (0.25, 0.5, 0.25))
    float_scen = SceneryLaw((-2, 1), (1 / 3, 2 / 3))
    lazy = StepLaw.lazy()
    for step, scen in ((float_lazy, RAD), (lazy, float_scen),
                       (float_lazy, float_scen)):
        with pytest.raises(ValueError, match="Fraction probabilities"):
            exact_joint_return(step, scen, [2, 4])
        with pytest.raises(ValueError, match="Fraction probabilities"):
            exact_counting_moment(step, scen, 4, 1)


def test_counting_moment_examples():
    assert exact_counting_moment(STEP, RAD, 2, 1) == pytest.approx(0.5)
    # linearity: k = 1 equals the sum of single-time returns
    for n in (4, 6):
        total = sum(
            exact_joint_return(STEP, RAD, [m]).value
            for m in range(1, n + 1)
        )
        assert exact_counting_moment(STEP, RAD, n, 1) == pytest.approx(total)


def test_counting_second_moment_expands_into_pairs():
    n = 4
    total = 0.0
    for m1 in range(1, n + 1):
        for m2 in range(1, n + 1):
            times = sorted({m1, m2})
            total += exact_joint_return(STEP, RAD, times).value
    assert exact_counting_moment(STEP, RAD, n, 2) == pytest.approx(total)


def test_char_function_at_origin_and_quarter_turn():
    assert exact_char_function(STEP, RAD, [2], [0.0]) == pytest.approx(1.0)
    val = exact_char_function(STEP, RAD, [2], [math.pi / 2])
    assert abs(val) < 1e-12


def test_char_function_shift_identity():
    # phi(theta + 2 pi l / d) = phi_xi(2 pi / d)^(l n) phi(theta)
    law = RAD
    d = law.d
    theta = 0.3
    for n, l in ((4, 1), (5, 1), (6, 3)):
        base = exact_char_function(STEP, law, [n], [theta])
        shifted = exact_char_function(STEP, law, [n], [theta + 2 * math.pi * l / d])
        root = complex(law.char(2 * math.pi / d)) ** (l * n)
        assert shifted == pytest.approx(root * base, abs=1e-12)


def test_inversion_identity():
    # (d / 2 pi)^k times the quadrature of phi over the cell = joint return
    law = RAD
    d = law.d
    for times in ([4], [6]):
        nodes = 256
        theta = np.arange(nodes) * (2 * math.pi / (d * nodes))
        vals = np.array(
            [exact_char_function(STEP, law, times, [t]).real for t in theta]
        )
        quad = float(vals.mean())  # periodic trapezoid, equal weights
        direct = exact_joint_return(STEP, law, times).value
        assert quad == pytest.approx(direct, abs=1e-9)


def test_results_independent_of_enumeration_order():
    # the oracle's forward pass over walk states, one step short, vs a
    # per-path recomputation over all four steps in base-3 digit order
    lazy = StepLaw.lazy()
    res = exact_joint_return(lazy, RAD, [4])
    total = Fraction(0)
    support = lazy.support
    probs = lazy.probs
    b = len(support)
    from reference import conditional_return_prob, profiles_from_steps

    for idx in range(b ** 4):
        digits = [(idx // b ** j) % b for j in range(4)]
        steps = [support[t] for t in digits]
        weight = math.prod(probs[t] for t in digits)
        (prof,) = profiles_from_steps(steps, [4])
        total += weight * Fraction(conditional_return_prob([prof], RAD)).limit_denominator(1 << 40)
    assert res.exact == total


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        exact_joint_return(STEP, RAD, [60])
    with pytest.raises(BudgetExceededError):
        exact_counting_moment(STEP, RAD, 64, 1)


def test_moment_budget_counts_every_set_of_times(monkeypatch):
    # at k = 2 the sets {m} and {i, m}, i < m <= 8, sum over
    # sum_m m * 2^(m-1) = 1,793 paths, while 2^8 = 256 passes _check_budget;
    # at k = 1 the 255 paths of the sets {m} fit
    monkeypatch.setattr(exact_oracle, "_BUDGET", 1000)
    with pytest.raises(BudgetExceededError, match="1793 paths"):
        exact_counting_moment(STEP, RAD, 8, 2)
    assert exact_counting_moment(STEP, RAD, 8, 1) == \
        counting_moment_per_path(STEP, RAD, 8, 1)
