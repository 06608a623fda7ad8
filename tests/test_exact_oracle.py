import math
from fractions import Fraction

import numpy as np
import pytest

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
        assert res.note == "rational"
        assert res.exact == exact
        assert res.value == float(exact)
        assert res.path_count == count == len(step.support) ** times[-1]


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
    # n = 1 enumerates no step at all, n = 2 a single one
    step = STEPS[step_name]
    scen, _ = SCENERIES[scen_name]
    for k in (1, 2):
        for n in range(1, 8):
            assert exact_counting_moment(step, scen, n, k) == \
                counting_moment_per_path(step, scen, n, k), (k, n)


def test_counting_moment_with_wide_denominators_stays_exact():
    # denom ** r * n ** k passes 2 ** 63 here, beyond any int64 weight table
    p = Fraction(1, 999999937)
    scen = SceneryLaw.from_dict({-1: p, 0: 1 - 2 * p, 1: p})
    for n, k in ((3, 1), (5, 2)):
        assert exact_counting_moment(STEP, scen, n, k) == \
            counting_moment_per_path(STEP, scen, n, k)


def test_float_counting_moment_is_unchanged():
    lazy = StepLaw((-1, 0, 1), (0.25, 0.5, 0.25))
    scen = SceneryLaw((-2, 1), (1 / 3, 2 / 3))
    for step in (lazy, STEP):
        for n, k in ((1, 1), (4, 1), (5, 2)):
            assert exact_counting_moment(step, scen, n, k) == \
                counting_moment_per_path(step, scen, n, k)


def test_rational_and_float_modes_agree():
    # the mode follows the laws: float weights select the float mode
    lazy = StepLaw.lazy()
    float_lazy = StepLaw((-1, 0, 1), (0.25, 0.5, 0.25))
    for times in ([2], [4], [2, 4]):
        rational = exact_joint_return(lazy, RAD, times)
        floating = exact_joint_return(float_lazy, RAD, times)
        assert (rational.note, floating.note) == ("rational", "compensated-float")
        assert floating.value == pytest.approx(rational.value, abs=1e-14)


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
    # Gray-code iteration vs a direct per-path recomputation
    lazy = StepLaw.lazy()
    res = exact_joint_return(lazy, RAD, [4])
    total = Fraction(0)
    support = lazy.support
    probs = lazy.probs
    b = len(support)
    from reference import profiles_from_steps
    from rwrs.scenery import conditional_return_prob

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
