import math
from fractions import Fraction

import numpy as np
import pytest

from rwrs import scenery
from rwrs.simkit import RngStream
from rwrs.lattice_walk import LocalTimeProfile, StepLaw, simulate_local_times
from rwrs.scenery import (
    ReturnProbTable,
    SceneryLaw,
    _char_quadrature,
    _pmf_1d,
    analyze_law,
    conditional_return_prob,
    joint_return_prob_sampled,
)

from reference import char_given_profiles, evaluate_increments, sample_and_evaluate

RADEMACHER = SceneryLaw.rademacher()


def test_analyze_law_examples():
    assert analyze_law({-1: Fraction(1, 2), 1: Fraction(1, 2)}) == (1.0, 2, 2)
    assert analyze_law({-1: 0.25, 0: 0.5, 1: 0.25}) == (0.5, 1, 1)
    assert analyze_law({-2: 0.5, 2: 0.5}) == (4.0, 4, 2)


def test_analyze_law_rejects_bad_input():
    with pytest.raises(ValueError):
        analyze_law({0: 1.0})  # degenerate
    with pytest.raises(ValueError):
        analyze_law({0: 0.5, 1: 0.5})  # not centered
    with pytest.raises(ValueError):
        analyze_law({-1: 0.6, 1: 0.6})  # not normalized


def test_lattice_residue_identity_holds_for_asymmetric_support():
    # support on -1 mod 3: d = 3, residue 2, d0 = 3
    law = SceneryLaw.from_dict({-4: Fraction(1, 3), -1: Fraction(1, 3),
                                5: Fraction(1, 3)})
    assert law.d == 3
    assert law.d0 == 3
    assert law.sigma2 == pytest.approx((16 + 1 + 25) / 3)


def test_sample_and_evaluate_direct_sum():
    prof = LocalTimeProfile.from_dict({0: 3, 1: 1, -1: 1})
    incs = evaluate_increments([prof], {0: 1, 1: -1, -1: 2})
    assert incs == [3 - 1 + 2]


def test_sample_and_evaluate_parity():
    law = RADEMACHER
    step = StepLaw.simple()
    root = RngStream(41, 0)
    for i in range(1000):
        sub = root.substream(i)
        profiles = simulate_local_times(step, [13], sub)
        (z,) = sample_and_evaluate(profiles, law, sub.substream(1))
        assert z % 2 == 13 % 2


def test_increments_live_on_the_residue_lattice():
    # increment of length n is congruent to n * residue modulo d
    law = SceneryLaw.from_dict({-4: Fraction(1, 3), -1: Fraction(1, 3),
                                5: Fraction(1, 3)})
    step = StepLaw.simple()
    root = RngStream(43, 0)
    for i in range(300):
        sub = root.substream(i)
        n = int(sub.gen.integers(2, 20))
        profiles = simulate_local_times(step, [n], sub)
        (z,) = sample_and_evaluate(profiles, law, sub.substream(1))
        assert z % law.d == (n * law.residue) % law.d


def test_shared_scenery_couples_segments():
    p1 = LocalTimeProfile.from_dict({0: 2, 1: 1})
    p2 = LocalTimeProfile.from_dict({0: 1, 2: 2}, start=0)
    base = evaluate_increments([p1, p2], {0: 1, 1: 1, 2: 1})
    flipped = evaluate_increments([p1, p2], {0: -1, 1: 1, 2: 1})
    assert base[0] - flipped[0] == 2 * 2  # site 0 counted twice in segment 1
    assert base[1] - flipped[1] == 2 * 1  # and once in segment 2


def test_conditional_return_prob_examples():
    p = LocalTimeProfile.from_dict({0: 1, 1: 1})
    assert conditional_return_prob([p], RADEMACHER) == 0.5
    lazy_site = LocalTimeProfile.from_dict({0: 2})
    assert conditional_return_prob([lazy_site], RADEMACHER) == 0.0
    odd = LocalTimeProfile.from_dict({0: 2, 1: 1})
    assert conditional_return_prob([odd], RADEMACHER) == 0.0
    assert ReturnProbTable(RADEMACHER).evaluate([odd])[0] == 0.0


def test_convolution_matches_full_enumeration():
    # exhaustive scenery enumeration on small profiles, |support| = 3
    law = SceneryLaw.from_dict({-1: Fraction(1, 4), 0: Fraction(1, 2),
                                1: Fraction(1, 4)})
    rng = np.random.default_rng(3)
    for _ in range(25):
        nsites = int(rng.integers(1, 7))
        sites = rng.choice(np.arange(-6, 7), size=nsites, replace=False)
        counts = rng.integers(1, 4, size=nsites)
        prof = LocalTimeProfile.from_dict(
            {int(s): int(c) for s, c in zip(sites, counts)}
        )
        if prof.length % law.d0:
            continue
        got = conditional_return_prob([prof], law)
        total = 0.0
        support = np.array(law.support)
        probs = law.float_probs()
        for idx in range(len(support) ** nsites):
            weight = 1.0
            z = 0
            rem = idx
            for c in counts:
                digit = rem % len(support)
                rem //= len(support)
                weight *= probs[digit]
                z += int(support[digit]) * int(c)
            if z == 0:
                total += weight
        assert got == pytest.approx(total, abs=1e-12)


def test_convolution_vs_quadrature_on_random_profiles():
    step = StepLaw.simple()
    worst = 0.0
    for k, trials, max_half in ((1, 60, 32), (2, 40, 16)):
        for i in range(trials):
            stream = RngStream(600 + k, i)
            n = 2 * int(stream.gen.integers(1, max_half + 1))
            times = [n] if k == 1 else [n, 2 * n]
            profiles = simulate_local_times(step, times, stream)
            conv = conditional_return_prob(profiles, RADEMACHER)
            if k == 1:
                quad = ReturnProbTable(RADEMACHER).evaluate(profiles)[0]
            else:
                quad = _char_quadrature(profiles, RADEMACHER)
            worst = max(worst, abs(conv - quad))
    assert worst < 1e-8


def test_quadrature_handles_asymmetric_scenery():
    law = SceneryLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)})
    step = StepLaw.simple()
    for i in range(25):
        stream = RngStream(71, i)
        n = 3 * int(stream.gen.integers(1, 9))  # d0 = 3 here
        profiles = simulate_local_times(step, [n], stream)
        conv = conditional_return_prob(profiles, law)
        quad = ReturnProbTable(law).evaluate(profiles)[0]
        assert quad == pytest.approx(conv, abs=1e-9)


def test_vanishing_off_lattice_for_both_methods():
    law = SceneryLaw.from_dict({-2: 0.5, 2: 0.5})  # d = 4, d0 = 2
    prof = LocalTimeProfile.from_dict({0: 2, 1: 1})  # length 3, not in 2Z
    assert conditional_return_prob([prof], law) == 0.0
    assert ReturnProbTable(law).evaluate([prof])[0] == 0.0


def test_rao_blackwell_unbiasedness_and_variance_reduction():
    step = StepLaw.simple()
    law = RADEMACHER
    n = 8
    root = RngStream(83, 0)
    conds = np.empty(4000)
    indicators = np.empty(4000)
    for i in range(4000):
        sub = root.substream(i)
        profiles = simulate_local_times(step, [n], sub)
        conds[i] = conditional_return_prob(profiles, law)
        (z,) = sample_and_evaluate(profiles, law, sub.substream(1))
        indicators[i] = 1.0 if z == 0 else 0.0
    from rwrs.exact_oracle import exact_joint_return

    exact = exact_joint_return(step, law, [n]).value
    se_cond = conds.std(ddof=1) / math.sqrt(len(conds))
    se_ind = indicators.std(ddof=1) / math.sqrt(len(indicators))
    assert abs(conds.mean() - exact) < 4 * se_cond
    assert abs(indicators.mean() - exact) < 4 * se_ind
    assert conds.var() < 0.5 * indicators.var()


def test_quadrature_integrand_symmetrizes_to_real():
    law = SceneryLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)})
    prof = LocalTimeProfile.from_dict({0: 2, 1: 1, 2: 3})
    theta = 0.37
    plus = char_given_profiles([prof], law, [theta])
    minus = char_given_profiles([prof], law, [-theta])
    sym = 0.5 * (plus + minus)
    assert abs(sym.imag) < 1e-14


def test_batch_table_matches_convolution():
    step = StepLaw.simple()
    root = RngStream(97, 0)
    profiles = [
        simulate_local_times(step, [128], root.substream(i))[0] for i in range(80)
    ]
    # interleave an inadmissible profile to check the zero short-circuit
    profiles.append(LocalTimeProfile.from_dict({0: 2, 1: 1}))
    table_vals = ReturnProbTable(RADEMACHER).evaluate(profiles)
    for p, got in zip(profiles, table_vals):
        want = conditional_return_prob([p], RADEMACHER)
        assert got == pytest.approx(want, abs=1e-9)


def test_joint_sampled_estimator_is_unbiased():
    step = StepLaw.simple()
    from rwrs.exact_oracle import exact_joint_return

    exact = exact_joint_return(step, RADEMACHER, [4, 8]).value
    root = RngStream(101, 0)
    vals = np.empty(3000)
    for i in range(3000):
        sub = root.substream(i)
        profiles = simulate_local_times(step, [4, 8], sub)
        vals[i] = joint_return_prob_sampled(profiles, RADEMACHER, sub.substream(7))
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 4 * se


def test_joint_sampled_vanishes_off_lattice():
    p1 = LocalTimeProfile.from_dict({0: 2, 1: 1})  # odd length
    p2 = LocalTimeProfile.from_dict({0: 2, 1: 2})
    got = joint_return_prob_sampled([p1, p2], RADEMACHER, RngStream(1, 1))
    assert got == 0.0


def _pmf_1d_full_width(counts, law):
    """Reference 1D convolution that sweeps the whole -A..A grid every step."""
    A = scenery._halfwidth(counts, law)
    size = 2 * A + 1
    cur = np.zeros(size)
    cur[A] = 1.0
    nxt = np.empty(size)
    atoms = [(int(x), float(p)) for x, p in zip(law.support, law.probs)]
    for c in np.asarray(counts, dtype=np.int64):
        c = int(c)
        nxt[:] = 0.0
        for x, p in atoms:
            s = c * x
            if s == 0:
                nxt += p * cur
            elif 0 < s < size:
                nxt[s:] += p * cur[:-s]
            elif -size < s < 0:
                nxt[:s] += p * cur[-s:]
        cur, nxt = nxt, cur
    lost = abs(1.0 - math.fsum(cur))
    if lost > 1e-10:
        raise AssertionError(f"convolution truncation lost {lost:.3e} mass")
    return cur, A


PMF_LAWS = [
    RADEMACHER,
    SceneryLaw.from_dict({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}),
    SceneryLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)}),
    SceneryLaw((-2, -1, 0, 1, 2), (0.1, 0.25, 0.35, 0.15, 0.15)),
    # rare large values: the grid is clamped well inside the span
    SceneryLaw.from_dict({-10: Fraction(1, 100), 0: Fraction(98, 100),
                          10: Fraction(1, 100)}),
]


def test_windowed_convolution_is_bit_equal_to_full_width():
    rng = np.random.default_rng(53)
    clamped = 0
    for law in PMF_LAWS:
        for trial in range(25):
            m = int(rng.integers(1, 300))
            counts = rng.integers(1, int(rng.integers(2, 40)), size=m)
            if trial % 5 == 0:
                counts = np.full(m, int(rng.integers(1, 4)))
            pmf, A = _pmf_1d(counts, law)
            ref, ref_A = _pmf_1d_full_width(counts, law)
            clamped += A < int(counts.sum()) * law.max_value
            assert A == ref_A and pmf.shape == ref.shape
            assert np.array_equal(pmf, ref)
    assert clamped >= 10  # the clamp to the -A..A grid is exercised


def test_windowed_convolution_still_checks_lost_mass(monkeypatch):
    # a grid far narrower than the spread loses mass; both versions refuse
    monkeypatch.setattr(scenery, "_halfwidth", lambda counts, law: 3)
    counts = np.ones(40, dtype=np.int64)
    with pytest.raises(AssertionError, match="lost"):
        _pmf_1d(counts, RADEMACHER)
    with pytest.raises(AssertionError, match="lost"):
        _pmf_1d_full_width(counts, RADEMACHER)
