import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rwrs import harness, scenery
from rwrs.cli import _parse_law_text
from rwrs.exact_oracle import exact_joint_return
from rwrs.harness import _round_admissible
from rwrs.simkit import RngStream
from rwrs.lattice_walk import LocalTimeProfile, StepLaw, simulate_local_times
from rwrs.scenery import (
    ReturnProbTable,
    SceneryLaw,
    _cos_char,
    _log_magnitude,
    _pmf_1d,
    joint_return_prob_sampled,
)

from reference import (
    _char_quadrature,
    char_given_profiles,
    conditional_return_prob,
    draw_by_choice,
    draw_by_reference,
    evaluate_increments,
    pmf_1d_on_coset,
    pmf_1d_on_full_grid,
    profile_from_dict,
    return_prob_table_complex,
    sample_and_evaluate,
    union_counts_by_union1d,
    zero_prob_given_shared_int64,
)

RADEMACHER = SceneryLaw.rademacher()


def test_analyze_law_examples():
    # (sigma^2, d, d0), as the analyze-law subcommand reports them
    for pmf, want in (({-1: Fraction(1, 2), 1: Fraction(1, 2)}, (1.0, 2, 2)),
                      ({-1: 0.25, 0: 0.5, 1: 0.25}, (0.5, 1, 1)),
                      ({-2: 0.5, 2: 0.5}, (4.0, 4, 2))):
        law = SceneryLaw.from_dict(pmf)
        assert (law.sigma2, law.d, law.d0) == want


def test_analyze_law_rejects_bad_input():
    with pytest.raises(ValueError):
        SceneryLaw.from_dict({0: 1.0})  # degenerate
    with pytest.raises(ValueError):
        SceneryLaw.from_dict({0: 0.5, 1: 0.5})  # not centered
    with pytest.raises(ValueError):
        SceneryLaw.from_dict({-1: 0.6, 1: 0.6})  # not normalized


def test_lattice_residue_identity_holds_for_asymmetric_support():
    # support on -1 mod 3: d = 3, residue 2, d0 = 3
    law = SceneryLaw.from_dict({-4: Fraction(1, 3), -1: Fraction(1, 3),
                                5: Fraction(1, 3)})
    assert law.d == 3
    assert law.d0 == 3
    assert law.sigma2 == pytest.approx((16 + 1 + 25) / 3)


def _assert_lattice_identities(law):
    d, d0 = law.d, law.d0
    for n in range(1, 4 * d + 1):
        # one residue on the support: n * x is in dZ for every atom or none,
        # and for every atom exactly when d0 divides n
        assert {(n * x) % d == 0 for x in law.support} == {n % d0 == 0}, (law, n)
    assert abs(law.char(2 * math.pi / d) ** d - 1.0) <= 1e-9, law


def test_lattice_constants_meet_the_identities_that_define_them():
    for a in range(1, 41):
        for b in range(1, 41):
            _assert_lattice_identities(
                SceneryLaw((-a, b), (Fraction(b, a + b), Fraction(a, a + b))))
    for text in ("-1:1/4,0:1/2,1:1/4", "-4:1/3,-1:1/3,5:1/3", "-6:1/2,2:1/4,10:1/4",
                 "-3:1/3,0:1/6,2:1/2", "-9:1/3,3:1/3,6:1/3", "-7:1/3,2:1/3,5:1/3"):
        _assert_lattice_identities(SceneryLaw.from_dict(_parse_law_text(text)))


def _scaled_rademacher(a):
    return SceneryLaw((-a, a), (Fraction(1, 2), Fraction(1, 2)))


def _no_walk(*args):
    raise AssertionError("a walk was drawn")


@pytest.mark.parametrize("step", [StepLaw.simple(), StepLaw.lazy()],
                         ids=["simple", "lazy"])
@pytest.mark.parametrize("a", [3, 10 ** 3, 10 ** 6, 10 ** 8])
def test_return_probabilities_do_not_see_the_scale_of_the_atoms(a, step, monkeypatch):
    # every atom times a: d and the sums scale by a, d0 and P(Z = 0) do not
    law = _scaled_rademacher(a)
    assert (law.d, law.d0) == (2 * a, 2)
    root = RngStream(24, 0)
    profiles = [simulate_local_times(step, [512], root.substream(i))[0]
                for i in range(200)]
    np.testing.assert_allclose(ReturnProbTable(law).evaluate(profiles),
                               ReturnProbTable(RADEMACHER).evaluate(profiles),
                               rtol=0.0, atol=1e-15)
    # these walks share at most 12 sites, so the shared sceneries are
    # enumerated; a limit of 1 samples them instead
    for limit in (scenery._ENUMERATE_LIMIT, 1):
        monkeypatch.setattr(scenery, "_ENUMERATE_LIMIT", limit)
        for i in range(8):
            walk = simulate_local_times(step, [64, 128], root.substream(1000 + i))
            assert (joint_return_prob_sampled(walk, law, root.substream(2000 + i))
                    == joint_return_prob_sampled(walk, RADEMACHER,
                                                 root.substream(2000 + i)))
    assert (exact_joint_return(step, law, [6, 10]).exact
            == exact_joint_return(step, RADEMACHER, [6, 10]).exact)


def test_sample_and_evaluate_direct_sum():
    prof = profile_from_dict({0: 3, 1: 1, -1: 1})
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
    p1 = profile_from_dict({0: 2, 1: 1})
    p2 = profile_from_dict({0: 1, 2: 2})
    base = evaluate_increments([p1, p2], {0: 1, 1: 1, 2: 1})
    flipped = evaluate_increments([p1, p2], {0: -1, 1: 1, 2: 1})
    assert base[0] - flipped[0] == 2 * 2  # site 0 counted twice in segment 1
    assert base[1] - flipped[1] == 2 * 1  # and once in segment 2


def test_conditional_return_prob_examples():
    p = profile_from_dict({0: 1, 1: 1})
    assert conditional_return_prob([p], RADEMACHER) == 0.5
    lazy_site = profile_from_dict({0: 2})
    assert conditional_return_prob([lazy_site], RADEMACHER) == 0.0
    odd = profile_from_dict({0: 2, 1: 1})
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
        prof = profile_from_dict(
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
    prof = profile_from_dict({0: 2, 1: 1})  # length 3, not in 2Z
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
    exact = exact_joint_return(step, law, [n]).value
    se_cond = conds.std(ddof=1) / math.sqrt(len(conds))
    se_ind = indicators.std(ddof=1) / math.sqrt(len(indicators))
    assert abs(conds.mean() - exact) < 4 * se_cond
    assert abs(indicators.mean() - exact) < 4 * se_ind
    assert conds.var() < 0.5 * indicators.var()


def test_quadrature_integrand_symmetrizes_to_real():
    law = SceneryLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)})
    prof = profile_from_dict({0: 2, 1: 1, 2: 3})
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
    profiles.append(profile_from_dict({0: 2, 1: 1}))
    table_vals = ReturnProbTable(RADEMACHER).evaluate(profiles)
    for p, got in zip(profiles, table_vals):
        want = conditional_return_prob([p], RADEMACHER)
        assert got == pytest.approx(want, abs=1e-9)


# scenery law -> whether `char` is exactly real on it (the cosine route)
TABLE_LAWS = {
    "rademacher": True,
    "-2:1/2,2:1/2": True,  # d = 4, d0 = 2
    "-1:1/4,0:1/2,1:1/4": True,
    "-3:1/8,-1:3/8,1:3/8,3:1/8": False,
    "-2:1/10,-1:1/5,0:2/5,1:1/5,2:1/10": False,
    "-2:1/3,1:2/3": False,  # asymmetric, d0 = 3
}


def _table_profiles(step, n, law, count, seed):
    """`count` walks of the largest admissible length <= n, with a length-3
    profile (inadmissible unless d0 = 1) interleaved."""
    n = _round_admissible(n, law.d0)
    root = RngStream(seed, n)
    profiles = [simulate_local_times(step, [n], root.substream(i))[0]
                for i in range(count)]
    profiles.insert(count // 2, profile_from_dict({0: 2, 1: 1}))
    return profiles


@pytest.mark.parametrize("text", ["rademacher", "-1:1/4,0:1/2,1:1/4",
                                  "-3:3/8,1:1/2,5:1/8", "-2:1/3,1:2/3"])
def test_table_equals_convolution_at_every_small_n(text):
    # every admissible n <= 64, the lengths where k = 1 once went through
    # the single-walk convolution: the table gives its values to 1e-15
    law = SceneryLaw.from_dict(_parse_law_text(text))
    for s, step in enumerate((StepLaw.simple(), StepLaw.lazy())):
        for n in range(law.d0, 65, law.d0):
            root = RngStream(415 + s, n)
            profiles = [simulate_local_times(step, [n], root.substream(i))[0]
                        for i in range(100)]
            got = ReturnProbTable(law).evaluate(profiles)
            want = [joint_return_prob_sampled([p], law, RngStream(416, i))
                    for i, p in enumerate(profiles)]
            assert np.max(np.abs(got - want)) <= 1e-15, (s, n)


def test_real_char_route_is_selected_from_the_law():
    for text, real in TABLE_LAWS.items():
        assert SceneryLaw.from_dict(_parse_law_text(text))._real_char is real
    assert SceneryLaw.from_dict({-1: 0.5, 1: 0.5})._real_char
    assert not SceneryLaw.from_dict({-1: 0.5, 0: 0.25, 2: 0.25})._real_char


@pytest.mark.parametrize("text", list(TABLE_LAWS))
def test_cosine_table_is_the_real_part_of_char(text):
    law = SceneryLaw.from_dict(_parse_law_text(text))
    for nodes in (64, 2048, 20000):
        theta = (2.0 * math.pi / (law.d * nodes)) * np.arange(nodes // 2 + 1)
        u = np.outer(np.arange(1, 400, dtype=np.float64), theta)
        phi = law.char(u)
        cos = _cos_char(law, u)
        assert np.array_equal(cos, phi.real)
        if law._real_char:
            assert np.array_equal(phi.imag, np.zeros_like(cos))
            assert np.array_equal(_log_magnitude(np.abs(cos)),
                                  _log_magnitude(np.abs(phi)))


@pytest.mark.parametrize("n", [128, 1024, 4096])
@pytest.mark.parametrize("step", ["simple", "lazy"])
@pytest.mark.parametrize("text", list(TABLE_LAWS))
def test_table_equals_complex_route_bit_for_bit(text, step, n):
    law = SceneryLaw.from_dict(_parse_law_text(text))
    walk = StepLaw.simple() if step == "simple" else StepLaw.lazy()
    profiles = _table_profiles(walk, n, law, 40, 131)
    got = ReturnProbTable(law).evaluate(profiles)
    want = return_prob_table_complex(law, profiles)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("text", ["rademacher", "-2:1/3,1:2/3"])
def test_table_equals_complex_route_over_two_blocks(text):
    # a full block and a partial one, so each block's arrays are rebuilt
    law = SceneryLaw.from_dict(_parse_law_text(text))
    profiles = _table_profiles(StepLaw.simple(), 512, law, scenery._BLOCK + 188, 139)
    got = ReturnProbTable(law).evaluate(profiles)
    want = return_prob_table_complex(law, profiles, block=scenery._BLOCK)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_table_peak_memory_is_one_table_and_one_block():
    # return-k1's largest shape; the bound counts the float64 log|phi|
    # table, the float32 sign table, one block's float64 terms and float32
    # parity, and its float64 multiplicities
    law = RADEMACHER
    profiles = _table_profiles(StepLaw.simple(), 8192, law, 500, 141)
    admissible = [p for p in profiles if p.length % law.d0 == 0]
    cmax = max(int(p.counts.max()) for p in admissible)
    vmax = max(float(np.dot(p.counts, p.counts)) for p in admissible)
    nodes = int(math.ceil(8.0 * law.max_value * math.sqrt(vmax) / law.d))
    nodes = max(64, nodes + (nodes % 2))
    cols, rows = nodes // 2 + 1, min(len(admissible), scenery._BLOCK)
    expected = cmax * cols * (8 + 4) + rows * cols * (8 + 4) + rows * cmax * 8
    table = ReturnProbTable(law)
    tracemalloc.start()
    try:
        table.evaluate(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * expected, (peak, expected)


def test_table_rejects_profiles_past_the_float32_parity_bound():
    # evaluate reads only the counts and length, so stride-0 views stand in
    # for a profile of 2**23 sites without its memory
    sites = 2 ** 23
    big = LocalTimeProfile(np.broadcast_to(np.int64(0), (sites,)),
                           np.broadcast_to(np.int64(1), (sites,)), sites)
    with pytest.raises(ValueError, match=r"2\*\*23"):
        ReturnProbTable(RADEMACHER).evaluate([big])


@pytest.mark.parametrize("text", ["rademacher", "-2:1/3,1:2/3"])
def test_table_values_barely_depend_on_block_size(text, monkeypatch):
    # BLAS sums a product in an order that depends on the block's row
    # count, so the last bits may differ, but no more
    law = SceneryLaw.from_dict(_parse_law_text(text))
    profiles = _table_profiles(StepLaw.simple(), 1024, law, 150, 137)
    table = ReturnProbTable(law)
    assert scenery._BLOCK == 512
    ref = table.evaluate(profiles)
    for block in (1, 7, 100):
        monkeypatch.setattr(scenery, "_BLOCK", block)
        got = table.evaluate(profiles)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_joint_sampled_refuses_walks_past_the_float64_residual_bound(monkeypatch):
    # max|x| * n reaches 2**53 at a = 2**50 over 8 steps; one unit less on
    # the atoms stays below it and reads Rademacher's value
    walk = simulate_local_times(StepLaw.simple(), [4, 8], RngStream(24, 3))
    below = _scaled_rademacher(2 ** 50 - 1)
    assert (joint_return_prob_sampled(walk, below, RngStream(24, 4))
            == joint_return_prob_sampled(walk, RADEMACHER, RngStream(24, 4)))
    law = _scaled_rademacher(2 ** 50)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        joint_return_prob_sampled(walk, law, RngStream(24, 4))

    monkeypatch.setattr(harness, "simulate_local_times", _no_walk)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        harness.estimate_return_curve(StepLaw.simple(), law, [4, 8, 16], k=2,
                                      T_ratios=[0.5, 1.0], walk_replicas=2,
                                      stream=RngStream(24, 5))
    with pytest.raises(ValueError, match=r"2\*\*53"):
        harness.correlation_ratio(4, 1.0, 2, RngStream(24, 5), StepLaw.simple(), law)


def test_counting_moments_refuse_sums_past_the_int64_bound(monkeypatch):
    # max|x| * max(n_list) reaches 2**63 at a = 2**60 and n = 8; one unit
    # less on the atoms stays below it and counts Rademacher's zeros
    step = StepLaw.simple()
    below = harness.counting_moment_curve(step, _scaled_rademacher(2 ** 60 - 1), 1,
                                          [2, 4, 8], 400, RngStream(24, 6))
    assert below == harness.counting_moment_curve(step, RADEMACHER, 1, [2, 4, 8],
                                                  400, RngStream(24, 6))

    monkeypatch.setattr(harness, "_walk_positions", _no_walk)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        harness.counting_moment_curve(step, _scaled_rademacher(2 ** 60), 1,
                                      [2, 4, 8], 400, RngStream(24, 6))


def test_joint_sampled_estimator_is_unbiased():
    step = StepLaw.simple()
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
    p1 = profile_from_dict({0: 2, 1: 1})  # odd length
    p2 = profile_from_dict({0: 2, 1: 2})
    got = joint_return_prob_sampled([p1, p2], RADEMACHER, RngStream(1, 1))
    assert got == 0.0


def _pmf_1d_full_width(counts, law):
    """Reference 1D convolution that sweeps the whole -A..A grid every step.

    A = sum|c| * max|x| holds the whole support.
    """
    A = int(np.abs(counts).sum()) * law.max_value
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
    return cur, A


def _assert_coset_cells(pmf, low, counts, law, ref, A):
    """`(pmf, low)` is the whole support of the dense `ref`, byte for byte,
    and `ref` is exactly 0 everywhere else, off the coset too."""
    total = int(np.sum(counts))
    top = (law.support[-1] - law.support[0]) // law.d
    assert low == law.support[0] * total
    assert pmf.dtype == ref.dtype and pmf.size == total * top + 1
    cells = A + low + law.d * np.arange(pmf.size)
    assert pmf.tobytes() == ref[cells].tobytes()
    rest = np.ones(ref.size, dtype=bool)
    rest[cells] = False
    assert not ref[rest].any()


PMF_LAWS = [
    RADEMACHER,
    SceneryLaw.from_dict({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}),
    SceneryLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)}),
    SceneryLaw((-2, -1, 0, 1, 2), (0.1, 0.25, 0.35, 0.15, 0.15)),
    # rare large values: a span far wider than the pmf's bulk
    SceneryLaw.from_dict({-10: Fraction(1, 100), 0: Fraction(98, 100),
                          10: Fraction(1, 100)}),
]


def test_windowed_convolution_is_bit_equal_to_full_width():
    rng = np.random.default_rng(53)
    for law in PMF_LAWS:
        for trial in range(25):
            m = int(rng.integers(1, 300))
            counts = rng.integers(1, int(rng.integers(2, 40)), size=m)
            if trial % 5 == 0:
                counts = np.full(m, int(rng.integers(1, 4)))
            pmf, low = _pmf_1d(counts, law)
            ref, A = _pmf_1d_full_width(counts, law)
            _assert_coset_cells(pmf, low, counts, law, ref, A)


def test_pmf_holds_the_whole_support():
    # the end cells, -+1000, lie 71 standard deviations out
    law = SceneryLaw.from_dict(_parse_law_text("-10:1/100,0:98/100,10:1/100"))
    counts = np.ones(100, dtype=np.int64)
    pmf, low = _pmf_1d(counts, law)
    assert low == -1000 and pmf.size == 100 * 2 + 1
    assert pmf[0] == pytest.approx(0.01 ** 100, rel=1e-12, abs=0.0)
    assert pmf[-1] == pytest.approx(0.01 ** 100, rel=1e-12, abs=0.0)


# laws whose lattice span d is 4, 6 and 9, beside PMF_LAWS' 1, 2, 3 and 10
COSET_LAWS = PMF_LAWS + [
    SceneryLaw.from_dict(_parse_law_text(text))
    for text in ("-3:3/8,1:1/2,5:1/8", "-3:1/2,3:1/2", "-6:1/3,3:2/3")
]


def test_coset_convolution_is_byte_equal_to_the_full_grid():
    assert [law.d for law in COSET_LAWS[-3:]] == [4, 6, 9]
    rng = np.random.default_rng(61)
    for law in COSET_LAWS:
        cases = [np.zeros(0, dtype=np.int64)]
        for trial in range(20):
            m = int(rng.integers(1, 200))
            cases.append(rng.integers(1, int(rng.integers(2, 30)), size=m))
            if trial % 4 == 0:
                cases.append(np.full(m, int(rng.integers(1, 4))))
        for counts in cases:
            pmf, low = _pmf_1d(counts, law)
            ref, A = pmf_1d_on_full_grid(counts, law)
            _assert_coset_cells(pmf, low, counts, law, ref, A)


def test_float_residuals_are_byte_equal_to_the_int64_route():
    rng = np.random.default_rng(67)
    for law in COSET_LAWS:
        d = law.d
        for _ in range(10):
            k = int(rng.integers(2, 4))
            pmfs = [_pmf_1d(rng.integers(1, 6, size=int(rng.integers(0, 12))), law)
                    for _ in range(k)]
            nsh = int(rng.integers(1, 20))
            counts = rng.integers(0, 8, size=(nsh, k))
            values = draw_by_choice(law, RngStream(67, nsh), (300, nsh))
            got = scenery._zero_prob_given_shared(values, counts, pmfs, d)
            ref = zero_prob_given_shared_int64(values, counts, pmfs, d)
            assert got.tobytes() == ref.tobytes()
            residuals = values @ counts
            for j, (pmf, low) in enumerate(pmfs):
                # rows outside the support on either side read as 0
                need = -residuals[:, j]
                off = (need < low) | (need > low + d * (pmf.size - 1))
                assert np.all(got[off] == 0.0)
        # one shared site of count 1 whose value cancels every sum from far
        # below the support to far above it: both ends, just off them, and
        # (for d > 1) off the coset
        pmf, low = _pmf_1d([1, 2, 1], law)
        high = low + d * (pmf.size - 1)
        far = 10 * (high - low)
        need = np.r_[low - far, np.arange(low - 2 * d - 1, high + 2 * d + 2), high + far]
        values = -need[:, None]
        got = scenery._zero_prob_given_shared(values, np.array([[1]]), [(pmf, low)], d)
        ref = zero_prob_given_shared_int64(values, np.array([[1]]), [(pmf, low)], d)
        assert got.tobytes() == ref.tobytes()
        on = (need >= low) & (need <= high) & ((need - low) % d == 0)
        assert got[on].tobytes() == pmf.tobytes()
        assert not got[~on].any()


def test_union_counts_equal_union1d():
    rng = np.random.default_rng(71)
    step = StepLaw.simple()
    for i in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 300))
        times = np.cumsum(rng.integers(1, n + 1, size=k))
        profiles = simulate_local_times(step, times, RngStream(71, i))
        if i % 10 == 0:  # segments whose site ranges do not touch
            profiles = [profile_from_dict({7 * j + 3: 2, 7 * j + 5: 1})
                        for j in range(k)]
        counts = scenery._union_counts(profiles)
        _, ref_counts = union_counts_by_union1d(profiles)
        assert counts.dtype == ref_counts.dtype
        assert counts.tobytes() == ref_counts.tobytes()
        assert counts.shape == ref_counts.shape


def _joint_values(law, times, seed, walks):
    """joint_return_prob_sampled on `walks` walks, with the next raw word."""
    step = StepLaw.simple()
    out = []
    for i in range(walks):
        profiles = simulate_local_times(step, times, RngStream(seed, i))
        stream = RngStream(seed + 1, i)
        value = joint_return_prob_sampled(profiles, law, stream, scenery_draws=32)
        out.append((value, int(stream.gen.bit_generator.random_raw())))
    return out


@pytest.mark.parametrize("times", [(60, 120), (48, 96, 144)])
def test_joint_sampled_is_byte_equal_to_the_reference_kernels(times, monkeypatch):
    for law in (RADEMACHER, COSET_LAWS[1], COSET_LAWS[-1]):
        got = _joint_values(law, times, 73, 200)
        with monkeypatch.context() as patched:
            patched.setattr(scenery, "_pmf_1d", pmf_1d_on_coset)
            patched.setattr(scenery, "_zero_prob_given_shared",
                            zero_prob_given_shared_int64)
            patched.setattr(scenery, "_union_counts",
                            lambda profiles: union_counts_by_union1d(profiles)[1])
            patched.setattr(SceneryLaw, "sample", draw_by_reference)
            ref = _joint_values(law, times, 73, 200)
        values, words = zip(*got)
        ref_values, ref_words = zip(*ref)
        assert np.array(values).tobytes() == np.array(ref_values).tobytes()
        assert words == ref_words
        assert sum(v > 0.0 for v in values) >= 20


def test_shared_sites_are_drawn_once_through_sample(monkeypatch):
    # the benchmark's `scenery.draws` and `scenery.sample_s` read these calls
    calls = []
    draw = SceneryLaw.sample

    def counted(law, stream, size):
        calls.append(size)
        return draw(law, stream, size)

    monkeypatch.setattr(SceneryLaw, "sample", counted)
    step = StepLaw.simple()
    sampled = 0
    for i in range(40):
        profiles = simulate_local_times(step, [256, 512, 768][: 1 + i % 3],
                                        RngStream(79, i))
        calls.clear()
        joint_return_prob_sampled(profiles, RADEMACHER, RngStream(80, i),
                                  scenery_draws=48)
        if len(profiles) == 1:
            assert calls == []
            continue
        _, counts = union_counts_by_union1d(profiles)
        nsh = int(((counts > 0).sum(axis=1) >= 2).sum())
        if 2 ** nsh > scenery._ENUMERATE_LIMIT:
            assert calls == [(48, nsh)]
            sampled += 1
        else:  # enumerated or absent shared sites draw nothing
            assert calls == []
    assert sampled >= 20
