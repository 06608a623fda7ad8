from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrs import lattice_walk
from rwrs.simkit import RngStream
from rwrs.lattice_walk import StepLaw, simulate_local_times
from rwrs.scenery import SceneryLaw

from reference import (
    draw_by_bits,
    draw_by_choice,
    draw_by_reference,
    embedded_positions_by_loop,
    merge_profiles,
    mutual_inner,
    profile_as_dict,
    profile_from_dict,
    profile_stats,
    profiles_from_steps,
    simulate_local_times_by_dicts,
)


def test_step_law_validation():
    StepLaw.simple()
    StepLaw.lazy()
    with pytest.raises(ValueError):
        StepLaw((-1, 1), (0.4, 0.4))  # not normalized
    with pytest.raises(ValueError):
        StepLaw((0, 1), (0.5, 0.5))  # not centered
    with pytest.raises(ValueError):
        StepLaw((-2, 2), (0.5, 0.5))  # does not generate the integers
    with pytest.raises(ValueError):
        StepLaw((-1, 1), (Fraction(1, 3), Fraction(1, 3)))  # exact sum != 1


def test_law_with_a_non_integer_atom_is_rejected():
    # the message names integers; math.gcd would otherwise raise TypeError
    with pytest.raises(ValueError, match="sorted distinct integers"):
        StepLaw.from_dict({-1.0: 0.5, 1.0: 0.5})
    with pytest.raises(ValueError, match="sorted distinct integers"):
        SceneryLaw.from_dict({-1.5: 0.5, 1.5: 0.5})
    assert StepLaw.from_dict({np.int64(-1): 0.5, np.int64(1): 0.5}).support == (-1, 1)


def test_law_with_every_threshold_dropped_is_rejected():
    # the cdf before the last atom rounds to 1: every draw would be 0
    with pytest.raises(ValueError, match="first atom"):
        lattice_walk._FiniteLaw((0, 10 ** 12), (1.0, 1e-24))


DRAW_LAWS = {
    "simple": StepLaw.simple(),
    "lazy": StepLaw.lazy(),
    "asymmetric": StepLaw.from_dict({-2: Fraction(1, 3), 1: Fraction(2, 3)}),
    "five-point-float": StepLaw((-2, -1, 0, 1, 2), (0.1, 0.25, 0.35, 0.15, 0.15)),
    # the cdf before the last atom rounds to 1, so its threshold is dropped
    "tiny-tail": StepLaw((-1, 0, 1), (1e-17, 1 - 2e-17, 1e-17)),
}


@pytest.mark.parametrize("name", list(DRAW_LAWS))
def test_draw_matches_generator_choice(name):
    # the threshold draw on raw Philox words is Generator.choice(p=...) bit
    # for bit, and leaves the stream where choice leaves it; the simple law,
    # a uniform two-point law, reads one bit per value instead, and is
    # checked on the same shapes against draw_by_bits (draw_by_reference
    # picks the rule), the stream then standing where that leaves it
    law = DRAW_LAWS[name]
    for shape in (0, 1, 8191, (1024, 7)):
        for seed in range(50):
            ref, fast = RngStream(seed, 3), RngStream(seed, 3)
            expect = draw_by_reference(law, ref, shape)
            got = law.sample_steps(fast, shape)
            assert got.dtype == np.int64 and got.shape == expect.shape
            assert np.array_equal(got, expect)
            assert fast.gen.random() == ref.gen.random()


def _stub_stream(words):
    raw = np.array(words, dtype=np.uint64)
    return SimpleNamespace(gen=SimpleNamespace(
        bit_generator=SimpleNamespace(random_raw=lambda size: raw)))


@pytest.mark.parametrize("name", list(DRAW_LAWS))
def test_draw_thresholds_at_the_boundary(name):
    # raw words on and next to each cut of the draw, which random words
    # never hit.  A threshold law: words on and next to each threshold,
    # against choice's own rule, index = searchsorted(cdf, u, side="right")
    # with u = (raw >> 11) * 2**-53.  The simple law: words with one bit set
    # or one bit cleared, each bit position, against draw_by_bits, so a
    # value that reads a neighbouring bit or the wrong end of its word fails
    law = DRAW_LAWS[name]
    if law._uniform_pair:
        ones = (1 << 64) - 1
        words = [0, ones] + [1 << j for j in range(64)] + [ones ^ (1 << j) for j in range(64)]
        size = 64 * len(words)
        expect = draw_by_bits(law, _stub_stream(words), size)
        assert np.array_equal(law.sample_steps(_stub_stream(words), size), expect)
        return
    cdf = law.float_probs().cumsum()
    cdf /= cdf[-1]
    words = [0, (1 << 64) - 1]
    for cut in law._thresholds.tolist():
        words += [cut - 1, cut, cut + 1]
    raw = np.array(words, dtype=np.uint64)
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    expect = np.asarray(law.support)[np.searchsorted(cdf, u, side="right")]
    assert np.array_equal(law.sample_steps(_stub_stream(words), raw.size), expect)


UNIFORM_PAIRS = {
    "simple": StepLaw.simple(),
    "rademacher": SceneryLaw.rademacher(),
    "wide-float": SceneryLaw((-3, 3), (0.5, 0.5)),
}


@pytest.mark.parametrize("name", list(UNIFORM_PAIRS))
def test_uniform_two_point_draw_reads_one_bit_per_value(name):
    # value i is bit i % 64 (least significant first) of raw word i // 64;
    # a draw starts on a fresh word, so the stream then stands at word
    # ceil(size / 64) past its start, on a fresh stream and after a
    # buffered integers half, whose other half is still served after it
    law = UNIFORM_PAIRS[name]
    for i, (shape, buffered) in enumerate(
            (shape, buffered) for shape in (1, 63, 64, 65, 1000, (33, 7))
            for buffered in (False, True)):
        ref, fast = RngStream(61, i), RngStream(61, i)
        words = RngStream(61, i).gen.bit_generator.random_raw(40)
        if buffered:
            ref.gen.integers(0, 2, size=1)
            fast.gen.integers(0, 2, size=1)
        expect = draw_by_bits(law, ref, shape)
        got = law._draw(fast, shape)
        assert got.dtype == np.int64 and got.shape == np.shape(expect)
        assert np.array_equal(got, expect)
        after = int(buffered) + -(-int(np.prod(shape)) // 64)
        assert fast.gen.bit_generator.random_raw() == words[after]
        ref.gen.bit_generator.random_raw()
        assert (fast.gen.integers(0, 2, size=3).tolist()
                == ref.gen.integers(0, 2, size=3).tolist())


def test_profiles_equal_the_dict_reference_on_random_breakpoints():
    # random segment layouts: the same profiles, and the stream left at the
    # same raw word, as the reference that counts each segment on its own
    laws = list(DRAW_LAWS.values())[:3]
    rng = np.random.default_rng(43)
    for i in range(100):
        total = int(rng.integers(65, 1200))
        k = int(rng.integers(1, 5))
        cuts = rng.choice(np.arange(1, total), size=k - 1, replace=False)
        if i % 10 == 0:  # breakpoints on multiples of 64
            cuts = [b for b in (64, 128, 192) if b < total]
        law, bps = laws[i % 3], sorted(int(b) for b in cuts) + [total]
        ref_stream, stream = RngStream(47, i), RngStream(47, i)
        expect = simulate_local_times_by_dicts(law, bps, ref_stream)
        got = simulate_local_times(law, bps, stream)
        assert len(got) == len(expect) == len(bps)
        for a, b in zip(got, expect):
            assert np.array_equal(a.sites, b.sites)
            assert np.array_equal(a.counts, b.counts)
            assert a.length == b.length
        assert (stream.gen.bit_generator.random_raw()
                == ref_stream.gen.bit_generator.random_raw())


_C = 1 << 20
REFERENCE_BREAKPOINTS = [
    [_C - 1], [_C], [_C + 1], [2 * _C + 5],
    [_C // 2, _C - 1], [_C - 1, _C], [_C, _C + 1], [_C, 2 * _C + 5],
    [17, _C - 1, _C], [3, _C, _C + 1], [_C - 1, _C + 1, 2 * _C + 5],
    [_C + 1, 2 * _C, 2 * _C + 5],
]


@pytest.mark.parametrize("name", ["simple", "lazy", "five-point-float"])
def test_profiles_equal_the_dict_accumulating_reference(name):
    # totals on both sides of one and two blocks of 2**20 positions, with
    # breakpoints on and across the block boundaries: the same profiles,
    # and the stream left at the same raw word, as the reference that
    # counted past 2**20 positions in per-site dicts
    law = DRAW_LAWS[name]
    for i, bps in enumerate(REFERENCE_BREAKPOINTS):
        ref_stream, stream = RngStream(59, i), RngStream(59, i)
        expect = simulate_local_times_by_dicts(law, bps, ref_stream)
        got = simulate_local_times(law, bps, stream)
        assert len(got) == len(expect) == len(bps)
        for a, b in zip(got, expect):
            assert np.array_equal(a.sites, b.sites)
            assert np.array_equal(a.counts, b.counts)
            assert a.length == b.length
        assert (stream.gen.bit_generator.random_raw()
                == ref_stream.gen.bit_generator.random_raw())


def test_segment_counts_share_one_grid_and_count_empty_segments_as_zero():
    positions = np.array([0, 1, 0, -1, -2, -1, 3], dtype=np.int64)
    # the middle segment [2:2] is empty; the grid is [-2, 3] for every row
    lo, rows = lattice_walk._segment_counts(positions, [2, 2, 7])
    assert lo == -2
    assert rows.tolist() == [[0, 0, 1, 1, 0, 0],
                             [0, 0, 0, 0, 0, 0],
                             [1, 2, 1, 0, 0, 1]]
    # a mark past the end stops at the end
    lo, rows = lattice_walk._segment_counts(positions, [3, 10])
    assert lo == -2 and rows.tolist() == [[0, 0, 2, 1, 0, 0],
                                          [1, 2, 0, 0, 0, 1]]


def test_walk_positions_equal_the_loop_and_choice_references():
    # positions, and the draws after them, are those of the chunked bit
    # loop for the simple law and of S_0 = 0 plus the cumsum of
    # `Generator.choice` steps for the other step laws, on a fresh stream
    # and on one with a buffered half
    def by_choice(law):
        def build(total, stream):
            steps = draw_by_choice(law, stream, total - 1)
            return np.concatenate(([0], np.cumsum(steps)))
        return law, build

    pairs = [(StepLaw.simple(), embedded_positions_by_loop)] + [
        by_choice(DRAW_LAWS[name]) for name in ("lazy", "asymmetric", "five-point-float")]
    cases = [(pair, total, buffered) for pair in pairs
             for total in (1, 2, 3, 1000, 1001) for buffered in (False, True)]

    def run(i, build, total, buffered):
        stream = RngStream(53, i)
        if buffered:
            stream.gen.integers(0, 2, size=1)
        positions = build(total, stream)
        return (positions, stream.gen.integers(0, 2, size=3).tolist(),
                stream.gen.standard_normal())

    for i, ((law, reference), total, buffered) in enumerate(cases):
        positions, ints, normal = run(
            i, partial(lattice_walk._walk_positions, law), total, buffered)
        expect = run(i, reference, total, buffered)
        assert positions.dtype == np.int64
        assert np.array_equal(positions, expect[0])
        assert (ints, normal) == expect[1:]


def test_profiles_from_realized_steps():
    (p,) = profiles_from_steps([1, -1], [2])
    assert profile_as_dict(p) == {0: 1, 1: 1}
    p1, p2 = profiles_from_steps([1, -1, 1, -1], [2, 4])
    assert profile_as_dict(p1) == {0: 1, 1: 1}
    assert profile_as_dict(p2) == {0: 1, 1: 1}


def test_mass_conservation_over_random_trials():
    law = StepLaw.from_dict({-1: Fraction(1, 3), 0: Fraction(1, 3), 1: Fraction(1, 3)})
    root = RngStream(5, 0)
    for i in range(1000):
        (p,) = simulate_local_times(law, [37], root.substream(i))
        assert int(p.counts.sum()) == 37


def test_concatenation_property():
    law = StepLaw.simple()
    for i in range(50):
        s1 = RngStream(17, i)
        s2 = RngStream(17, i)
        segs = simulate_local_times(law, [10, 25, 60], s1)
        (full,) = simulate_local_times(law, [60], s2)
        merged = merge_profiles(merge_profiles(segs[0], segs[1]), segs[2])
        assert profile_as_dict(merged) == profile_as_dict(full)


def test_mutual_inner_examples():
    a = profile_from_dict({0: 2, 1: 1})
    b = profile_from_dict({0: 1, 2: 3})
    assert mutual_inner(a, b) == 2
    assert mutual_inner(b, a) == 2
    c = profile_from_dict({5: 1, 7: 2})
    assert mutual_inner(a, c) == 0
    d = profile_from_dict({0: 1, 1: 1})
    assert mutual_inner(d, d) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
)
def test_mutual_inner_additive_under_merge(da, db, dc):
    pa = profile_from_dict(da)
    pb = profile_from_dict(db)
    pc = profile_from_dict(dc)
    merged = merge_profiles(pa, pb)
    assert mutual_inner(merged, pc) == mutual_inner(pa, pc) + mutual_inner(pb, pc)


def test_self_intersection_identity_brute_force():
    # sum of squared counts equals the number of time pairs at equal sites
    law = StepLaw.simple()
    for i in range(200):
        stream = RngStream(23, i)
        n = 12
        steps = law.sample_steps(stream, n - 1)
        (p,) = profiles_from_steps(steps, [n])
        positions = np.concatenate([[0], np.cumsum(steps)])
        pairs = sum(
            int(positions[s] == positions[t]) for s in range(n) for t in range(n)
        )
        assert mutual_inner(p, p) == pairs


def test_self_intersection_median_scaling():
    # discrete shadow of the functional limit: medians stabilize across n
    law = StepLaw.simple()
    meds = {}
    for n in (1 << 14, 1 << 16):
        root = RngStream(29, n)
        vals = [
            mutual_inner(*[simulate_local_times(law, [n], root.substream(i))[0]] * 2)
            * n ** -1.5
            for i in range(300)
        ]
        meds[n] = float(np.median(vals))
    ratio = meds[1 << 14] / meds[1 << 16]
    assert 0.9 <= ratio <= 1.1


def test_profile_stats_examples():
    s = profile_stats(profile_from_dict({0: 3, 1: 1, -1: 1}))
    assert s.range_size == 3
    assert s.sup_count == 3
    assert s.holder_half == pytest.approx(2.0)
    single = profile_stats(profile_from_dict({0: 9}))
    assert single.range_size == 1
    assert single.sup_count == 9


def test_profile_stats_scans_zero_gaps():
    # unoccupied intermediate sites enter the scan with count 0
    s = profile_stats(profile_from_dict({0: 4, 3: 4}))
    assert s.holder_half == pytest.approx(4.0)  # pair (0, 1): |4 - 0| / 1


def test_sup_and_range_tail_bounds():
    # gamma = 0.15 makes the typical-walk tail bounds hold at desk scale;
    # gamma = 0.05 is asymptotic-only (the limit laws of R/sqrt(n) and
    # N*/sqrt(n) sit above n^0.05 at n = 2^16)
    law = StepLaw.simple()
    n = 1 << 16
    gamma = 0.15
    threshold = n ** (0.5 + gamma)
    root = RngStream(31, 0)
    r_exceed = sup_exceed = 0
    for i in range(1000):
        (p,) = simulate_local_times(law, [n], root.substream(i))
        s = profile_stats(p)
        r_exceed += s.range_size > threshold
        sup_exceed += s.sup_count > threshold
    assert r_exceed / 1000 < 1e-2
    assert sup_exceed / 1000 < 1e-2


def test_long_walk_profile_spans_only_its_range():
    law = StepLaw.simple()
    n = (1 << 20) + 12345
    (p,) = simulate_local_times(law, [n], RngStream(37, 0))
    assert int(p.counts.sum()) == n
    assert p.sites.size < 40_000  # range is O(sqrt n), not O(n)
