from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrs import lattice_walk
from rwrs.simkit import RngStream
from rwrs.lattice_walk import LocalTimeProfile, StepLaw, simulate_local_times

from reference import merge_profiles, mutual_inner, profile_stats, profiles_from_steps


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
    # for bit, and leaves the stream where choice leaves it
    law = DRAW_LAWS[name]
    support = np.asarray(law.support, dtype=np.int64)
    for shape in (0, 1, 8191, (1024, 7)):
        for seed in range(50):
            ref, fast = RngStream(seed, 3), RngStream(seed, 3)
            expect = support[ref.gen.choice(len(support), size=shape,
                                            p=law.float_probs())]
            got = law.sample_steps(fast, shape)
            assert got.dtype == np.int64 and got.shape == expect.shape
            assert np.array_equal(got, expect)
            assert fast.gen.random() == ref.gen.random()


@pytest.mark.parametrize("name", list(DRAW_LAWS))
def test_draw_thresholds_at_the_boundary(name):
    # raw words on and next to each threshold, against choice's own rule:
    # index = searchsorted(cdf, u, side="right") with u = (raw >> 11) * 2**-53
    law = DRAW_LAWS[name]
    cdf = law.float_probs().cumsum()
    cdf /= cdf[-1]
    words = [0, (1 << 64) - 1]
    for cut in law._thresholds.tolist():
        words += [cut - 1, cut, cut + 1]
    raw = np.array(words, dtype=np.uint64)
    stream = SimpleNamespace(gen=SimpleNamespace(
        bit_generator=SimpleNamespace(random_raw=lambda size: raw)))
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    expect = np.asarray(law.support)[np.searchsorted(cdf, u, side="right")]
    assert np.array_equal(law.sample_steps(stream, raw.size), expect)


def test_chunked_profiles_equal_one_shot(monkeypatch):
    # a walk longer than _CHUNK is built chunk by chunk from the same stream;
    # its segment profiles must equal the one-shot profiles exactly
    laws = list(DRAW_LAWS.values())[:3]
    rng = np.random.default_rng(43)
    cases = []
    for i in range(100):
        total = int(rng.integers(65, 1200))
        k = int(rng.integers(1, 5))
        cuts = rng.choice(np.arange(1, total), size=k - 1, replace=False)
        if i % 10 == 0:  # breakpoints on chunk boundaries
            cuts = [b for b in (64, 128, 192) if b < total]
        cases.append((laws[i % 3], sorted(int(b) for b in cuts) + [total]))
    one_shot = [simulate_local_times(law, bps, RngStream(47, i))
                for i, (law, bps) in enumerate(cases)]
    monkeypatch.setattr(lattice_walk, "_CHUNK", 64)
    for i, (law, bps) in enumerate(cases):
        chunked = simulate_local_times(law, bps, RngStream(47, i))
        assert len(chunked) == len(one_shot[i]) == len(bps)
        for a, b in zip(chunked, one_shot[i]):
            assert np.array_equal(a.sites, b.sites)
            assert np.array_equal(a.counts, b.counts)
            assert (a.length, a.start) == (b.length, b.start)


def test_profiles_from_realized_steps():
    (p,) = profiles_from_steps([1, -1], [2])
    assert p.as_dict() == {0: 1, 1: 1}
    p1, p2 = profiles_from_steps([1, -1, 1, -1], [2, 4])
    assert p1.as_dict() == {0: 1, 1: 1}
    assert p2.as_dict() == {0: 1, 1: 1}
    assert p2.start == 0


def test_mass_conservation_over_random_trials():
    law = StepLaw.lazy(Fraction(1, 3))
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
        assert merged.as_dict() == full.as_dict()


def test_mutual_inner_examples():
    a = LocalTimeProfile.from_dict({0: 2, 1: 1})
    b = LocalTimeProfile.from_dict({0: 1, 2: 3})
    assert mutual_inner(a, b) == 2
    assert mutual_inner(b, a) == 2
    c = LocalTimeProfile.from_dict({5: 1, 7: 2})
    assert mutual_inner(a, c) == 0
    d = LocalTimeProfile.from_dict({0: 1, 1: 1})
    assert mutual_inner(d, d) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
    st.dictionaries(st.integers(-8, 8), st.integers(1, 5), min_size=1, max_size=9),
)
def test_mutual_inner_additive_under_merge(da, db, dc):
    pa = LocalTimeProfile.from_dict(da)
    pb = LocalTimeProfile.from_dict(db)
    pc = LocalTimeProfile.from_dict(dc)
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
    s = profile_stats(LocalTimeProfile.from_dict({0: 3, 1: 1, -1: 1}))
    assert s.range_size == 3
    assert s.sup_count == 3
    assert s.holder_half == pytest.approx(2.0)
    single = profile_stats(LocalTimeProfile.from_dict({0: 9}))
    assert single.range_size == 1
    assert single.sup_count == 9


def test_profile_stats_scans_zero_gaps():
    # unoccupied intermediate sites enter the scan with count 0
    s = profile_stats(LocalTimeProfile.from_dict({0: 4, 3: 4}))
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


def test_long_walk_chunked_path_never_materialized():
    law = StepLaw.simple()
    n = (1 << 20) + 12345
    (p,) = simulate_local_times(law, [n], RngStream(37, 0))
    assert int(p.counts.sum()) == n
    assert p.sites.size < 40_000  # range is O(sqrt n), not O(n)
