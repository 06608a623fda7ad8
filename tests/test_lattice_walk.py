from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrs.simkit import RngStream
from rwrs.lattice_walk import (
    LocalTimeProfile,
    StepLaw,
    merge_profiles,
    mutual_inner,
    profile_stats,
    profiles_from_steps,
    simulate_local_times,
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
