import configparser
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwrs.simkit import (
    RngStream,
    estimate_from_values,
    file_digest,
    replicate,
    write_manifest,
)


def test_same_key_replays():
    a = RngStream(42, 0).gen.uniform(size=10_000)
    b = RngStream(42, 0).gen.uniform(size=10_000)
    assert (a == b).all()


def test_distinct_stream_ids_differ():
    a = RngStream(42, 0).gen.uniform(size=10_000)
    b = RngStream(42, 1).gen.uniform(size=10_000)
    assert (a != b).any()


def test_distinct_seeds_differ():
    a = RngStream(42, 0).gen.uniform(size=10_000)
    b = RngStream(43, 0).gen.uniform(size=10_000)
    assert (a != b).any()


def _keyed_philox(seed, stream_id):
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _state_equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_state_equal(a[k], b[k]) for k in a)
    return type(a) is type(b) and np.array_equal(a, b)


def test_stream_is_philox_keyed_without_entropy():
    rng = np.random.default_rng(83)
    seeds = rng.integers(0, 2 ** 64, size=1000, dtype=np.uint64).tolist()
    ids = rng.integers(0, 2 ** 64, size=1000, dtype=np.uint64).tolist()
    for i, (seed, stream_id) in enumerate(zip(seeds, ids)):
        if i % 100 == 0:  # keys on the ends of the 64-bit range
            seed, stream_id = (0, 2 ** 64 - 1) if i % 200 else (2 ** 64 - 1, 0)
        got, ref = RngStream(seed, stream_id).gen, _keyed_philox(seed, stream_id)
        assert _state_equal(got.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(got.bit_generator.random_raw(3),
                              ref.bit_generator.random_raw(3))
        # one 32-bit half leaves the other buffered; the normal ignores it
        assert got.integers(0, 2) == ref.integers(0, 2)
        assert got.standard_normal() == ref.standard_normal()
        assert _state_equal(got.bit_generator.state, ref.bit_generator.state)


def test_substreams_are_reproducible_and_distinct():
    root = RngStream(7, 3)
    s1 = root.substream(5)
    s2 = RngStream(7, 3).substream(5)
    assert s1.stream_id == s2.stream_id
    assert (s1.gen.uniform(size=100) == s2.gen.uniform(size=100)).all()
    ids = {root.substream(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_constant_task():
    est = estimate_from_values(replicate(lambda s: 1.0, 100, RngStream(99, 0)))
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.replicas == 100


def test_replicas_must_be_positive():
    for replicas in (0, -3):
        with pytest.raises(ValueError):
            replicate(lambda s: 1.0, replicas, RngStream(1, 0))


def _uniform_or_rejected(s):
    u = float(s.gen.uniform())
    return np.nan if u < 0.3 else u


@pytest.mark.parametrize(
    "task",
    [
        lambda s: float(s.gen.uniform()),
        lambda s: s.gen.normal(size=5),
        lambda s: s.gen.normal(size=(3, 3)),
        _uniform_or_rejected,
    ],
    ids=["scalar", "vector", "matrix", "nan-rejection"],
)
def test_replicate_matches_substream_loop(task):
    stream = RngStream(5, 17)
    expected = np.empty((64,) + np.shape(task(stream.substream(0))))
    for i in range(64):
        expected[i] = task(stream.substream(i))
    got = replicate(task, 64, stream)
    assert got.shape == expected.shape
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


def test_uniform_mean_within_clt_band():
    values = replicate(lambda s: float(s.gen.uniform()), 100_000, RngStream(1234, 0))
    est = estimate_from_values(values)
    # 5 sigma of a Uniform(0,1) mean at 1e5 replicas
    assert abs(est.value - 0.5) < 0.005
    assert abs(est.std_error - math.sqrt(1 / 12 / 100_000)) < 2e-4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200), st.randoms())
def test_reduction_is_order_independent(values, rnd):
    est1 = estimate_from_values(np.array(values))
    shuffled = list(values)
    rnd.shuffle(shuffled)
    est2 = estimate_from_values(np.array(shuffled))
    scale = max(1.0, abs(est1.value))
    assert abs(est1.value - est2.value) <= 1e-12 * scale


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "data.csv"
    out.write_text("a,b\n1,2\n")
    # a `%` in a value is written and read back as it is, not interpolated
    config = {"x": "1", "law": "-1:1/2,1:1/2", "share": "5%"}
    write_manifest(config, [str(out)], 42, "0.1.0", 2, 0.0, str(tmp_path / "manifest.txt"))
    parsed = configparser.RawConfigParser()
    with open(tmp_path / "manifest.txt", encoding="utf-8") as fh:
        parsed.read_file(fh)
    assert parsed.getint("manifest", "master_seed") == 42
    assert parsed["manifest"]["version"] == "0.1.0"
    assert parsed.getint("manifest", "stream_layout") == 2
    assert parsed.getfloat("manifest", "duration_s") > 0
    assert dict(parsed["config"]) == config
    assert dict(parsed["digests"]) == {"data.csv": file_digest(str(out))}


def test_manifest_digests_reflect_content(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    f1.write_text("same-bytes")
    f2.write_text("same-bytes")
    assert file_digest(str(f1)) == file_digest(str(f2))
    f2.write_text("other-bytes")
    assert file_digest(str(f1)) != file_digest(str(f2))
