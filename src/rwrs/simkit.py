"""Deterministic randomness plumbing: keyed streams, replication, manifests,
and the malloc thresholds that per-replica temporaries are served under.

Every random quantity in this package is drawn from an RngStream keyed by
(master_seed, stream_id).  Streams are counter-based (Philox), so distinct
keys give independent, non-overlapping sequences without any coordination,
and a stream replays exactly from its key alone.  Replica i of every
estimator draws from stream.substream(i) of the estimator's stream, through
replicate().  write_manifest records a run's config snapshot, seed and
output digests through configparser, in the INI layout of the configs.
"""

import configparser
import ctypes
import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np
# numpy 2 loads numpy.random on first use; import it with the package so
# that cost (secrets, hmac and base64 with it) falls in start-up, not in
# the first RngStream of a run
import numpy.random  # noqa: F401
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngStream",
    "Estimate",
    "write_manifest",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    """One round of splitmix64; good 64-bit mixing for substream ids."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _ZeroSeedSequence(ISeedSequence):
    """Zero words for a bit generator whose key is set right after."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


class RngStream:
    """A replayable random stream keyed by (master_seed, stream_id).

    Wraps a Philox counter-based generator.  Two streams with distinct key
    pairs are independent by construction; the same pair replays the same
    sequence.  Single-owner: never share one instance across threads.
    The state is that of `Philox(key=...)`, set without the `SeedSequence`
    that `Philox(key=...)` builds from OS entropy and never uses.
    """

    __slots__ = ("master_seed", "stream_id", "gen")

    def __init__(self, master_seed, stream_id):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        bitgen = np.random.Philox(_ZeroSeedSequence())
        key = (self.master_seed, self.stream_id)
        bitgen.state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                        "state": {"counter": (0,) * 4, "key": key},
                        "has_uint32": 0, "uinteger": 0}
        self.gen = np.random.Generator(bitgen)

    def substream(self, k):
        """Derive the k-th child stream; deterministic, collision-resistant."""
        child = _splitmix64(self.stream_id ^ _splitmix64((int(k) + 1) & _MASK64))
        return RngStream(self.master_seed, child)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate: mean of i.i.d. replica outputs with its standard error."""

    value: float
    std_error: float


def replicate(task, replicas, stream):
    """Per-replica outputs of `task`, replica i run on stream.substream(i).

    Replicas run serially in index order.  The outputs are stacked with
    np.array, so the first axis is the replica: scalars give a vector,
    vectors and matrices a 2-D or 3-D float array, other objects an object
    array.  A task marks a rejected replica by returning NaN; filtering it
    out is the caller's job.
    """
    if replicas <= 0:
        raise ValueError("replicas must be a positive integer")
    return np.array([task(stream.substream(i)) for i in range(replicas)])


def estimate_from_values(values):
    """Order-independent mean/std-error reduction via compensated sums."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((values - mean) ** 2) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return Estimate(mean, se)


def _fix_malloc_thresholds():
    """Keep freed per-replica temporaries in the heap for the next replica.

    glibc serves blocks above its mmap threshold (128 KiB at start) with
    mmap and gives heap tops above its trim threshold back to the kernel,
    raising both only when a large mmapped block is freed.  A replica's
    temporaries of about 256 KB (raw Philox words, draw indices, walk
    positions) would otherwise be unmapped on free and page-faulted in
    again by the next replica: about 255k minor faults in one `gram-joint`
    benchmark run, against about 250 with both thresholds fixed.  A no-op
    where libc has no mallopt.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(config, outputs, master_seed, version, stream_layout,
                   started_at, path):
    """Digest output files and write the manifest next to them as INI.

    Three sections: [manifest] (master_seed, version, stream_layout, the
    version of how the draws read a stream, and duration_s), [config] (the
    snapshot, keys sorted) and [digests] (sha256 per output file name,
    sorted).  A raw parser leaves any `%` in a value as it is.
    """
    manifest = configparser.RawConfigParser()
    manifest["manifest"] = {"master_seed": int(master_seed), "version": version,
                            "stream_layout": int(stream_layout),
                            "duration_s": repr(time.time() - started_at)}
    manifest["config"] = dict(sorted(config.items()))
    manifest["digests"] = dict(sorted((os.path.basename(p), file_digest(p))
                                      for p in outputs))
    with open(path, "w", encoding="utf-8") as fh:
        manifest.write(fh)
