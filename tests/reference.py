"""Test-side helpers and independent samplers for the library modules.

Only the tests call these: profiles built from and read as {site: count}
dicts (`profile_from_dict`, `profile_as_dict`), profile algebra and
statistics of one walk,
scenery evaluation with an explicit or sampled scenery, the tightness and
agreement helpers of the harness, the mollified local time at one level
and a bound on its increase, `sample_delta_marginal`, a sampler coded
independently of `delta_process.sample_delta_path` so that the two can be
compared, and the direct routes of `delta_process` (site ranks from
`np.unique`, box extrema from one reshape per scale) that its fast kernels
must equal, and the complex-table route of
`scenery.ReturnProbTable.evaluate` that its cosine table must equal.

Two more oracles cross-check library routes by other algorithms:
`conditional_return_prob`, the per-walk conditional zero-probability by
dense convolution for k <= 2 and by k-dimensional trapezoid quadrature of
the conditional characteristic function for k >= 3 (against
`ReturnProbTable`, `joint_return_prob_sampled` and the exact oracle), and
`ray_knight_profile`, the direct step-by-step simulation of the stopped
walk (against `brownian.ray_knight_profile_fast`).

`simulate_local_times_by_dicts` is `lattice_walk.simulate_local_times`
before the one occupation kernel, with its one-shot branch, its per-site
dict branch past 2**20 positions, `_occupation` and `_segment_profiles`;
`profiles_from_steps` counts through the latter.  It builds its positions
as the cumsum of `draw_by_reference` steps, not with the walk builder it
checks.

`draw_by_reference` is stream layout 2 drawn independently of
`lattice_walk._FiniteLaw._draw`: `draw_by_bits` for a uniform two-point
law, one bit per value taken from the Python int of its raw word, and
`draw_by_choice`, `Generator.choice`, for every other law.

The pre-fold walk loops stay here as oracles of the one walk builder
`lattice_walk._walk_positions`: `embedded_positions_by_loop`, the chunked
simple walk, and `origin_local_time_at_range_exit_by_loop`, the
hand-written block loop of the range-exit local time.  Both draw their
steps with `draw_by_bits` in blocks of whole raw words.  The frozen-walk
route lives here too: `sample_delta_path_by_unique` takes a `walk` and
redraws only the noise, and `walk_field` is its local-time field.

The k >= 2 kernels of `scenery` as they were before the coset
convolution stay here as its oracles, and share no code with it:
`pmf_1d_on_full_grid`, the dense -A..A pmf over the whole support, read on
the coset by `pmf_1d_on_coset`; `zero_prob_given_shared_int64`;
`union_counts_by_union1d`; and `draw_by_reference`, the scenery draw.
`_pmf_2d`, the k = 2 oracle, truncates its grid at
`halfwidth_by_numpy`.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from rwrs.brownian import LocalTimeField, gram_of_fields, sample_local_time_fields
from rwrs.delta_process import DeltaPath, WalkRealization, mollified_values
from rwrs.errors import BudgetExceededError, DegenerateRatioError
from rwrs.harness import _zero_count_trajectory, fit_power_law
from rwrs.lattice_walk import LocalTimeProfile
from rwrs.scenery import _LOG_FLOOR, _admissible, _union_counts
from rwrs.simkit import estimate_from_values, replicate


def profile_from_dict(counts):
    """The `LocalTimeProfile` with counts[y] visits at each site y."""
    sites = np.array(sorted(counts), dtype=np.int64)
    vals = np.array([counts[int(s)] for s in sites], dtype=np.int64)
    return LocalTimeProfile(sites, vals, int(vals.sum()))


def profile_as_dict(profile):
    """{site: visit count} of a `LocalTimeProfile`."""
    return {int(s): int(c) for s, c in zip(profile.sites, profile.counts)}


@dataclass(frozen=True)
class ProfileStats:
    """Range, sup and discrete 1/2-Hoelder statistic of one profile."""

    range_size: int
    sup_count: int
    holder_half: float


def profiles_from_steps(steps, breakpoints):
    """Segment local-time profiles of the walk realized by `steps`.

    Positions are S_0 = 0, S_1, ..., S_{B-1} with B the last breakpoint;
    segment i covers times [b_{i-1}, b_i).
    """
    steps = np.asarray(steps, dtype=np.int64)
    breakpoints = list(breakpoints)
    total = breakpoints[-1]
    if steps.size < total - 1:
        raise ValueError("not enough steps for the requested breakpoints")
    positions = np.concatenate(([0], np.cumsum(steps[: total - 1])))
    return _segment_profiles(positions, breakpoints)


# `lattice_walk.simulate_local_times` as it was before the one occupation
# kernel `lattice_walk._segment_counts`, both branches kept: one shot up to
# `_PROFILE_CHUNK` positions, per-site dicts filled chunk by chunk past it.
_PROFILE_CHUNK = 1 << 20


def _occupation(seg):
    """Sorted occupied sites of a nonempty position array and their counts."""
    low = int(seg.min())
    counts = np.bincount(seg - low)
    sites = np.flatnonzero(counts)
    return sites + low, counts[sites]


def _segment_profiles(positions, breakpoints):
    """Profile of positions[b_{i-1}:b_i] for each breakpoint b_i."""
    profiles = []
    prev = 0
    for b in breakpoints:
        seg = positions[prev:b]
        sites, counts = _occupation(seg)
        profiles.append(LocalTimeProfile(sites, counts, b - prev))
        prev = b
    return profiles


def _positions_by_draws(steps):
    """S_0 = 0, S_1, ...: 0 and the running sum of `steps`."""
    return np.concatenate(([0], np.cumsum(steps, dtype=np.int64)))


def simulate_local_times_by_dicts(law, breakpoints, stream):
    """Simulate one walk and return the local-time profile of each segment.

    Long walks are processed in chunks of 2**20 steps so memory stays
    O(occupied range), not O(n).
    """
    breakpoints = [int(b) for b in breakpoints]
    if not breakpoints or any(b <= 0 for b in breakpoints):
        raise ValueError("breakpoints must be nonempty positive integers")
    if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    total = breakpoints[-1]
    if total <= _PROFILE_CHUNK:
        steps = draw_by_reference(law, stream, total - 1)
        return _segment_profiles(_positions_by_draws(steps), breakpoints)

    # chunked accumulation into per-segment dicts; a chunk before the last
    # also draws the step into the next one, so it draws 2**20 steps, whole
    # raw words of the bit layout
    seg_counts = [dict() for _ in breakpoints]
    pos = 0
    t = 0
    seg = 0
    while t < total:
        take = min(_PROFILE_CHUNK, total - t)
        steps = draw_by_reference(law, stream, take if t + take < total else take - 1)
        chunk = pos + _positions_by_draws(steps[:take - 1])
        lo = 0
        while lo < take:
            hi = min(take, breakpoints[seg] - t)
            part = chunk[lo:hi]
            sites, counts = _occupation(part)
            d = seg_counts[seg]
            for s, c in zip(sites.tolist(), counts.tolist()):
                d[s] = d.get(s, 0) + c
            lo = hi
            if t + lo >= breakpoints[seg] and seg < len(breakpoints) - 1:
                seg += 1
        # position at the start of the next chunk: one more step past chunk end
        if t + take < total:
            pos = int(chunk[-1] + steps[-1])
        t += take
    prev = 0
    out = []
    for i, b in enumerate(breakpoints):
        prof = profile_from_dict(seg_counts[i])
        if prof.length != b - prev:
            raise AssertionError("segment mass mismatch")
        out.append(prof)
        prev = b
    return out


def mutual_inner(p, q):
    """Sum over sites of p(y) * q(y); symmetric, nonnegative integer."""
    common, ip, iq = np.intersect1d(
        p.sites, q.sites, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return 0
    return int(np.dot(p.counts[ip], q.counts[iq]))


def merge_profiles(p, q):
    """Profile of the concatenated walk segments (counts add sitewise)."""
    sites = np.union1d(p.sites, q.sites)
    counts = np.zeros(sites.size, dtype=np.int64)
    counts[np.searchsorted(sites, p.sites)] += p.counts
    counts[np.searchsorted(sites, q.sites)] += q.counts
    return LocalTimeProfile(sites, counts, p.length + q.length)


def profile_stats(p, window=32):
    """Range, sup and the local 1/2-Hoelder quotient of one profile.

    The Hoelder scan covers every integer site in [min, max] of the occupied
    span (unoccupied gaps count 0) and site pairs up to `window` apart; the
    statistic is dominated by nearby sites, so a full quadratic scan would
    be wasted work.
    """
    lo, hi = int(p.sites[0]), int(p.sites[-1])
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[p.sites - lo] = p.counts
    best = 0.0
    for lag in range(1, min(window, dense.size - 1) + 1):
        diff = np.abs(dense[lag:] - dense[:-lag]).max() if dense.size > lag else 0
        best = max(best, diff / math.sqrt(lag))
    return ProfileStats(
        range_size=int(p.sites.size),
        sup_count=int(p.counts.max()),
        holder_half=float(best),
    )


def sample_and_evaluate(profiles, law, stream):
    """Draw one scenery (shared across segments) and return the Z increments.

    A site's value is drawn once and reused by every segment that visits
    it, which is what couples the increments.
    """
    sites, counts = union_counts_by_union1d(profiles)
    values = law.sample(stream, sites.size)
    return [int(v) for v in counts.T @ values]


def evaluate_increments(profiles, scenery):
    """Z increments for an explicitly given site -> value map."""
    sites, counts = union_counts_by_union1d(profiles)
    values = np.array([scenery[int(s)] for s in sites], dtype=np.int64)
    return [int(v) for v in counts.T @ values]


def char_given_profiles(profiles, law, theta):
    """Conditional characteristic value prod_y phi(sum_j theta_j N_j(y))."""
    counts = _union_counts(profiles)
    u = counts.astype(np.float64) @ np.asarray(theta, dtype=np.float64)
    vals = law.char(u)
    return complex(np.prod(vals))


def agree_within(a, b, n_sigma=3.0):
    """Whether two estimates agree within n_sigma combined standard errors."""
    se = math.sqrt(a.std_error ** 2 + b.std_error ** 2)
    return abs(a.value - b.value) <= n_sigma * se


def tightness_stats(step, scen, n, t, h_list, replicas, stream):
    """E[(zero-count increment over (t, t+h))^2], one row per h."""
    rows = []
    for idx, h in enumerate(h_list):
        m1 = max(1, int(n * t))
        m2 = int(n * (t + h))
        def task(sub):
            counts = _zero_count_trajectory(step, scen, [m1, m2], sub)
            return float(counts[1] - counts[0]) ** 2

        vals = replicate(task, replicas, stream.substream(idx))
        est = estimate_from_values(vals)
        rows.append((float(h), est))
    return rows


def sample_delta_marginal(T_list, fineness, stream):
    """Joint sample of the process at several horizons via its conditional law.

    Draws the local-time realization, then a centered Gaussian vector with
    the Gram covariance of the cumulative fields.  Coded independently of
    sample_delta_path on purpose: the agreement of the two samplers is one
    of the distributional checks.
    """
    cumulative, _ = sample_local_time_fields(T_list, fineness, stream)
    gram = gram_of_fields(cumulative)
    eig, vecs = np.linalg.eigh(gram.entries)
    if eig.min() < -1e-10 * max(1.0, float(np.trace(gram.entries))):
        raise AssertionError("covariance not PSD after clamping")
    eig = np.clip(eig, 0.0, None)
    root = vecs @ np.diag(np.sqrt(eig))
    return root @ stream.gen.standard_normal(len(T_list))


def support_increase_bound(path, eps, box_width):
    """Max mollified-increase over boxes staying 3 sqrt(eps) away from zero.

    Deterministic bound: on such a box the kernel never exceeds its value
    at 3 sqrt(eps), so the increase is at most width * p_eps(3 sqrt(eps)).
    Returns (observed_max, bound).
    """
    width = max(1, int(round(box_width / path.dt)))
    vals = path.values
    nbox = vals.size // width
    trimmed = vals[: nbox * width].reshape(nbox, width)
    away = np.abs(trimmed).min(axis=1) >= 3.0 * math.sqrt(eps)
    dens = np.exp(-(trimmed**2) / (2.0 * eps)) / math.sqrt(2.0 * math.pi * eps)
    increases = path.dt * dens.sum(axis=1)
    observed = float(increases[away].max()) if away.any() else 0.0
    bound = width * path.dt * math.exp(-4.5) / math.sqrt(2.0 * math.pi * eps)
    return observed, bound


_EMBEDDED_CHUNK = 1 << 22  # steps, whole raw words of the bit layout
_COIN = SimpleNamespace(support=(-1, 1))  # the simple walk's two steps


def embedded_positions_by_loop(total, stream):
    """Positions S_0..S_{total-1} of a simple +-1 walk, chunked."""
    out = np.empty(total, dtype=np.int64)
    out[0] = 0
    done = 1
    while done < total:
        take = min(_EMBEDDED_CHUNK, total - done)
        steps = draw_by_bits(_COIN, stream, take)
        np.cumsum(steps, out=out[done : done + take])
        out[done : done + take] += out[done - 1]
        done += take
    return out


def origin_local_time_at_range_exit_by_loop(fineness, stream):
    """Origin visit count, over sqrt(m), at the first exit of [-sqrt(m), sqrt(m)]."""
    m = int(fineness)
    bound = int(math.floor(math.sqrt(m)))
    pos = 0
    zeros = 0
    chunk = 1 << 16
    while True:
        steps = draw_by_bits(_COIN, stream, chunk)
        block = np.empty(chunk, dtype=np.int64)
        block[0] = pos
        np.cumsum(steps[:-1], out=block[1:])
        block[1:] += pos
        out = np.nonzero(np.abs(block) > bound)[0]
        if out.size:
            stop = int(out[0])
            zeros += int(np.count_nonzero(block[:stop] == 0))
            return zeros / math.sqrt(m)
        zeros += int(np.count_nonzero(block == 0))
        pos = int(block[-1] + steps[-1])


def walk_field(walk, T, m):
    """Local-time field at horizon T of a frozen `WalkRealization` of fineness m."""
    mark = int(math.floor(m * T))
    seg = walk.positions[:mark]
    lo = int(seg.min())
    counts = np.bincount(seg - lo).astype(np.float64)
    h = 1.0 / math.sqrt(m)
    return LocalTimeField(lo, h, counts / math.sqrt(m))


def sample_delta_path_by_unique(horizon, dt, fineness, stream, walk=None):
    """`delta_process.sample_delta_path` with site ranks from `np.unique`.

    Passing a frozen `walk` redraws only the noise (conditional
    resampling); a walk that skips sites gets noise on its occupied sites
    only.
    """
    m = int(fineness)
    if dt * m < 1.0:
        raise ValueError("need at least one lattice step per time-grid cell")
    n_grid = int(round(horizon / dt))
    total = int(math.floor(m * horizon))
    if walk is None:
        walk = WalkRealization(embedded_positions_by_loop(total, stream))
    positions = walk.positions
    sites, seq = np.unique(positions, return_inverse=True)
    noise = stream.gen.standard_normal(sites.size)
    increments = noise[seq] * m ** -0.75
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    marks = np.minimum((np.arange(n_grid + 1) * dt * m).astype(np.int64), total)
    return DeltaPath(cum[marks], float(dt), walk)


def zero_set_boxcount_by_reshape(path, scales, hurst=0.75):
    """`delta_process.zero_set_boxcount` with one reshape of the values per scale."""
    scales = sorted(float(s) for s in scales)
    if len(scales) < 4 or scales[-1] / scales[0] < 100.0:
        raise ValueError("need >= 4 scales spanning >= 2 decades")
    vals = path.values
    pts = []
    for s in scales:
        width = max(1, int(round(s / path.dt)))
        nbox = vals.size // width
        if nbox < 1:
            continue
        trimmed = vals[: nbox * width].reshape(nbox, width)
        sign_change = (trimmed.min(axis=1) <= 0.0) & (trimmed.max(axis=1) >= 0.0)
        near = np.abs(trimmed).min(axis=1) < s ** hurst
        count = int(np.count_nonzero(sign_change | near))
        if count > 0:
            pts.append((1.0 / s, float(count), None))
    if len(pts) < 3:
        raise DegenerateRatioError("no countable zero boxes; degenerate path")
    return fit_power_law(pts)


def return_prob_table_complex(law, profiles, block=512):
    """`scenery.ReturnProbTable(law).evaluate` on the complex `char` table.

    log|phi| and np.angle(phi) tables for every law, and the cos of the
    phase product per batch.
    """
    admissible = [p.length % law.d0 == 0 for p in profiles]
    out = np.zeros(len(profiles))
    todo = [i for i, ok in enumerate(admissible) if ok]
    if not todo:
        return out
    cmax = max(int(profiles[i].counts.max()) for i in todo)
    vmax = max(float(np.dot(profiles[i].counts, profiles[i].counts)) for i in todo)
    d = law.d
    nodes = int(math.ceil(8.0 * law.max_value * math.sqrt(vmax) / d))
    nodes = max(64, nodes + (nodes % 2))
    half = nodes // 2
    theta = (2.0 * math.pi / (d * nodes)) * np.arange(half + 1)
    phi = law.char(np.outer(np.arange(1, cmax + 1, dtype=np.float64), theta))
    mag = np.abs(phi)
    logmag = np.where(mag > 0, np.log(np.maximum(mag, 1e-320)), _LOG_FLOOR)
    ang = np.angle(phi)
    w = np.full(half + 1, 2.0 / nodes)
    w[0] = w[-1] = 1.0 / nodes
    for lo in range(0, len(todo), block):
        batch = todo[lo : lo + block]
        mults = np.empty((len(batch), cmax))
        for row, i in enumerate(batch):
            c = profiles[i].counts
            mults[row] = np.bincount(c - 1, minlength=cmax)[:cmax]
        total_log = np.maximum(mults @ logmag, _LOG_FLOOR)
        total_ang = mults @ ang
        vals = (np.exp(total_log) * np.cos(total_ang)) @ w
        out[batch] = np.maximum(vals, 0.0)
    return out


def _pmf_2d(count_pairs, law, cell_limit=int(6e7)):
    """Dense joint pmf of (sum xi*c1, sum xi*c2) over shared-scenery sites."""
    c1 = count_pairs[:, 0]
    c2 = count_pairs[:, 1]
    A1 = halfwidth_by_numpy(c1, law)
    A2 = halfwidth_by_numpy(c2, law)
    n1, n2 = 2 * A1 + 1, 2 * A2 + 1
    if n1 * n2 > cell_limit:
        raise BudgetExceededError(
            f"2D convolution grid {n1}x{n2} exceeds the exact-evaluation budget"
        )
    cur = np.zeros((n1, n2))
    cur[A1, A2] = 1.0
    nxt = np.empty_like(cur)
    atoms = [(int(x), float(p)) for x, p in zip(law.support, law.probs)]
    for a, b in np.asarray(count_pairs, dtype=np.int64):
        a, b = int(a), int(b)
        nxt[:] = 0.0
        for x, p in atoms:
            s1, s2 = a * x, b * x
            src1 = slice(max(0, -s1), min(n1, n1 - s1))
            dst1 = slice(max(0, s1), min(n1, n1 + s1))
            src2 = slice(max(0, -s2), min(n2, n2 - s2))
            dst2 = slice(max(0, s2), min(n2, n2 + s2))
            nxt[dst1, dst2] += p * cur[src1, src2]
        cur, nxt = nxt, cur
    lost = abs(1.0 - math.fsum(cur.ravel()))
    if lost > 1e-10:
        raise AssertionError(f"convolution truncation lost {lost:.3e} mass")
    return cur, A1, A2


def _alias_nodes(counts_matrix, law, d):
    """Even node count making trapezoid aliasing < 1e-12 in every direction."""
    v = (counts_matrix.astype(np.float64) ** 2).sum(axis=0).max()
    m = int(math.ceil(8.0 * law.max_value * math.sqrt(max(v, 1.0)) / d))
    return m + (m % 2)


def _quad_value_nd(distinct, mult, law, d, nodes, block=4096):
    k = distinct.shape[1]
    theta = (2.0 * math.pi / (d * nodes)) * np.arange(nodes)
    total_pts = nodes ** k
    acc = 0.0
    for lo in range(0, total_pts, block):
        idx = np.arange(lo, min(lo + block, total_pts))
        coords = np.empty((idx.size, k))
        rem = idx.copy()
        for j in range(k - 1, -1, -1):
            coords[:, j] = theta[rem % nodes]
            rem //= nodes
        prod = np.ones(idx.size, dtype=np.complex128)
        for row, m in zip(distinct, mult):
            u = coords @ row.astype(np.float64)
            prod *= law.char(u) ** int(m)
        acc += float(prod.real.sum())
    return acc / total_pts


def _char_quadrature(profiles, law):
    """Trapezoid mean of the conditional characteristic function.

    The equal-weight trapezoid sum over one periodicity cell of the (2pi/d
    periodic, even) integrand equals P(all increments 0 | walk) up to
    aliasing terms P(Z = l*d*M), so starting at the aliasing bound already
    gives 1e-12 accuracy; node doubling confirms to 1e-9.
    """
    counts = _union_counts(profiles)
    distinct, mult = np.unique(counts, axis=0, return_counts=True)
    keep = np.any(distinct != 0, axis=1)
    distinct, mult = distinct[keep], mult[keep].astype(np.float64)
    d = law.d
    k = counts.shape[1]
    m = max(64, _alias_nodes(counts, law, d))
    prev = _quad_value_nd(distinct, mult, law, d, m)
    while (2 * m) ** k <= (1 << 24):
        m *= 2
        val = _quad_value_nd(distinct, mult, law, d, m)
        if abs(val - prev) <= 1e-9:
            return val
        prev = val
    return prev


def conditional_return_prob(profiles, law):
    """P(all segment increments of Z equal 0 | walk realization).

    Exactly 0 whenever some segment length is not a multiple of d0 (the
    lattice constraint leaves no mass at zero).  Otherwise evaluated by an
    exact convolution for k = 1 (over the whole support) and k = 2
    (truncated at `halfwidth_by_numpy`), and for k >= 3 by
    periodic trapezoid quadrature of the conditional characteristic
    function, whose node count doubles until two refinements agree within
    1e-9.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    if not _admissible(profiles, law):
        return 0.0
    if len(profiles) == 1:
        pmf, A = pmf_1d_on_full_grid(profiles[0].counts, law)
        return float(pmf[A])
    if len(profiles) == 2:
        counts = _union_counts(profiles)
        pmf, A1, A2 = _pmf_2d(counts, law)
        return float(pmf[A1, A2])
    return min(1.0, max(0.0, _char_quadrature(profiles, law)))


@dataclass(frozen=True)
class MollifiedLocalTime:
    """Gaussian-kernel occupation density of one path near level x."""

    eps: float
    t: float
    x: float
    value: float

    def __post_init__(self):
        bound = self.t / math.sqrt(2.0 * math.pi * self.eps) + 1e-12
        if self.value < 0 or self.value > bound:
            raise AssertionError("mollified local time outside kernel bounds")


def mollified_local_time(path, eps, t, x):
    """`delta_process.mollified_values` at one level, checked against the
    kernel bounds."""
    value = float(mollified_values(path, eps, t, [x])[0])
    return MollifiedLocalTime(float(eps), float(t), float(x), value)


def ray_knight_profile(level, fineness, stream, horizon_cap=10 ** 9):
    """Walk local-time profile at the first time the origin count tops level*sqrt(m).

    Simulates the embedded walk step by step until the visit count at the
    origin first exceeds level * sqrt(m) and returns the normalized profile
    N_tau(y) / sqrt(m) for offsets y >= 0; by the second Ray-Knight theorem
    its continuum counterpart is a squared Bessel process of dimension 0
    started from `level`.  The stopping time has infinite mean, hence the
    hard horizon cap; see `brownian.ray_knight_profile_fast` for the heavy-replica
    sampler with the identical law.
    """
    m = int(fineness)
    target = int(math.floor(level * math.sqrt(m))) + 1
    counts = np.zeros(1, dtype=np.int64)  # counts[y] for y >= 0 only
    pos = 0
    zeros_seen = 0
    consumed = 0
    while True:
        chunk = min(1 << 16, horizon_cap - consumed)
        if chunk < 2:
            raise BudgetExceededError("Ray-Knight horizon cap exceeded")
        steps = stream.gen.integers(0, 2, size=chunk) * 2 - 1
        block = np.empty(chunk, dtype=np.int64)
        block[0] = pos
        np.cumsum(steps[:-1], out=block[1:])
        block[1:] += pos
        zero_count = np.cumsum(block == 0)
        hit = np.nonzero(zeros_seen + zero_count >= target)[0]
        stop = int(hit[0]) + 1 if hit.size else chunk  # include stopping visit
        nonneg = block[:stop]
        nonneg = nonneg[nonneg >= 0]
        if nonneg.size:
            top = int(nonneg.max())
            if top >= counts.size:
                counts = np.concatenate(
                    [counts, np.zeros(top + 1 - counts.size, dtype=np.int64)]
                )
            counts[: top + 1] += np.bincount(nonneg, minlength=top + 1)
        if hit.size:
            return counts.astype(np.float64) / math.sqrt(m)
        zeros_seen += int(zero_count[-1])
        pos = int(block[-1] + steps[-1])
        consumed += chunk


# The k >= 2 evaluator's kernels as they were before the coset convolution,
# the float64 residuals and the dense site union: the fast kernels in
# `scenery` must equal them byte for byte.  They take no name from
# `rwrs.scenery` (tests/test_startup.py).


def halfwidth_by_numpy(counts, law):
    """Truncation halfwidth for the dense pmf of sum_y xi_y * c_y.

    The target concentrates at scale sigma * n^(3/4); the designed cut is
    12 sigma n^(3/4), widened to 8 * max|xi| * sqrt(sum c^2) whenever the
    realized conditional variance is anomalously large, so the tracked
    truncation error stays below 1e-10.
    """
    counts = np.asarray(counts, dtype=np.int64)
    span = int(np.abs(counts).sum()) * law.max_value
    n = int(counts.sum())
    v = float(np.dot(counts, counts))
    cut = max(
        int(math.ceil(12.0 * math.sqrt(law.sigma2) * n ** 0.75)),
        int(math.ceil(8.0 * law.max_value * math.sqrt(v))),
        4,
    )
    return min(span, cut)


def pmf_1d_on_full_grid(counts, law):
    """Dense pmf (offset -A..A, A = sum|c| * max|x|) of sum_y xi_y * c_y.

    The grid holds the whole support, so nothing is truncated.  Each
    convolution step writes only the window [lo, hi) outside which the
    running pmf is exactly zero.  A cell gets the same products in the
    same atom order as a full-width pass, so it is bit-equal: the first
    product is stored rather than added to 0.0, and the terms that pass
    adds beyond the window are p * 0.0.  Zero padding of max|c * x| on
    both sides keeps every shifted read inside the buffer.
    """
    counts = np.asarray(counts, dtype=np.int64).tolist()
    atoms = [(int(x), float(p)) for x, p in zip(law.support, law.probs)]
    (x_min, p_first), rest = atoms[0], atoms[1:]
    x_max = atoms[-1][0]
    reach = max(-x_min, x_max)
    A = sum(map(abs, counts)) * reach
    size = 2 * A + 1
    pad = max(map(abs, counts), default=0) * reach
    cur = np.zeros(size + 2 * pad)
    nxt = np.zeros(size + 2 * pad)
    cur[pad + A] = 1.0
    lo, hi = A, A + 1
    for c in counts:
        # the support of a centered law straddles 0, so the windows nest and
        # the new window covers every cell nxt held two steps back
        lo += min(c * x_min, c * x_max)
        hi += max(c * x_min, c * x_max)
        a, b = pad + lo, pad + hi
        out = nxt[a:b]
        s = c * x_min
        np.multiply(cur[a - s:b - s], p_first, out=out)
        for x, p in rest:
            s = c * x
            out += p * cur[a - s:b - s]
        cur, nxt = nxt, cur
    return cur[pad:pad + size], A


def pmf_1d_on_coset(counts, law):
    """`pmf_1d_on_full_grid` read at x0 * C + d * u, u = 0 .. C * top.

    The `(pmf, low)` of `scenery._pmf_1d`: x0 and max are the smallest and
    largest atoms, C the count total, d the gcd of the atoms' differences
    and top = (max - x0) / d.
    """
    grid, A = pmf_1d_on_full_grid(counts, law)
    support = [int(x) for x in law.support]
    x0 = support[0]
    d = math.gcd(*(x - x0 for x in support[1:]))
    total = int(np.sum(counts))
    low = x0 * total
    cells = total * (support[-1] - x0) // d + 1
    return grid[A + low::d][:cells].copy(), low


def zero_prob_given_shared_int64(shared_values, shared_counts, pmfs, d):
    """Per scenery row on the shared sites, P(every increment is 0 | row).

    Segment j's sum over its own sites must cancel that row's shared
    residual, so the row's value is the product of pmf_j at minus the
    residual: cell u of `(pmf, low)` holds low + d * u, and rows off that
    coset or outside the support read 0.
    """
    residuals = shared_values @ shared_counts  # (rows, k)
    val = np.full(residuals.shape[0], 1.0)
    for j, (pmf, low) in enumerate(pmfs):
        r = -residuals[:, j] - low
        u = r // d
        ok = (r % d == 0) & (u >= 0) & (u < pmf.size)
        val *= np.where(ok, pmf[np.clip(u, 0, pmf.size - 1)], 0.0)
    return val


def union_counts_by_union1d(profiles):
    """Union of occupied sites and the (n_sites, k) count matrix."""
    sites = profiles[0].sites
    for p in profiles[1:]:
        sites = np.union1d(sites, p.sites)
    counts = np.zeros((sites.size, len(profiles)), dtype=np.int64)
    for j, p in enumerate(profiles):
        counts[np.searchsorted(sites, p.sites), j] = p.counts
    return sites, counts


def draw_by_choice(law, stream, size):
    """`size` values of `law` by `Generator.choice(p=...)` on `stream`."""
    support = np.asarray(law.support, dtype=np.int64)
    return support[stream.gen.choice(len(support), size=size, p=law.float_probs())]


def draw_by_bits(law, stream, size):
    """`size` values of a two-point `law`, one bit of a raw word each.

    Value i of the flat C-order output is support[1] if bit i % 64 of raw
    word i // 64, counted from the least significant, is set, and
    support[0] if not; the bit is read from the word's Python int.  The
    draw takes ceil(count / 64) words.
    """
    count = int(np.prod(size))
    words = stream.gen.bit_generator.random_raw(-(-count // 64)).tolist()
    low, high = law.support
    values = [high if (words[i // 64] >> (i % 64)) & 1 else low for i in range(count)]
    return np.array(values, dtype=np.int64).reshape(size)


def draw_by_reference(law, stream, size):
    """`size` values of `law` in stream layout 2, drawn without `lattice_walk`.

    By bits for a law of two atoms of probability 1/2 each, by
    `Generator.choice` for every other law.
    """
    if len(law.probs) == 2 and law.probs[0] == law.probs[1] == 0.5:
        return draw_by_bits(law, stream, size)
    return draw_by_choice(law, stream, size)
