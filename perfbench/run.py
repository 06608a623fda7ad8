"""Closed-loop benchmark of the `rwrs` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One benchmark process runs one
`rwrs` invocation at a time, each in a fresh interpreter (`child.py`),
for about S seconds, and checks every invocation's output against the
paper's tolerance (see `workloads.py`).  Configs are rendered from the
seed.  Invocations of one run get the same config, except on a workload
with fresh inputs: there each untraced invocation gets its own variant of
the config, and the last one repeats the first.  Invocations of the same
config must write the same `results.csv` (sha256 digest).

With --trace 0 only `cli.run` is wrapped in the child, and the end-to-end
metrics are the medians over the invocations.  With --trace 1 untraced
and traced invocations alternate; the traced ones give the per-layer
metrics (`layers.py`) and the pair gives the tracing overhead.

On a shared machine the speed of a fresh process drifts by up to 1.6x
over minutes.  So before every invocation the benchmark times a reference
process (`reference_s`): a fresh interpreter that imports numpy and
scipy.stats and exits, with no rwrs code.  The end-to-end times are
scaled by REFERENCE_S over the run's median reference time, and
`items_per_s` by the inverse, so they read as seconds at a fixed host
speed.  A change to rwrs moves them as it moves the raw times; a change in
the host's speed cancels.  The raw medians are printed too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it show
every metric with its unit, sample count and quartiles, the raw medians,
the reference process's times, the environment and the output digest.
Timings compare only within one machine.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from layers import PER_LAYER, UNITS, layer_metrics
from workloads import WORKLOADS, read_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
# each metric is divided by the host slowdown to this power
SPEED_SCALED = {"wall_s": 1, "setup_s": 1, "cpu_s": 1, "items_per_s": -1}
MIN_INVOCATIONS = 2  # of each kind (untraced, traced) in one run
HARD_LIMIT_S = 150.0  # no invocation starts or runs past this, from run start
# reference_s() in a quiet period on the 2-core Xeon host the benchmark
# was defined on; it only sets the scale of the reported times
REFERENCE_S = 1.4


def reference_s():
    """Spawn-to-exit time of a fresh interpreter importing numpy and scipy.stats."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.stats"],
                   cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60, check=True)
    return time.monotonic() - start


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """One worker per core for rwrs, one thread for BLAS and OpenMP."""
    env = dict(os.environ)
    env.update(RWRS_THREADS=str(nproc()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    return env


def source_digest():
    """sha256 over src/rwrs/*.py, which names the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rwrs")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def invoke(workload, config_path, work_dir, index, traced, timeout):
    """One rwrs invocation in a fresh interpreter; returns its sample."""
    out_dir = os.path.join(work_dir, f"inv{index}")
    os.makedirs(out_dir)
    record_path = os.path.join(out_dir, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
           f"{workload.name}-{index}", "1" if traced else "0", "--",
           "--config", config_path, "--out", out_dir]
    sample = {"traced": traced, "error": None}
    with open(os.path.join(out_dir, "log.txt"), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        exited = time.monotonic()
    # reaped by wait4 above; setting returncode stops Popen from waiting again
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    sample.update(
        wall_s=exited - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if exited - spawned >= timeout:
        sample["error"] = f"timed out after {timeout:.0f} s"
        return sample
    if code != 0:
        with open(os.path.join(out_dir, "log.txt"), errors="replace") as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        sample["error"] = f"exit code {code}: {tail}"
        return sample
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    (run_span,) = [s for s in record["spans"] if s[2] == "cli.run"]
    sample.update(
        setup_s=run_span[3] - spawned,
        run_s=run_span[4] - run_span[3],
        digest=file_sha256(os.path.join(out_dir, "results.csv")),
        env=record["env"],
    )
    sample["items_per_s"] = workload.items(workload) / sample["run_s"]
    try:
        sample["error"] = workload.check(workload, out_dir)
    except (OSError, LookupError, ValueError) as exc:
        sample["error"] = f"outputs unreadable: {exc!r}"
    if traced:
        sample["layers"] = layer_metrics(record, read_report(out_dir))
    return sample


def summarize(values):
    """Median, quartiles, and the highest percentile with 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "q1": values[0], "q3": values[-1]}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = values[n - 11]
    return out


def run_benchmark(workload, seed, seconds, trace, min_invocations=MIN_INVOCATIONS):
    """Run the closed loop for `seconds`; returns the run's full record."""
    work_dir = os.path.join(WORK, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        samples, reference = [], []
        started = time.monotonic()
        longest = 0.0  # of the loop's steps: reference process and invocation

        def step(variant, traced):
            nonlocal longest
            begun = time.monotonic()
            config_path = os.path.join(work_dir, f"config{variant}.ini")
            if not os.path.exists(config_path):
                with open(config_path, "w", encoding="utf-8") as fh:
                    fh.write(workload.config_text(seed, "out", variant))
            reference.append(reference_s())
            sample = invoke(workload, config_path, work_dir, len(samples), traced,
                            HARD_LIMIT_S - (begun - started))
            samples.append(dict(sample, variant=variant))
            longest = max(longest, time.monotonic() - begun)

        kinds = [False, True] if trace else [False]
        fresh = workload.fresh_inputs and not trace
        reserve = 1 if fresh else 0  # steps kept for the repeat of variant 0
        while True:
            elapsed = time.monotonic() - started
            traced = kinds[len(samples) % len(kinds)]
            done = sum(1 for s in samples if s["traced"] == traced) + reserve
            ends = elapsed + (1 + reserve) * longest
            if done >= min_invocations and ends > seconds:
                break
            if ends > HARD_LIMIT_S:
                break
            step(len(samples) if fresh else 0, traced)
        if fresh:
            step(0, False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's work directory is still there
    return aggregate(workload, seed, seconds, trace, samples, reference)


def aggregate(workload, seed, seconds, trace, samples, reference):
    digests = {}  # variant -> results.csv digests of its invocations
    for s in samples:
        if s.get("digest"):
            digests.setdefault(s["variant"], set()).add(s["digest"])
    for s in samples:
        if len(digests.get(s["variant"], ())) > 1:
            s["error"] = s["error"] or "results.csv digest differs within the run"
    # a wrong answer is still timed; it counts as failed below
    plain = [s for s in samples if not s["traced"] and "setup_s" in s]
    traced = [s for s in samples if "layers" in s]
    reference = summarize(reference)
    slowdown = reference["median"] / REFERENCE_S
    end_to_end = {}
    for name, unit in END_TO_END:
        vals = [s[name] for s in plain if name in s]
        if vals:
            scale = slowdown ** -SPEED_SCALED.get(name, 0)
            stats = summarize([v * scale for v in vals])
            end_to_end[name] = dict(stats, unit=unit, raw=stats["median"] / scale)
    per_layer = {}
    if traced:
        for name, unit in PER_LAYER[:-1]:
            vals = [s["layers"][name] for s in traced]
            if unit == "count" and len(set(vals)) > 1:
                for s in traced:
                    s["error"] = f"{name} differs across traced invocations"
            per_layer[name] = dict(summarize(vals), unit=unit)
        overhead = (statistics.median(s["wall_s"] for s in traced)
                    / statistics.median(s["wall_s"] for s in plain) - 1.0
                    if plain else 0.0)
        per_layer["trace.overhead_frac"] = {"median": overhead, "n": len(traced),
                                            "unit": UNITS["trace.overhead_frac"]}
    failed = sum(1 for s in samples if s["error"] is not None)
    env = next((s["env"] for s in samples if s.get("env")), {})
    env.update(
        git_sha=git_sha(), source_sha256=source_digest(), nproc=nproc(),
        RWRS_THREADS=child_env()["RWRS_THREADS"],
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
        note="timings compare only within one machine",
    )
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "item": workload.item,
        "items": workload.items(workload),
        "attempted": len(samples), "failed": failed,
        "failed_frac": failed / len(samples),
        "digests": {v: sorted(d) for v, d in sorted(digests.items())}, "env": env,
        "reference_s": reference, "host_slowdown": slowdown,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "errors": [s["error"] for s in samples if s["error"]],
    }


def report_lines(result):
    yield (f"workload {result['workload']} seed {result['seed']} trace "
           f"{result['trace']}: {result['items']} x {result['item']}")
    for section in ("end_to_end", "per_layer"):
        for name, s in result[section].items():
            line = f"  {name}: {s['median']:.6g} {s['unit']} (median of {s['n']}"
            if "q1" in s:
                line += f"; quartiles {s['q1']:.6g} .. {s['q3']:.6g}"
            if section == "end_to_end":
                line += (f"; p{s['tail_pct']:.0f} {s['tail']:.6g}" if "tail" in s
                         else "; no percentile has 10 samples beyond it")
                line += f"; raw median {s['raw']:.6g}"
            yield line + ")"
    r = result["reference_s"]
    yield (f"  reference process: {r['median']:.6g} s (median of {r['n']}; quartiles "
           f"{r['q1']:.6g} .. {r['q3']:.6g}); host slowdown "
           f"{result['host_slowdown']:.4f} against {REFERENCE_S} s")
    yield (f"  failed_frac: {result['failed_frac']:.6g} frac "
           f"({result['failed']} of {result['attempted']} invocations)")
    for error in result["errors"]:
        yield f"  failure: {error}"
    for variant, digests in result["digests"].items():
        yield f"  results.csv sha256 (config variant {variant}): {', '.join(digests)}"
    if not result["digests"]:
        yield "  results.csv sha256: none"
    yield "  env: " + json.dumps(result["env"], sort_keys=True)


def result_line(result):
    """The run's verdict and its end-to-end or (traced) per-layer metrics."""
    section = result["per_layer"] if result["trace"] else result["end_to_end"]
    names = PER_LAYER if result["trace"] else END_TO_END
    metrics = {name: {"value": section[name]["median"], "unit": unit}
               for name, unit in names if name in section}
    return {
        "correct": result["failed"] == 0 and len(metrics) == len(names),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rwrs", "cli.py")):
        print(f"no rwrs sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                           args.trace)
    for line in report_lines(result):
        print(line)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
