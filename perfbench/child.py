"""Run one `rwrs` command-line invocation under the benchmark's wrappers.

    python3 child.py RECORD_PATH RUN_ID TRACE -- RWRS_ARGS...

The program is not modified: this script imports `rwrs.cli` from the
checkout's `src/`, wraps functions at the module boundaries and calls
`rwrs.cli.main(RWRS_ARGS)`.  With TRACE=0 only
`cli.run` is wrapped, which gives the benchmark its set-up and run times.
With TRACE=1 every public function of every `rwrs` module is wrapped too,
and each call becomes a span (id, parent id, name, start, end) kept in
memory.  Counts of work done are taken at the same boundaries.  Spans,
counts and the environment are written to RECORD_PATH as JSON when the
invocation ends; the exit code is that of `rwrs.cli.main`.
"""

import concurrent.futures
import contextvars
import functools
import inspect
import itertools
import json
import math
import os
import platform
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("simkit", "lattice_walk", "scenery", "exact_oracle", "brownian",
          "delta_process", "harness", "cli")
# public functions that a module's __all__ does not list, and methods
EXTRA_FUNCTIONS = {"simkit": ("estimate_from_values",)}
METHODS = {
    "simkit": {"RngStream": ("substream",)},
    "lattice_walk": {"StepLaw": ("sample_steps",)},
    "scenery": {"SceneryLaw": ("char", "sample"),
                "ReturnProbTable": ("evaluate",)},
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> f(args, kwargs, result) -> {count name: increment}
COUNTERS = {
    "simkit.RngStream.substream": lambda a, k, r: {"simkit.streams": 1},
    "simkit.derive_stream": lambda a, k, r: {"simkit.streams": 1},
    "lattice_walk.StepLaw.sample_steps": lambda a, k, r: {
        "lattice_walk.steps": int(r.size)},
    "lattice_walk.simulate_local_times": lambda a, k, r: {
        "lattice_walk.profiles": len(r),
        "lattice_walk.profile_sites": sum(int(p.sites.size) for p in r)},
    "scenery.ReturnProbTable.evaluate": lambda a, k, r: {
        "scenery.table_profiles": len(_arg(a, k, 1, "profiles"))},
    "scenery.SceneryLaw.char": lambda a, k, r: {
        "scenery.char_points": int(getattr(_arg(a, k, 1, "u"), "size", 1))},
    "scenery.joint_return_prob_sampled": lambda a, k, r: {
        "scenery.joint_calls": 1},
    "scenery.SceneryLaw.sample": lambda a, k, r: {"scenery.draws": int(r.size)},
    "brownian.sample_local_time_fields": lambda a, k, r: {
        "brownian.fields": len(r[0]),
        "brownian.field_steps": int(math.floor(
            int(_arg(a, k, 1, "fineness")) * float(_arg(a, k, 0, "T_list")[-1])))},
    "brownian.gram_of_fields": lambda a, k, r: {"brownian.grams": 1},
    "delta_process.sample_delta_path": lambda a, k, r: {
        "delta_process.paths": 1,
        "delta_process.path_steps": int(r.walk.positions.size)},
    "exact_oracle.exact_joint_return": lambda a, k, r: {
        "exact_oracle.paths": int(r.path_count)},
    "exact_oracle.exact_counting_moment": lambda a, k, r: {
        "exact_oracle.paths": len(_arg(a, k, 0, "step").support)
        ** int(_arg(a, k, 2, "n"))},
}


class Tracer:
    """Spans and counts of one invocation, kept in memory.

    Span 0 is the invocation itself.  A span's parent is the innermost span
    open where the call was made; a task submitted to a thread pool runs in
    the submitter's context (see `install`), so its spans nest under the
    span that submitted it.  Children that run in parallel can cover more
    time than their parent lasts; the parent's self time is then 0.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        spans, counts, current, ids = self.spans, self.counts, self._current, self._ids
        lock = self._lock
        counter = COUNTERS.get(name)
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((span_id, parent, name, start, end))
            if counter is not None:
                increments = counter(args, kwargs, result)
                with lock:
                    for key, value in increments.items():
                        counts[key] = counts.get(key, 0) + value
            return result

        return wrapper


def _submit_in_context(submit):
    """Make a thread pool run each task in a copy of the submitter's context."""

    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return wrapper


def install(tracer, traced):
    """Wrap the layer boundaries; each name is patched where callers look it up."""
    import rwrs

    modules = {name: getattr(rwrs, name) for name in LAYERS}
    targets = {modules["cli"].run: "cli.run"}
    if traced:
        pool = concurrent.futures.ThreadPoolExecutor
        pool.submit = _submit_in_context(pool.submit)
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(layer, ()))
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = f"{layer}.{name}"
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}",
                                                   cls.__dict__[meth]))
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    for mod in list(modules.values()) + [rwrs]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


def main():
    record_path, run_id, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD_PATH RUN_ID TRACE -- RWRS_ARGS...")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import_start = time.monotonic()
    import rwrs.cli
    import_end = time.monotonic()
    if not os.path.abspath(rwrs.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported rwrs from {rwrs.__file__}, not from the checkout")

    tracer = Tracer(run_id)
    install(tracer, traced)
    try:
        return rwrs.cli.main(sys.argv[5:])
    finally:
        import numpy
        import scipy

        record = {
            "run_id": run_id,
            "import_start": import_start,
            "import_end": import_end,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
