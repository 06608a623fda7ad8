"""Command-line driver: config validation, experiment dispatch, export.

Configs are flat INI-style text (key = value under sections); unknown keys
are rejected so a manifest diff always means a semantic change.  Every run
writes results.csv, report.json and manifest.txt into the output directory
and is bit-reproducible from (config, seed).
"""

import argparse
import configparser
import ctypes
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__, brownian, delta_process, exact_oracle, harness
from .errors import BudgetExceededError, DegenerateRatioError
from .lattice_walk import StepLaw
from .scenery import SceneryLaw
from .simkit import RngStream, replicate, write_manifest

__all__ = ["main", "validate_config", "run", "export_results", "ExperimentConfig"]


_LAW_ALIASES = {
    "simple": {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    "rademacher": {-1: Fraction(1, 2), 1: Fraction(1, 2)},
    "lazy": {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)},
}

# every subcommand accepts [run]; law/param keys are checked per subcommand
_COMMON_RUN_KEYS = {"seed", "out", "replicas"}

_DEFAULTS = {
    "seed": "20240801",
    "replicas": "1000",
    "out": "out",
}


@dataclass
class ExperimentConfig:
    """Validated, fully-resolved experiment description."""

    subcommand: str
    step: StepLaw | None
    scenery: SceneryLaw | None
    params: dict
    seed: int
    replicas: int
    out_dir: str
    allow_inadmissible: bool = False
    derived: dict = field(default_factory=dict)

    def snapshot(self):
        snap = {"subcommand": self.subcommand, "seed": str(self.seed),
                "replicas": str(self.replicas)}
        for key, value in sorted(self.params.items()):
            snap[f"params.{key}"] = str(value)
        if self.step:
            snap["laws.step"] = _law_to_text(self.step)
        if self.scenery:
            snap["laws.scenery"] = _law_to_text(self.scenery)
        for key, value in sorted(self.derived.items()):
            snap[f"derived.{key}"] = str(value)
        return snap


def _law_to_text(law):
    return ",".join(f"{x}:{p}" for x, p in zip(law.support, law.probs))


def _parse_law_text(text):
    text = text.strip()
    if text in _LAW_ALIASES:
        return dict(_LAW_ALIASES[text])
    pmf = {}
    for part in text.split(","):
        site, _, prob = part.partition(":")
        if not prob:
            raise ValueError(f"bad law atom {part!r}; expected site:prob")
        pmf[int(site.strip())] = Fraction(prob.strip())
    return pmf


def _parse_int_list(text):
    return [int(tok) for tok in text.replace(",", " ").split()]


def _parse_float_list(text):
    return [float(Fraction(tok)) for tok in text.replace(",", " ").split()]


def _parse_fraction(text):
    return float(Fraction(text))


# param key -> (parser, default text; None when the key is optional)
_PARAMS = {
    "n_list": (_parse_int_list, "1024 2048 4096"),
    "times": (_parse_int_list, "2"),
    "n_max": (int, "8"),
    "k": (int, "1"),
    "t_ratios": (_parse_float_list, None),
    "t_list": (_parse_float_list, "1.0"),
    "fineness": (int, str(1 << 14)),
    "n": (int, str(1 << 12)),
    "y": (_parse_fraction, "1"),
    "dt": (_parse_fraction, "1"),
    "draws": (int, "100000"),
    "level": (_parse_fraction, "1"),
    "offset": (_parse_fraction, "1/2"),
    "eps": (_parse_fraction, "1/20"),
    "t": (_parse_fraction, "2"),
    "t_ratio": (_parse_fraction, "1"),
    "scales": (_parse_float_list, " ".join(f"1/{2 ** j}" for j in range(7, 15))),
    "paths": (int, "100"),
    "scenery_draws": (int, "64"),
}


def validate_config(path, overrides=None):
    """Parse and validate a config file.

    Returns an ExperimentConfig, or a list of error strings (each naming
    the offending field and constraint) if anything is invalid.
    """
    errors = []
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        return [f"config: unreadable or malformed ({exc})"]

    if not parser.has_section("experiment") or "subcommand" not in parser["experiment"]:
        return ["experiment.subcommand: missing"]
    sub = parser["experiment"]["subcommand"].strip()
    if sub not in _SUBCOMMANDS:
        return [f"experiment.subcommand: unknown subcommand {sub!r}"]
    entry = _SUBCOMMANDS[sub]

    for extra in set(parser["experiment"]) - {"subcommand"}:
        errors.append(f"experiment.{extra}: unknown key")
    for section in parser.sections():
        if section == "experiment":
            continue
        if section not in ("laws", "params", "run"):
            errors.append(f"{section}: unknown section")
            continue
        allowed = (
            entry.laws if section == "laws"
            else entry.params if section == "params"
            else _COMMON_RUN_KEYS
        )
        for key in parser[section]:
            if key not in allowed:
                errors.append(f"{section}.{key}: unknown key for {sub}")

    def get(section, key, default=None):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return default

    step = scenery = None
    if "step" in entry.laws:
        try:
            step = StepLaw.from_dict(_parse_law_text(get("laws", "step", "simple")))
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"laws.step: {exc}")
    if "scenery" in entry.laws:
        try:
            scenery = SceneryLaw.from_dict(
                _parse_law_text(get("laws", "scenery", "rademacher"))
            )
        except (ValueError, AssertionError, ZeroDivisionError) as exc:
            errors.append(f"laws.scenery: {exc}")

    overrides = overrides or {}
    try:
        seed = int(overrides.get("seed") or get("run", "seed", _DEFAULTS["seed"]))
    except ValueError:
        errors.append("run.seed: not an integer")
        seed = 0
    try:
        replicas = int(
            overrides.get("replicas") or get("run", "replicas", _DEFAULTS["replicas"])
        )
        if replicas <= 0:
            errors.append("run.replicas: must be positive")
        elif replicas < 2 and entry.spread:
            errors.append(f"run.replicas: must be at least 2 for {sub} "
                          "(a standard error or a KS statistic needs two samples)")
    except ValueError:
        errors.append("run.replicas: not an integer")
        replicas = 1
    out_dir = overrides.get("out") or get("run", "out", _DEFAULTS["out"])
    allow_inadmissible = bool(overrides.get("allow_inadmissible", False))

    raw_params = dict(parser["params"]) if parser.has_section("params") else {}
    params, param_errors = _resolve_params(entry, raw_params)
    errors.extend(param_errors)

    derived = {}
    if scenery is not None:
        derived.update(
            {"sigma2": scenery.sigma2, "d": scenery.d, "d0": scenery.d0}
        )
        # the oracle's segments are the gaps between its times
        times = params.get("times", [])
        lengths = {"n_list": params.get("n_list", []),
                   "times": [b - a for a, b in zip([0] + times, times)]}
        for key, ns in lengths.items():
            bad = [n for n in ns if n % scenery.d0]
            if bad and not allow_inadmissible:
                errors.append(
                    f"params.{key}: length {bad[0]} violates the d0-divisibility "
                    f"constraint (d0={scenery.d0}); inadmissible times have "
                    "probability exactly 0 (pass --allow-inadmissible to force)"
                )
    if step is not None:
        derived["step_variance"] = step.variance
    if entry.check is not None:
        errors.extend(entry.check(params, scenery, allow_inadmissible))
    # each enumeration's budget, checked as the oracle checks it; the
    # moment's first path takes n_max equal nonzero steps, so it visits
    # n_max sites and no path visits more
    n_k, n_max = params.get("times", [0])[-1], params.get("n_max", 0)
    budgets = [("times", exact_oracle._check_budget, step, n_k),
               ("n_max", exact_oracle._check_budget, step, n_max),
               ("n_max", exact_oracle._check_scenery_budget, scenery, n_max)]
    for key, check, law, n in budgets:
        try:
            if key in params and law is not None:
                check(law, n)
        except BudgetExceededError as exc:
            errors.append(f"params.{key}: {exc}")

    if errors:
        return errors
    return ExperimentConfig(
        subcommand=sub,
        step=step,
        scenery=scenery,
        params=params,
        seed=seed,
        replicas=replicas,
        out_dir=out_dir,
        allow_inadmissible=allow_inadmissible,
        derived=derived,
    )


def _resolve_params(entry, raw):
    """Parse and range-check the params of a subcommand; returns (params, errors)."""
    params, errors = {}, []
    for key in sorted(entry.params):
        parse, default = _PARAMS[key]
        text = raw.get(key, default)
        if text is None:
            continue
        try:
            params[key] = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"params.{key}: {exc}")
    for key in ("n_list", "times"):
        values = params.get(key)
        if values is not None and (
            not values or values[0] <= 0
            or any(b <= a for a, b in zip(values, values[1:]))
        ):
            errors.append(f"params.{key}: must be nonempty, positive, strictly increasing")
            del params[key]  # the checks below read only valid lists
    if params.get("n_max", 1) < 1:
        errors.append("params.n_max: must be at least 1")
    if entry.fields and params.get("fineness", 1000) < 1000:
        errors.append("params.fineness: must be at least 1000 to sample Brownian "
                      "local-time fields")
    if params.get("paths", 2) < 2:
        errors.append("params.paths: must be at least 2 for a standard error")
    scales = params.get("scales")
    if scales is not None and (len(scales) < 4 or min(scales) <= 0
                               or max(scales) / min(scales) < 100.0):
        errors.append("params.scales: need >= 4 positive scales spanning >= 2 decades")
    # a box narrower than one grid cell clamps to a single cell, so with
    # every scale below dt all boxes are alike and the fit is meaningless
    dt = params.get("dt")
    if scales and dt is not None and max(scales) < dt:
        errors.append(f"params.scales: the largest scale {max(scales):g} is below "
                      f"params.dt = {dt:g}, so every box is one grid cell")
    # the scenery-integral path needs one lattice step per time-grid cell
    if "dt" in params and "fineness" in params and params["dt"] * params["fineness"] < 1:
        errors.append("params.dt: dt * fineness must be at least 1 "
                      "(one lattice step per time-grid cell)")
    return params, errors


def _row(name, n, value, std_error=0.0):
    return {"name": name, "n": n, "value": value, "std_error": std_error}


def _fit_dict(fit):
    return {"slope": fit.slope, "intercept": fit.intercept,
            "slope_ci": fit.slope_ci, "r2": fit.r2}


def _abs_dev_test(name, value, expect, se):
    """Report of |value - expect| against three standard errors."""
    dev = abs(value - expect)
    return {"name": name, "statistic": "abs-dev", "value": dev,
            "threshold": 3 * se, "verdict": bool(dev <= 3 * se)}


# Handlers: (config, params, stream, report) -> rows.  They call library
# functions through their modules, so a wrapper bound to the module
# attribute after import (perfbench/child.py) sees every call.

def _analyze_law(config, p, stream, report):
    report["values"].update(config.derived)
    return [_row(key, 0, config.derived[key]) for key in ("sigma2", "d", "d0")]


def _oracle(config, p, stream, report):
    res = exact_oracle.exact_joint_return(config.step, config.scenery, p["times"])
    moment = exact_oracle.exact_counting_moment(config.step, config.scenery,
                                                p["n_max"], 1)
    report["values"]["path_count"] = res.path_count
    return [_row("exact_joint_return", p["times"][-1], res.value),
            _row("exact_counting_moment_k1", p["n_max"], moment)]


def _return_curve(config, p, stream, report):
    if config.allow_inadmissible:
        rows = []
        for n in p["n_list"]:  # k = 1 and every n inadmissible (validated)
            est = harness.estimate_from_values(
                harness._return_values_k1(config.step, config.scenery, n,
                                          config.replicas, stream),
                config.seed,
            )
            if est.value != 0.0:
                raise RuntimeError(
                    f"inadmissible time n={n} has nonzero estimate {est.value}"
                )
            rows.append(_row("return_prob_inadmissible", n, est.value, est.std_error))
        return rows
    ests, fit = harness.estimate_return_curve(
        config.step, config.scenery, p["n_list"], k=p["k"],
        T_ratios=p.get("t_ratios"), walk_replicas=config.replicas,
        stream=stream, scenery_draws=p["scenery_draws"],
    )
    report["fits"]["return_curve"] = _fit_dict(fit)
    return [_row("return_prob", n, e.value, e.std_error)
            for n, e in zip(p["n_list"], ests)]


def _counting_moments(config, p, stream, report):
    k = p["k"]
    curve = harness.counting_moment_curve(config.step, config.scenery, k,
                                          p["n_list"], config.replicas, stream)
    report["fits"]["counting_moments"] = _fit_dict(curve.fit)
    report["values"].update(amplitude=curve.amplitude,
                            amplitude_se=curve.amplitude_se)
    return [_row(f"zero_count_moment_k{k}", n, e.value, e.std_error)
            for n, e in zip(p["n_list"], curve.estimates)]


def _gram(config, p, stream, report):
    reports = harness.gram_convergence_test(
        config.step, p["n"], p["t_list"], config.replicas, p["fineness"], stream,
    )
    report["tests"].extend(asdict(rep) for rep in reports)
    return [_row(rep.name, p["n"], rep.value) for rep in reports]


def _estimate_c(config, p, stream, report):
    res = brownian.estimate_C(p["t_list"], config.replicas, p["fineness"], stream)
    report["values"].update(
        bound_ratio=res.bound_ratio, bound_ratio_se=res.bound_ratio_se,
        rejected=res.rejected,
    )
    return [_row("C_estimate", len(p["t_list"]), res.estimate.value,
                 res.estimate.std_error)]


def _besq_check(config, p, stream, report):
    draws = brownian.besq0_step(p["y"], p["dt"], stream.substream(0), size=p["draws"])
    atom = float((draws == 0).mean())
    expect = brownian.besq0_extinction(p["y"], p["dt"])
    se = math.sqrt(expect * (1 - expect) / p["draws"])
    report["tests"].append(_abs_dev_test("besq_extinction", atom, expect, se))
    return [_row("extinction", p["draws"], atom, se)]


def _ray_knight(config, p, stream, report):
    m = p["fineness"]
    offset = p["offset"]
    j = int(round(offset * math.sqrt(m)))

    def profile_at_offset(sub):
        prof = brownian.ray_knight_profile_fast(p["level"], m, sub)
        return prof[j] if j < prof.size else 0.0

    vals = replicate(profile_at_offset, config.replicas, stream)
    other = brownian.besq0_step(p["level"], offset, stream.substream(1 << 32),
                                size=config.replicas)
    stat = harness._ks_statistic(vals, other)
    thr = harness.ks_threshold(config.replicas, config.replicas)
    rep = harness.TestReport.build("ray_knight_vs_besq", "KS", stat,
                                   config.replicas, config.replicas, thr)
    report["tests"].append(asdict(rep))
    return [_row(rep.name, config.replicas, stat)]


def _delta_localtime(config, p, stream, report):
    def mollified_at_zero(sub):
        path = delta_process.sample_delta_path(p["t"], p["dt"], p["fineness"], sub)
        return delta_process.mollified_values(path, p["eps"], p["t"], [0.0])[0]

    vals = replicate(mollified_at_zero, config.replicas, stream)
    return [_row("mollified_local_time", config.replicas, float(vals.mean()),
                 float(vals.std(ddof=1) / math.sqrt(len(vals))))]


def _scaling_test(config, p, stream, report):
    rep = harness.scaling_law_test(p["t"], config.replicas, stream, eps=p["eps"],
                                   fineness=p["fineness"], dt=p["dt"])
    report["tests"].append(asdict(rep))
    return [_row(rep.name, config.replicas, rep.value)]


def _correlation_ratio(config, p, stream, report):
    lhs, rhs = harness.correlation_ratio(
        p["n"], p["t_ratio"], config.replicas, stream,
        step=config.step, scen=config.scenery, fineness=p["fineness"],
    )
    se = math.sqrt(lhs.std_error ** 2 + rhs.std_error ** 2)
    report["tests"].append(_abs_dev_test("correlation_ratio_match", lhs.value,
                                         rhs.value, se))
    return [_row("lhs", p["n"], lhs.value, lhs.std_error),
            _row("rhs", p["n"], rhs.value, rhs.std_error)]


def _boxcount(config, p, stream, report):
    def boxcount_slope(sub):
        path = delta_process.sample_delta_path(1.0, p["dt"], p["fineness"], sub)
        try:
            return delta_process.zero_set_boxcount(path, p["scales"]).slope
        except DegenerateRatioError:
            return np.nan

    slopes = replicate(boxcount_slope, p["paths"], stream)
    slopes = slopes[~np.isnan(slopes)]
    if slopes.size < 2:
        raise DegenerateRatioError(
            f"only {slopes.size} of {p['paths']} paths have a countable "
            "zero set; a slope estimate needs at least 2"
        )
    report["values"]["excluded_paths"] = p["paths"] - len(slopes)
    se = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    return [_row("boxcount_slope", len(slopes), float(np.mean(slopes)), se)]


def _check_fit_points(p):
    if "n_list" in p and len(p["n_list"]) < 3:
        return ["params.n_list: a power-law fit needs at least 3 values"]
    return []


def _check_return_curve(p, scenery, allow_inadmissible):
    k, ratios, ns = p.get("k", 1), p.get("t_ratios"), p.get("n_list", [])
    if k < 1:
        return ["params.k: must be at least 1"]
    errors = []
    if k == 1 and ratios is not None:
        errors.append("params.t_ratios: unused when k = 1")
    elif k > 1 and (ratios is None or len(ratios) != k):
        errors.append(f"params.t_ratios: k = {k} needs {k} T ratios, one per time")
    elif k > 1 and min(ratios) <= 0:
        errors.append("params.t_ratios: must be positive")
    elif k > 1 and scenery is not None:
        try:
            for n in ns:
                harness._joint_times(n, ratios, scenery.d0)
        except ValueError as exc:
            errors.append(f"params.t_ratios: {exc}")
    if not allow_inadmissible:
        return errors + _check_fit_points(p)
    # the flag runs the exact-zero check of P(Z_n = 0) and nothing else
    if k != 1:
        errors.append("params.k: --allow-inadmissible checks P(Z_n = 0) alone, "
                      "so k must be 1")
    if scenery is not None and any(n % scenery.d0 == 0 for n in ns):
        errors.append("params.n_list: with --allow-inadmissible every n must be "
                      f"off the d0 = {scenery.d0} lattice")
    return errors


def _check_counting_moments(p, scenery, allow_inadmissible):
    errors = _check_fit_points(p)
    if p.get("k", 1) not in (1, 2, 3):
        errors.append("params.k: must be 1, 2 or 3")
    return errors


@dataclass(frozen=True)
class _Subcommand:
    """What one subcommand accepts, its handler and its own checks."""

    laws: set
    params: set
    handler: object
    # replicas become a standard error or a KS statistic, which need two
    spread: bool = True
    # samples Brownian local-time fields, which need 10^3 steps
    fields: bool = False
    # (params, scenery, allow_inadmissible) -> errors, for constraints
    # between params that no other subcommand shares
    check: object = None


_SUBCOMMANDS = {
    "analyze-law": _Subcommand({"scenery"}, set(), _analyze_law, spread=False),
    "oracle": _Subcommand({"step", "scenery"}, {"times", "n_max"}, _oracle,
                          spread=False),
    "return-curve": _Subcommand({"step", "scenery"},
                                {"n_list", "k", "t_ratios", "scenery_draws"},
                                _return_curve, check=_check_return_curve),
    "counting-moments": _Subcommand({"step", "scenery"}, {"n_list", "k"},
                                    _counting_moments, check=_check_counting_moments),
    "gram": _Subcommand({"step"}, {"n", "t_list", "fineness"}, _gram, fields=True),
    "estimate-c": _Subcommand(set(), {"t_list", "fineness"}, _estimate_c,
                              fields=True),
    "besq-check": _Subcommand(set(), {"y", "dt", "draws"}, _besq_check,
                              spread=False),
    "ray-knight": _Subcommand(set(), {"level", "fineness", "offset"}, _ray_knight),
    "delta-localtime": _Subcommand(set(), {"eps", "t", "fineness", "dt"},
                                   _delta_localtime),
    "scaling-test": _Subcommand(set(), {"t", "eps", "fineness", "dt"}, _scaling_test),
    "correlation-ratio": _Subcommand({"step", "scenery"}, {"n", "t_ratio", "fineness"},
                                     _correlation_ratio, fields=True),
    "boxcount": _Subcommand(set(), {"scales", "fineness", "dt", "paths"}, _boxcount,
                            spread=False),
}


def run(config):
    """Execute a validated config; returns (exit_code, rows, report)."""
    stream = RngStream(config.seed, 0)
    report = {"subcommand": config.subcommand, "seed": config.seed,
              "derived": config.derived, "tests": [], "fits": {}, "values": {}}
    handler = _SUBCOMMANDS[config.subcommand].handler
    rows = handler(config, config.params, stream, report)
    failed = [t for t in report["tests"] if not t["verdict"]]
    return (2 if failed else 0), rows, report


def export_results(rows, report, out_dir):
    """Write results.csv (17 significant digits) and report.json."""
    if not rows:
        raise ValueError("no results to export")
    for row in rows:
        for key in ("value", "std_error"):
            if not math.isfinite(row[key]):
                raise ValueError(
                    f"row {row['name']} n={row['n']}: {key} is {row[key]}; "
                    "non-finite values are not exported"
                )
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "report.json")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name,n,value,std_error\n")
        for row in rows:
            fh.write(
                f"{row['name']},{row['n']},{row['value']:.17g},"
                f"{row['std_error']:.17g}\n"
            )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


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


def main(argv=None):
    _fix_malloc_thresholds()
    parser = argparse.ArgumentParser(
        prog="rwrs",
        description="Random-walk-in-random-scenery estimation laboratory",
    )
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--replicas", type=int, default=None,
                        help="replica-count override")
    parser.add_argument("--allow-inadmissible", action="store_true",
                        help="run inadmissible times and assert exact zeros")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "out": args.out, "replicas": args.replicas,
                 "allow_inadmissible": args.allow_inadmissible}
    overrides = {k: v for k, v in overrides.items() if v not in (None, False)}
    config = validate_config(args.config, overrides)
    if isinstance(config, list):
        for err in config:
            print(f"config error: {err}", file=sys.stderr)
        return 1

    started = time.time()
    try:
        code, rows, report = run(config)
        outputs = export_results(rows, report, config.out_dir)
    except Exception as exc:  # runtime failure -> exit 1, message on stderr
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    write_manifest(config.snapshot(), outputs, config.seed, __version__,
                   started, os.path.join(config.out_dir, "manifest.txt"))
    for row in rows[:8]:
        print(f"{row['name']} n={row['n']}: {row['value']:.6g} "
              f"+- {row['std_error']:.3g}")
    if code == 2:
        print("one or more test reports FAILED", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
