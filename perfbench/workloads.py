"""The benchmark's workloads: one pinned `rwrs` config each, its item count
and the paper's correctness check on its outputs.

A workload's configs are rendered from the benchmark seed and a variant
number alone, so the program receives only generated inputs.  Checks read
the files the run wrote (`results.csv`, `report.json`) and return an error
message, or None when the output is within the paper's tolerance.
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    params: dict
    item: str
    items: Callable[["Workload"], int]
    check: Callable[["Workload", str], str | None]
    laws: dict = field(default_factory=dict)
    replicas: int | None = None
    # Untraced invocations of one run each get their own variant of the
    # config.  Only for a metric that moves with the seed: every variant is
    # one more chance for a check with a false-failure rate to fail.
    fresh_inputs: bool = False

    def config_text(self, seed, out_dir, variant=0):
        """INI config of this workload; its rwrs seed is drawn from seed and variant."""
        lines = ["[experiment]", f"subcommand = {self.subcommand}", ""]
        if self.laws:
            lines += ["[laws]"] + [f"{k} = {v}" for k, v in self.laws.items()] + [""]
        lines += ["[params]"] + [f"{k} = {v}" for k, v in self.params.items()] + [""]
        lines += ["[run]", f"seed = {rwrs_seed(self.name, seed, variant)}",
                  f"out = {out_dir}"]
        if self.replicas is not None:
            lines.append(f"replicas = {self.replicas}")
        return "\n".join(lines) + "\n"


def rwrs_seed(workload, seed, variant=0):
    """63-bit rwrs master seed for (workload, benchmark seed, variant)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{variant}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def read_rows(out_dir):
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _n_list_items(w):
    return w.replicas * len(w.params["n_list"].split())


def _slope_check(target, tol):
    def check(w, out_dir):
        slope = read_report(out_dir)["fits"]["return_curve"]["slope"]
        if abs(slope - target) > tol:
            return f"return-curve slope {slope:.4f} outside {target} +- {tol}"
        return None
    return check


def _gram_check(w, out_dir):
    tests = read_report(out_dir)["tests"]
    if len(tests) != 3:
        return f"expected 3 KS verdicts, got {len(tests)}"
    bad = [f"{t['name']} KS {t['value']:.4f} > {t['threshold']:.4f}"
           for t in tests if not t["verdict"]]
    return "; ".join(bad) or None


def _boxcount_check(w, out_dir):
    (row,) = read_rows(out_dir)
    slope = float(row["value"])
    if abs(slope - 0.25) > 0.05:
        return f"boxcount slope {slope:.4f} outside 0.25 +- 0.05"
    return None


# Exact values for the simple walk in Rademacher scenery, from direct
# double enumeration over paths and sceneries with rational arithmetic:
# P(Z_n = 0) keyed by n, and E[#{1 <= m <= n : Z_m = 0}] keyed by n.
EXACT_JOINT = {8: Fraction(1759, 8192), 12: Fraction(160691, 1048576)}
EXACT_MOMENT = {8: Fraction(10879, 8192), 12: Fraction(1741347, 1048576)}


def _oracle_check(w, out_dir):
    rows = {r["name"]: r for r in read_rows(out_dir)}
    expect = {
        "exact_joint_return": EXACT_JOINT[int(w.params["times"])],
        "exact_counting_moment_k1": EXACT_MOMENT[int(w.params["n_max"])],
    }
    bad = [f"{name} = {rows[name]['value']}, exact {value}"
           for name, value in expect.items()
           if rows[name]["value"] != f"{float(value):.17g}"]
    return "; ".join(bad) or None


SIMPLE = {"step": "simple", "scenery": "rademacher"}

WORKLOADS = {
    w.name: w
    for w in [
        # Peak memory follows the evaluator's table, whose size is set by the
        # largest local time among the walks: its quartiles over seeds lie
        # about 4% apart at these sizes, so a run takes the median over variants.
        Workload(
            name="return-k1", subcommand="return-curve", laws=SIMPLE,
            params={"n_list": "256 512 1024 2048 4096 8192", "k": "1"},
            replicas=500, item="replica x n-point", items=_n_list_items,
            check=_slope_check(-0.75, 0.04), fresh_inputs=True,
        ),
        Workload(
            name="return-k2", subcommand="return-curve", laws=SIMPLE,
            params={"n_list": "256 512 1024 2048 4096", "k": "2",
                    "t_ratios": "1 2", "scenery_draws": "1024"},
            replicas=300, item="replica x n-point", items=_n_list_items,
            check=_slope_check(-1.5, 0.08),
        ),
        Workload(
            name="gram-joint", subcommand="gram", laws={"step": "simple"},
            params={"n": "16384", "t_list": "1 2", "fineness": "16384"},
            replicas=800, item="replica", items=lambda w: w.replicas,
            check=_gram_check,
        ),
        Workload(
            name="boxcount", subcommand="boxcount",
            params={"fineness": "32768", "dt": "1/32768", "paths": "200"},
            item="path", items=lambda w: int(w.params["paths"]),
            check=_boxcount_check,
        ),
        Workload(
            name="oracle", subcommand="oracle", laws=SIMPLE,
            params={"times": "12", "n_max": "12"},
            item="enumerated path",
            items=lambda w: 2 ** int(w.params["times"]) + 2 ** int(w.params["n_max"]),
            check=_oracle_check,
        ),
    ]
}
