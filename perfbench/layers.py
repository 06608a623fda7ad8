"""Per-layer metrics of one traced invocation, computed from its spans.

"Self" time is a span's duration minus the time its child spans cover, and
at least 0: children that ran in parallel threads can cover more time than
their parent lasted.
Times of a layer the invocation never entered are 0, as are its counts
and rates.
"""

from collections import defaultdict

PER_LAYER = [
    ("simkit.streams", "count"),
    ("simkit.stream_s", "s"),
    ("simkit.reduce_s", "s"),
    ("lattice_walk.steps", "count"),
    ("lattice_walk.sample_s", "s"),
    ("lattice_walk.steps_per_s", "1/s"),
    ("lattice_walk.profiles", "count"),
    ("lattice_walk.profile_sites", "count"),
    ("lattice_walk.profile_s", "s"),
    ("scenery.table_profiles", "count"),
    ("scenery.table_s", "s"),
    ("scenery.char_points", "count"),
    ("scenery.char_s", "s"),
    ("scenery.joint_calls", "count"),
    ("scenery.joint_s", "s"),
    ("scenery.draws", "count"),
    ("scenery.sample_s", "s"),
    ("brownian.fields", "count"),
    ("brownian.field_steps", "count"),
    ("brownian.fields_s", "s"),
    ("brownian.grams", "count"),
    ("brownian.gram_s", "s"),
    ("delta_process.paths", "count"),
    ("delta_process.path_steps", "count"),
    ("delta_process.path_s", "s"),
    ("delta_process.boxcount_s", "s"),
    ("delta_process.useful_frac", "frac"),
    ("exact_oracle.paths", "count"),
    ("exact_oracle.joint_s", "s"),
    ("exact_oracle.moment_s", "s"),
    ("exact_oracle.paths_per_s", "1/s"),
    ("harness.self_s", "s"),
    ("harness.fit_s", "s"),
    ("cli.import_s", "s"),
    ("cli.validate_s", "s"),
    ("cli.run_self_s", "s"),
    ("cli.export_s", "s"),
    ("trace.overhead_frac", "frac"),
]
UNITS = dict(PER_LAYER)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def span_times(spans):
    """(total, self) seconds per span name, and harness entry-point self time."""
    covered = defaultdict(float)
    names = {0: "invocation"}
    for span_id, parent, name, start, end in spans:
        covered[parent] += end - start
        names[span_id] = name
    total, own = defaultdict(float), defaultdict(float)
    entry_self = 0.0
    for span_id, parent, name, start, end in spans:
        self_s = max(0.0, end - start - covered[span_id])
        total[name] += end - start
        own[name] += self_s
        if name.startswith("harness.") and names[parent] == "cli.run":
            entry_self += self_s
    return total, own, entry_self


def layer_metrics(record, report):
    """Every per-layer metric but trace.overhead_frac, from one traced record."""
    total, own, entry_self = span_times(record["spans"])
    counts = defaultdict(int, record["counts"])
    m = {name: counts[name] for name, unit in PER_LAYER if unit == "count"}
    m["simkit.stream_s"] = own["simkit.RngStream.substream"] + own["simkit.derive_stream"]
    m["simkit.reduce_s"] = own["simkit.estimate_from_values"]
    m["lattice_walk.sample_s"] = own["lattice_walk.StepLaw.sample_steps"]
    m["lattice_walk.steps_per_s"] = _rate(m["lattice_walk.steps"],
                                          m["lattice_walk.sample_s"])
    m["lattice_walk.profile_s"] = (own["lattice_walk.simulate_local_times"]
                                   + own["lattice_walk.profiles_from_steps"])
    m["scenery.table_s"] = own["scenery.ReturnProbTable.evaluate"]
    m["scenery.char_s"] = own["scenery.SceneryLaw.char"]
    m["scenery.joint_s"] = own["scenery.joint_return_prob_sampled"]
    m["scenery.sample_s"] = own["scenery.SceneryLaw.sample"]
    m["brownian.fields_s"] = own["brownian.sample_local_time_fields"]
    m["brownian.gram_s"] = own["brownian.gram_of_fields"]
    m["delta_process.path_s"] = own["delta_process.sample_delta_path"]
    m["delta_process.boxcount_s"] = own["delta_process.zero_set_boxcount"]
    paths = m["delta_process.paths"]
    excluded = report.get("values", {}).get("excluded_paths", 0)
    m["delta_process.useful_frac"] = (paths - excluded) / paths if paths else 0.0
    m["exact_oracle.joint_s"] = total["exact_oracle.exact_joint_return"]
    m["exact_oracle.moment_s"] = total["exact_oracle.exact_counting_moment"]
    m["exact_oracle.paths_per_s"] = _rate(
        m["exact_oracle.paths"], m["exact_oracle.joint_s"] + m["exact_oracle.moment_s"])
    m["harness.self_s"] = entry_self
    m["harness.fit_s"] = total["harness.fit_power_law"]
    m["cli.import_s"] = record["import_end"] - record["import_start"]
    m["cli.validate_s"] = total["cli.validate_config"]
    m["cli.run_self_s"] = own["cli.run"]
    m["cli.export_s"] = total["cli.export_results"] + total["simkit.write_manifest"]
    return m
