import configparser
import json
import math

import numpy as np
import pytest

from rwrs import __version__, harness, lattice_walk
from rwrs.cli import ExperimentConfig, export_results, main, validate_config
from rwrs.simkit import file_digest


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_manifest(out):
    # strict (the default): a repeated section or key is an error
    manifest = configparser.RawConfigParser()
    with open(out / "manifest.txt", encoding="utf-8") as fh:
        manifest.read_file(fh)
    return manifest


MINIMAL = """
[experiment]
subcommand = return-curve

[laws]
step = simple
scenery = rademacher

[params]
n_list = 8 16 32
k = 1

[run]
seed = 777
replicas = 50
"""


def test_minimal_config_echoes_derived_constants(tmp_path):
    config = validate_config(write_config(tmp_path, MINIMAL))
    assert isinstance(config, ExperimentConfig)
    assert config.derived["sigma2"] == 1.0
    assert config.derived["d"] == 2
    assert config.derived["d0"] == 2
    assert config.seed == 777


def test_odd_time_rejected_with_divisibility_message(tmp_path):
    bad = MINIMAL.replace("n_list = 8 16 32", "n_list = 8 15 32")
    errors = validate_config(write_config(tmp_path, bad))
    assert isinstance(errors, list)
    assert any("d0-divisibility" in e for e in errors)


def test_unknown_key_rejected(tmp_path):
    bad = MINIMAL + "\n[params]\n"  # duplicate section is a parse error
    errors = validate_config(write_config(tmp_path, bad))
    assert isinstance(errors, list)
    bad2 = MINIMAL.replace("k = 1", "k = 1\nwindow = 3")
    errors2 = validate_config(write_config(tmp_path, bad2))
    assert isinstance(errors2, list)
    assert any("params.window" in e and "unknown" in e for e in errors2)


def test_unreadable_config(tmp_path):
    errors = validate_config(str(tmp_path / "missing.ini"))
    assert isinstance(errors, list)


def test_export_round_trip(tmp_path):
    rows = [
        {"name": "x", "n": 4, "value": 0.1234567890123456789, "std_error": 1e-9}
    ]
    report = {"tests": [], "fits": {}, "values": {"a": 1}}
    csv_path, json_path = export_results(rows, report, str(tmp_path))
    lines = open(csv_path).read().splitlines()
    assert len(lines) == len(rows) + 1
    _, _, value_text, _ = lines[1].split(",")
    assert float(value_text) == rows[0]["value"]  # 17 digits round-trip
    parsed = json.load(open(json_path))
    assert parsed["values"] == {"a": 1}


def test_cli_end_to_end_deterministic(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    csv1 = (out1 / "results.csv").read_bytes()
    csv2 = (out2 / "results.csv").read_bytes()
    assert csv1 == csv2
    m1 = read_manifest(out1)
    m2 = read_manifest(out2)
    assert dict(m1["digests"]) == dict(m2["digests"])
    rows = csv1.decode().splitlines()
    assert len(rows) == 3 + 1  # one per n plus header


def test_cli_seed_changes_digests(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "778"]) == 0
    m1 = read_manifest(out1)
    m2 = read_manifest(out2)
    assert m1["digests"]["results.csv"] != m2["digests"]["results.csv"]


def test_manifest_checks_the_output_directory(tmp_path):
    # what a verifier reads: every digest re-hashes from the file it names,
    # and the config section is the validated config's snapshot
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest.sections() == ["manifest", "config", "digests"]
    assert list(manifest["manifest"]) == ["master_seed", "version", "stream_layout",
                                          "duration_s"]
    assert manifest.getint("manifest", "master_seed") == 777
    assert manifest["manifest"]["version"] == __version__
    # layout 2: a uniform two-point law reads one bit per value
    assert manifest.getint("manifest", "stream_layout") == 2
    assert manifest.getfloat("manifest", "duration_s") >= 0
    assert list(manifest["digests"]) == ["report.json", "results.csv"]
    for name, digest in manifest["digests"].items():
        assert digest == file_digest(str(out / name))
    snapshot = validate_config(cfg).snapshot()
    assert list(manifest["config"]) == sorted(snapshot)
    assert dict(manifest["config"]) == snapshot


def test_cli_bad_config_exits_one(tmp_path, capsys):
    bad = MINIMAL.replace("n_list = 8 16 32", "n_list = 8 15 32")
    cfg = write_config(tmp_path, bad)
    assert main(["--config", cfg]) == 1
    assert "d0-divisibility" in capsys.readouterr().err


def test_return_curve_off_the_lattice_runs_with_one_replica(tmp_path, capsys):
    # every n off the lattice draws no replica, so one is enough; one n on
    # the lattice makes it a return curve again, which needs two
    off = MINIMAL.replace("n_list = 8 16 32", "n_list = 1023 2047 4095 8191")
    cfg = write_config(tmp_path, off)
    out = tmp_path / "off"
    assert main(["--config", cfg, "--out", str(out), "--replicas", "1"]) == 0
    body = (out / "results.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in body] == \
        [["return_prob_inadmissible", n, "0"] for n in ("1023", "2047", "4095", "8191")]
    on = write_config(tmp_path, MINIMAL, "on.ini")
    assert main(["--config", on, "--out", str(tmp_path / "on"), "--replicas", "1"]) == 1
    assert ("config error: run.replicas: must be at least 2 for return-curve (a "
            "standard error or a KS statistic needs two samples)"
            in capsys.readouterr().err)
    assert not (tmp_path / "on").exists()


def test_return_curve_off_the_lattice_reports_exact_zero(tmp_path, monkeypatch):
    # every n off the d0 lattice: return-curve writes the exact 0 of
    # P(Z_n = 0) without drawing a walk
    def no_walk(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(lattice_walk, "_walk_positions", no_walk)
    bad = MINIMAL.replace("n_list = 8 16 32", "n_list = 7 9 11")
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "inad"
    code = main(["--config", cfg, "--out", str(out)])
    assert code == 0
    body = (out / "results.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in body] == \
        [["return_prob_inadmissible", n, "0"] for n in ("7", "9", "11")]


@pytest.mark.parametrize(
    "config, field",
    [
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 7 8 16 32"), "params.n_list"),
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 7 9 11")
         .replace("k = 1", "k = 2\nt_ratios = 1 2"), "params.k"),
    ],
    ids=["some-admissible", "k2"],
)
def test_return_curve_off_the_lattice_rejects_a_mix_or_k_above_1(
        tmp_path, capsys, config, field):
    # lengths off the d0 lattice run P(Z_n = 0) at k = 1, and only when
    # every n is off it
    cfg = write_config(tmp_path, config)
    errors = validate_config(cfg)
    assert isinstance(errors, list)
    assert any(e.startswith(field + ":") for e in errors)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err
    assert field != "params.n_list" or "d0-divisibility" in err
    assert not out.exists()


def test_counting_moments_run_off_the_lattice(tmp_path):
    # N_n counts the returns up to any n, so n need not be a multiple of d0
    cfg = write_config(tmp_path, MINIMAL.replace("return-curve", "counting-moments")
                       .replace("n_list = 8 16 32", "n_list = 63 127 255"))
    assert isinstance(validate_config(cfg), ExperimentConfig)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    body = (out / "results.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in body] == \
        [["zero_count_moment_k1", n] for n in ("63", "127", "255")]


GRAM_TINY = """
[experiment]
subcommand = gram

[laws]
step = simple

[params]
n = 65536
t_list = 1.0
fineness = 1024

[run]
seed = 900
replicas = 6000
"""


def test_gram_subcommand_exit_two_on_scale_mismatch(tmp_path):
    # deliberately tiny fineness against a long walk: the KS test must fail
    cfg = write_config(tmp_path, GRAM_TINY)
    out = tmp_path / "gram"
    code = main(["--config", cfg, "--out", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert any(not t["verdict"] for t in report["tests"])


def test_analyze_law_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        """
[experiment]
subcommand = analyze-law

[laws]
scenery = -2:1/2,2:1/2

[run]
seed = 1
""",
    )
    out = tmp_path / "law"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["derived"]["d"] == 4
    assert report["derived"]["d0"] == 2
    assert report["derived"]["sigma2"] == 4.0


def test_analyze_law_takes_atoms_of_any_size(tmp_path):
    # d and d0 are read off the atoms, with no check over n or phi that
    # grows with d
    cfg = write_config(tmp_path, """
[experiment]
subcommand = analyze-law

[laws]
scenery = -100000000:1/2,100000000:1/2
""")
    config = validate_config(cfg)
    assert isinstance(config, ExperimentConfig), config
    assert (config.derived["d"], config.derived["d0"]) == (200000000, 2)


@pytest.mark.parametrize("step,scenery", [("rademacher", "simple"),
                                          ("lazy", "lazy"),
                                          ("simple", "rademacher")])
def test_law_names_are_accepted_in_both_sections(tmp_path, step, scenery):
    text = MINIMAL.replace("step = simple", f"step = {step}").replace(
        "scenery = rademacher", f"scenery = {scenery}")
    config = validate_config(write_config(tmp_path, text))
    assert isinstance(config, ExperimentConfig), config
    pairs = {"simple": "-1:1/2,1:1/2", "rademacher": "-1:1/2,1:1/2",
             "lazy": "-1:1/4,0:1/2,1:1/4"}
    snap = config.snapshot()
    assert (snap["laws.step"], snap["laws.scenery"]) == (pairs[step], pairs[scenery])


@pytest.mark.parametrize("subcommand,params,atom,bound", [
    ("return-curve", "n_list = 4 8 16\nk = 2\nt_ratios = 1/2 1", 2 ** 51, "2**53"),
    ("counting-moments", "n_list = 2 4 8\nk = 1", 2 ** 61, "2**63"),
], ids=["return-curve", "counting-moments"])
def test_sums_past_their_exact_bound_are_run_errors(tmp_path, capsys, monkeypatch,
                                                    subcommand, params, atom, bound):
    # atoms of any size validate; a sum of Z that would leave its exact
    # range is refused at run time, before any walk is drawn
    def no_walk(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(harness, "_walk_positions", no_walk)
    monkeypatch.setattr(harness, "simulate_local_times", no_walk)
    cfg = write_config(tmp_path, f"""
[experiment]
subcommand = {subcommand}

[laws]
scenery = -{atom}:1/2,{atom}:1/2

[params]
{params}

[run]
replicas = 4
""")
    assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and bound in err, err


BOXCOUNT = """
[experiment]
subcommand = boxcount

[params]
fineness = 1024
dt = 1/256
paths = 3

[run]
seed = 11
"""


def test_boxcount_single_path_rejected_at_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, BOXCOUNT.replace("paths = 3", "paths = 1"))
    out = tmp_path / "box"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    assert "config error: params.paths" in capsys.readouterr().err
    assert not out.exists()


def test_boxcount_without_two_countable_paths_is_runtime_error(tmp_path, capsys):
    # every scale exceeds the unit horizon, so no path has a countable box
    text = BOXCOUNT.replace("paths = 3", "paths = 3\nscales = 2 20 200 2000")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "box"
    assert main(["--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and "0 of 3 paths" in err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_export_refuses_non_finite_values(tmp_path, value):
    rows = [{"name": "ok", "n": 1, "value": 0.5, "std_error": 0.1},
            {"name": "boxcount_slope", "n": 1, "value": 0.25, "std_error": value}]
    report = {"tests": [], "fits": {}, "values": {}}
    with pytest.raises(ValueError, match="boxcount_slope n=1: std_error"):
        export_results(rows, report, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


DELTA = """
[experiment]
subcommand = delta-localtime

[params]
t = 1
fineness = 1024
dt = 1/256

[run]
seed = 12
replicas = 5
"""


ESTIMATE_C = """
[experiment]
subcommand = estimate-c

[params]
t_list = 1 2
fineness = 4096

[run]
seed = 13
replicas = 20
"""


CORRELATION = """
[experiment]
subcommand = correlation-ratio

[laws]
step = simple
scenery = rademacher

[params]
n = 64
t_ratio = 2
fineness = 4096

[run]
seed = 14
replicas = 20
"""


COUNTING = MINIMAL.replace("return-curve", "counting-moments").replace("k = 1", "k = 2")


ORACLE = """
[experiment]
subcommand = oracle

[laws]
step = simple
scenery = rademacher

[params]
times = 2 4
n_max = 4
"""

BESQ = """
[experiment]
subcommand = besq-check

[params]
draws = 100
"""


RAY_KNIGHT = """
[experiment]
subcommand = ray-knight

[params]
fineness = 1024

[run]
replicas = 5
"""


@pytest.mark.parametrize(
    "config, field",
    [
        (GRAM_TINY.replace("fineness = 1024", "fineness = abc"), "params.fineness"),
        (GRAM_TINY.replace("fineness = 1024", "fineness = 10"), "params.fineness"),
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 0 2 4"), "params.n_list"),
        (BOXCOUNT.replace("paths = 3", "paths = 3\nscales = 1/2 1/4"), "params.scales"),
        (DELTA.replace("dt = 1/256", "dt = 1/4096"), "params.dt"),
        (DELTA.replace("delta-localtime", "scaling-test")
         .replace("dt = 1/256", "dt = 1/4096"), "params.dt"),
        (DELTA.replace("replicas = 5", "replicas = 1"), "run.replicas"),
        (GRAM_TINY.replace("replicas = 6000", "replicas = 1"), "run.replicas"),
        # dt defaults to 1, above every default scale
        (BOXCOUNT.replace("dt = 1/256\n", ""), "params.scales"),
        (ORACLE.replace("times = 2 4", "times = 4 2"), "params.times"),
        (ORACLE.replace("times = 2 4", "times = 0 2"), "params.times"),
        (ORACLE.replace("n_max = 4", "n_max = 0"), "params.n_max"),
        (ORACLE.replace("times = 2 4", "times = 40"), "params.times"),
        (ORACLE.replace("n_max = 4", "n_max = 30"), "params.n_max"),
        # a power-law fit needs three points
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 8 16"), "params.n_list"),
        (COUNTING.replace("n_list = 8 16 32", "n_list = 8 16"), "params.n_list"),
        (MINIMAL.replace("k = 1", "k = 0"), "params.k"),
        (MINIMAL.replace("k = 1", "k = 2"), "params.t_ratios"),
        (MINIMAL.replace("k = 1", "k = 2\nt_ratios = 2 1"), "params.t_ratios"),
        (MINIMAL.replace("k = 1", "k = 2\nt_ratios = 1 1"), "params.t_ratios"),
        (MINIMAL.replace("k = 1", "k = 1\nt_ratios = 1"), "params.t_ratios"),
        # [8 * -1] rounds up to d0 = 2, so only the sign check sees it
        (MINIMAL.replace("k = 1", "k = 2\nt_ratios = -1 2"), "params.t_ratios"),
        (COUNTING.replace("k = 2", "k = 4"), "params.k"),
        (GRAM_TINY.replace("t_list = 1.0", "t_list = 2 1"), "params.t_list"),
        (GRAM_TINY.replace("t_list = 1.0", "t_list = 1 1"), "params.t_list"),
        (GRAM_TINY.replace("t_list = 1.0", "t_list = 0 1"), "params.t_list"),
        (ESTIMATE_C.replace("t_list = 1 2", "t_list = 2 1"), "params.t_list"),
        (CORRELATION.replace("t_ratio = 2", "t_ratio = -1"), "params.t_ratio"),
        (CORRELATION.replace("t_ratio = 2", "t_ratio = 0"), "params.t_ratio"),
        (GRAM_TINY.replace("n = 65536", "n = 0"), "params.n"),
        (GRAM_TINY.replace("n = 65536", "n = -5"), "params.n"),
        # floor(1 * 0.5) = 0: the first horizon holds no walk step
        (GRAM_TINY.replace("n = 65536", "n = 1").replace("t_list = 1.0", "t_list = 0.5"),
         "params.n"),
        (GRAM_TINY.replace("n = 65536", "n = 1").replace("t_list = 1.0", "t_list = 0.5 1"),
         "params.n"),
        (BESQ.replace("draws = 100", "draws = 0"), "params.draws"),
        (BESQ.replace("draws = 100", "draws = 100\ndt = 0"), "params.dt"),
        (BESQ.replace("draws = 100", "draws = 100\ny = -1"), "params.y"),
        # 1e400 overflows a float, as a scalar and as a list entry
        (BESQ.replace("draws = 100", "draws = 100\ny = 1e400"), "params.y"),
        (GRAM_TINY.replace("t_list = 1.0", "t_list = 1 1e400"), "params.t_list"),
        (DELTA.replace("t = 1\n", "t = 1\neps = 0\n"), "params.eps"),
        (DELTA.replace("t = 1\n", "t = 0\n"), "params.t"),
        (DELTA.replace("delta-localtime", "scaling-test").replace("t = 1\n", "t = -1\n"),
         "params.t"),
        # t below one grid cell leaves the path with no lattice step
        (DELTA.replace("t = 1\n", "t = 1/1000000\n").replace("fineness = 1024", "fineness = 16384")
         .replace("dt = 1/256", "dt = 1/16384"), "params.t"),
        (DELTA.replace("delta-localtime", "scaling-test").replace("t = 1\n", "t = 1/1000\n"),
         "params.t"),
        (RAY_KNIGHT.replace("fineness = 1024", "fineness = 1024\nlevel = -1"),
         "params.level"),
        (RAY_KNIGHT.replace("fineness = 1024", "fineness = 1024\noffset = -1"),
         "params.offset"),
        (RAY_KNIGHT.replace("fineness = 1024", "fineness = 0"), "params.fineness"),
        (MINIMAL.replace("k = 1", "k = 1\nscenery_draws = 0"), "params.scenery_draws"),
        (CORRELATION.replace("n = 64", "n = 0"), "params.n"),
        # the ratio runs on the d0 = 2 lattice, so n = 65 would run at 64
        (CORRELATION.replace("n = 64", "n = 65"), "params.n"),
        # a repeated site would overwrite the earlier atom's probability
        (MINIMAL.replace("step = simple", "step = -1:1/2,1:1/4,1:1/4"), "laws.step"),
        (MINIMAL.replace("scenery = rademacher", "scenery = -1:1/2,1:1/2,1:1/2"),
         "laws.scenery"),
    ],
    ids=["fineness-not-integer", "fineness-below-1000", "n_list-not-positive",
         "scales-too-few", "dt-below-lattice-step", "dt-below-lattice-step-scaling",
         "replicas-one-delta", "replicas-one-gram", "boxcount-dt-default",
         "oracle-times-decreasing", "oracle-times-not-positive", "oracle-n_max-zero",
         "oracle-times-over-budget", "oracle-n_max-over-budget",
         "return-curve-two-n", "counting-moments-two-n", "return-curve-k-zero",
         "return-curve-k2-no-ratios", "return-curve-ratios-decreasing",
         "return-curve-ratios-collapse", "return-curve-ratios-with-k1",
         "return-curve-ratios-not-positive", "counting-moments-k4",
         "gram-t_list-decreasing", "gram-t_list-repeated", "gram-t_list-not-positive",
         "estimate-c-t_list-decreasing", "correlation-t_ratio-negative",
         "correlation-t_ratio-zero", "gram-n-zero", "gram-n-negative",
         "gram-first-horizon-empty", "gram-first-of-two-horizons-empty",
         "besq-draws-zero", "besq-dt-zero", "besq-y-negative", "besq-y-overflow",
         "gram-t_list-overflow", "delta-eps-zero",
         "delta-t-zero", "scaling-t-negative", "delta-t-below-dt",
         "scaling-t-below-dt", "ray-knight-level-negative",
         "ray-knight-offset-negative", "ray-knight-fineness-zero",
         "return-curve-scenery_draws-zero", "correlation-n-zero",
         "correlation-n-off-lattice", "step-site-repeated", "scenery-site-repeated"],
)
def test_bad_param_value_rejected_at_validation(tmp_path, capsys, config, field):
    cfg = write_config(tmp_path, config)
    errors = validate_config(cfg)
    assert isinstance(errors, list)
    assert any(e.startswith(field + ":") for e in errors)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {field}:" in capsys.readouterr().err


def test_single_replica_flag_rejected_where_a_spread_is_needed(tmp_path, capsys):
    cfg = write_config(tmp_path, DELTA)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--replicas", "1"]) == 1
    assert "config error: run.replicas:" in capsys.readouterr().err
    assert not out.exists()
    # besq-check draws its own sample size; one replica is not an error there
    besq = "[experiment]\nsubcommand = besq-check\n[params]\ndraws = 100\n"
    assert not isinstance(
        validate_config(write_config(tmp_path, besq, "besq.ini"), {"replicas": 1}),
        list)


def test_zero_seed_override_is_used(tmp_path):
    cfg = write_config(tmp_path, BESQ + "\n[run]\nseed = 5\n")
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    manifest = read_manifest(out)
    assert manifest.getint("manifest", "master_seed") == 0
    assert manifest["config"]["seed"] == "0"


def test_zero_replicas_override_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BESQ)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--replicas", "0"]) == 1
    assert "config error: run.replicas:" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_moment_needs_no_scenery_budget(tmp_path):
    # the moment sums joint returns, so 3 scenery atoms on up to 14 sites
    # bound nothing beyond the 2^14 paths of the step law
    cfg = write_config(tmp_path, ORACLE.replace("rademacher", "-1:1/4,0:1/2,1:1/4")
                       .replace("n_max = 4", "n_max = 14"))
    assert not isinstance(validate_config(cfg), list)
    assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_oracle_off_the_lattice_segment_writes_exact_zero(tmp_path):
    # the second segment, 5 - 2 = 3, is odd while d0 = 2: exactly 0
    cfg = write_config(tmp_path, ORACLE.replace("times = 2 4", "times = 2 5"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[1] == "exact_joint_return,5,0,0"
