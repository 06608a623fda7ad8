import json
import math

import pytest

from rwrs.cli import ExperimentConfig, export_results, main, validate_config
from rwrs.simkit import Manifest


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    m1 = Manifest.from_text((out1 / "manifest.txt").read_text())
    m2 = Manifest.from_text((out2 / "manifest.txt").read_text())
    assert m1.digests == m2.digests
    rows = csv1.decode().splitlines()
    assert len(rows) == 3 + 1  # one per n plus header


def test_cli_seed_changes_digests(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2), "--seed", "778"]) == 0
    m1 = Manifest.from_text((out1 / "manifest.txt").read_text())
    m2 = Manifest.from_text((out2 / "manifest.txt").read_text())
    assert m1.digests["results.csv"] != m2.digests["results.csv"]


def test_cli_bad_config_exits_one(tmp_path, capsys):
    bad = MINIMAL.replace("n_list = 8 16 32", "n_list = 8 15 32")
    cfg = write_config(tmp_path, bad)
    assert main(["--config", cfg]) == 1
    assert "d0-divisibility" in capsys.readouterr().err


def test_allow_inadmissible_reports_exact_zero(tmp_path):
    bad = MINIMAL.replace("n_list = 8 16 32", "n_list = 7 9 11")
    cfg = write_config(tmp_path, bad)
    out = tmp_path / "inad"
    code = main(["--config", cfg, "--out", str(out), "--allow-inadmissible"])
    assert code == 0
    body = (out / "results.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in body] == \
        [["return_prob_inadmissible", n, "0"] for n in ("7", "9", "11")]


@pytest.mark.parametrize(
    "config, field",
    [
        (MINIMAL, "params.n_list"),
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 7 8 16 32"), "params.n_list"),
        (MINIMAL.replace("n_list = 8 16 32", "n_list = 7 9 11")
         .replace("k = 1", "k = 2\nt_ratios = 1 2"), "params.k"),
    ],
    ids=["all-admissible", "some-admissible", "k2"],
)
def test_allow_inadmissible_return_curve_is_the_exact_zero_check_alone(
        tmp_path, capsys, config, field):
    # the flag runs P(Z_n = 0) at k = 1 with every n off the d0 lattice
    cfg = write_config(tmp_path, config)
    errors = validate_config(cfg, {"allow_inadmissible": True})
    assert isinstance(errors, list)
    assert any(e.startswith(field + ":") for e in errors)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--allow-inadmissible"]) == 1
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()


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
        # 3^14 sceneries on the 14 sites of the straight path
        (ORACLE.replace("rademacher", "-1:1/4,0:1/2,1:1/4")
         .replace("n_max = 4", "n_max = 14"), "params.n_max"),
        # the second segment, 5 - 2 = 3, is odd while d0 = 2
        (ORACLE.replace("times = 2 4", "times = 2 5"), "params.times"),
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
    ],
    ids=["fineness-not-integer", "fineness-below-1000", "n_list-not-positive",
         "scales-too-few", "dt-below-lattice-step", "dt-below-lattice-step-scaling",
         "replicas-one-delta", "replicas-one-gram", "boxcount-dt-default",
         "oracle-times-decreasing", "oracle-times-not-positive", "oracle-n_max-zero",
         "oracle-times-over-budget", "oracle-n_max-over-budget",
         "oracle-n_max-scenery-budget", "oracle-times-inadmissible-segment",
         "return-curve-two-n", "counting-moments-two-n", "return-curve-k-zero",
         "return-curve-k2-no-ratios", "return-curve-ratios-decreasing",
         "return-curve-ratios-collapse", "return-curve-ratios-with-k1",
         "return-curve-ratios-not-positive", "counting-moments-k4"],
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


def test_oracle_inadmissible_segment_runs_when_allowed(tmp_path):
    cfg = write_config(tmp_path, ORACLE.replace("times = 2 4", "times = 2 5"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "--allow-inadmissible"]) == 0
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[1] == "exact_joint_return,5,0,0"
