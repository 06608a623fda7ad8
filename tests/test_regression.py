"""Pinned `results.csv` and `report.json` digests: small configs per subcommand.

Every estimate is a deterministic function of (config, seed), so a refactor
that keeps the numbers keeps these sha256 digests.  A deliberate change of
the random-stream layout or of an estimator updates the digests here and
says so in CHANGES.md.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from rwrs import cli

SIMPLE = "[laws]\nstep = simple\nscenery = rademacher\n"

# name -> (config text, extra CLI arguments, results.csv sha256,
# report.json sha256); every case runs at seed 4242
CASES = {
    "analyze-law": (
        "[experiment]\nsubcommand = analyze-law\n[laws]\nscenery = -2:1/3,1:2/3\n",
        [],
        "c441caf24d2f44f5bfb475933e7871faaa71bd415e4ccf1e9e4bfc8f8efa23f3",
        "c6c961d0e093e9962f79fe4140f236bf4de5cf5245442f464d26188c6db7e7f1",
    ),
    "oracle": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = lazy\n"
        "scenery = rademacher\n[params]\ntimes = 4 8\nn_max = 7\n",
        [],
        "566d363adaaf72fb176a7adeb8fd5fc6f08d6aaa5c245b541ec7a5d9e99fc26a",
        "340014c8a896a6af010f6374047a06c87260ff80d940711ec604fa01c5e3630a",
    ),
    "oracle-asymmetric-three-times": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = simple\n"
        "scenery = -2:1/3,1:2/3\n[params]\ntimes = 3 6 9\nn_max = 6\n",
        [],
        "ff724f6ddf6851108252ebeb1858c6a202f7af57cc8583b73688f2b9d08dac2d",
        "a75eac19f27da96b961f2f12e4e3367674eafc13d378a601c19e3acc4938ed0a",
    ),
    "oracle-moment-lazy": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = lazy\n"
        "scenery = -1:1/4,0:1/2,1:1/4\n[params]\ntimes = 2\nn_max = 8\n",
        [],
        "11bbd5d1f56a5a43377a88d464706ce7e83bae92201c41fb97e4c572d7c4850c",
        "e421a7c4a5bd3a6a84bb8d2ed0ea29cab42e07b41e4c358ffa5cc72623bff1d1",
    ),
    "return-curve-k1": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 8 16 32 128\nk = 1\n[run]\nreplicas = 50\n",
        [],
        "a7c5078cb8e58f25f046bf8a0625fe82df6944f291778c1f12663daefdf6f0a9",
        "39d9a42efd07caef8fed3fee3d80f383dbb4734e050469875fcde95115957f3d",
    ),
    "return-curve-k1-asymmetric": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -2:1/3,1:2/3\n[params]\nn_list = 6 12 24 96\nk = 1\n"
        "[run]\nreplicas = 50\n",
        [],
        "83d72fc3a3c1935fba1de76cb287ca6ad5455f5e25fb1139cbf33258e30dc799",
        "6cfd4408c7720c9dd5131ac084c659558b21bb3d6868b0976965a096807d6bcf",
    ),
    "return-curve-k2": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 16 32 64\nk = 2\nt_ratios = 1 2\n"
        "[run]\nreplicas = 30\n",
        [],
        "ca35af1a549916afa80ca55c1dbf01a93df23a04300bf013a1c3cbd5b39bc37d",
        "3bc2f2d1a6ee7ee14cc4a4cf2ceeae7ca3b8992bcd35872f457998494f4f7aeb",
    ),
    "return-curve-k2-zero-atom": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -1:1/4,0:1/2,1:1/4\n[params]\nn_list = 16 32 64\nk = 2\n"
        "t_ratios = 1 2\n[run]\nreplicas = 30\n",
        [],
        "41ee5868ae9b260bdc15592dde1db0efe66d884e539d4a89dcd00ffb40209e3e",
        "aeee1ee1779b5437eefe526dfd98543eee403c056194d9ca284b487bed191baf",
    ),
    "return-curve-k2-five-point": (
        "[experiment]\nsubcommand = return-curve\n[laws]\n"
        "step = -2:1/6,-1:1/6,0:1/3,1:1/6,2:1/6\n"
        "scenery = -2:1/10,-1:1/5,0:2/5,1:1/5,2:1/10\n[params]\n"
        "n_list = 16 32 64\nk = 2\nt_ratios = 1 2\n[run]\nreplicas = 30\n",
        [],
        "8e770bc574497ec6f261df3464c0169031f9572309c6cb191609da8f0edcde2c",
        "2298fb6c8fb301418a536d09a2b18f673729dfaa1852b5c2beef2f8016535c9d",
    ),
    "return-curve-k3": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 64 128 256\nk = 3\nt_ratios = 1 2 3\n"
        "[run]\nreplicas = 30\n",
        [],
        "e3d4ae57599cae74741c1d8adac3c6534867932e3f35c132404e400b84df7ca9",
        "3c3677ba22891db53f098a724c524087a97353a53b104c8405227f56e33e70b7",
    ),
    "return-curve-inadmissible": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 7 9 11\nk = 1\n[run]\nreplicas = 30\n",
        ["--allow-inadmissible"],
        "f6a38745f6e07d718d9ca0f4753a415d2a8128604925b58f4da522203b112e9a",
        "2d35bc1e290a99048ab1310cf40e47093a03187b2ae16b7e71e3f895f786c322",
    ),
    "counting-moments": (
        "[experiment]\nsubcommand = counting-moments\n" + SIMPLE
        + "[params]\nn_list = 64 128 256\nk = 2\n[run]\nreplicas = 200\n",
        [],
        "8d48ff993f99e76aec9542dd1c44ca3359681c07b35fcbd3cc22945f78839956",
        "d237600162b551da94ba9a0191b8193a50fe13acfa0cb151c67756a3933f9af7",
    ),
    "gram": (
        "[experiment]\nsubcommand = gram\n[laws]\nstep = simple\n"
        "[params]\nn = 1024\nt_list = 1 2\nfineness = 1024\n[run]\nreplicas = 100\n",
        [],
        "c5182f4ea102388995c14e0a82cca90cbd8480207dfbdce2e56a563b96079f81",
        "21f75ff58452f8dbcbbf12e78758da60950033fef9ab351ed93e4bf5e44cbc7a",
    ),
    "estimate-c": (
        "[experiment]\nsubcommand = estimate-c\n"
        "[params]\nt_list = 1 2\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "40eec59b08650a9cdcc3fbc173110ff1e50a9ac180fbe0367e8d5feb51eff502",
        "d94518c504dd6139bfa561b640ab784c699c8afd0c939fb93c41fb04bd6e8fce",
    ),
    "besq-check": (
        "[experiment]\nsubcommand = besq-check\n[params]\ndraws = 1000\n",
        [],
        "8413bf20a5458cc4c90c1dd5ae8d3d7cfcbbeb47276731dee3192dee48f3e1c1",
        "b493ea66410707ac60b4fbd76a2abb3bece22b43381565e3db9e581ca7a60db3",
    ),
    "ray-knight": (
        "[experiment]\nsubcommand = ray-knight\n"
        "[params]\nfineness = 1024\n[run]\nreplicas = 200\n",
        [],
        "dcf37a615ef7937411222ded2df88943d554cf84254d92a5a01ebec3544c6ac5",
        "66dd2d1b1136e74b99356cf5b03d6467c78b3cc8d00c2271078c9495fbac5240",
    ),
    "delta-localtime": (
        "[experiment]\nsubcommand = delta-localtime\n"
        "[params]\nt = 1\nfineness = 1024\ndt = 1/256\n[run]\nreplicas = 50\n",
        [],
        "6eaee7ec10c6aae7258b07566d2c0c56e6c6734b1e5ca74882fd6aedc34ffbd2",
        "d132bb9fdcef2935fcc5fa6dbef023a3b0ec0318e4e4bb6567325c056a691a75",
    ),
    "scaling-test": (
        "[experiment]\nsubcommand = scaling-test\n"
        "[params]\nt = 2\nfineness = 1024\ndt = 1/512\n[run]\nreplicas = 50\n",
        [],
        "61d05f3e403eb3a8709c0cb3324ee2338f20f764d65aadf909742384b2b33919",
        "cac3423577627fbaf74352e6e756f9fce3da11086f3d1435f41b93d7ce03e834",
    ),
    "correlation-ratio": (
        "[experiment]\nsubcommand = correlation-ratio\n" + SIMPLE
        + "[params]\nn = 256\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "7cc0f10898b05c9ec87d86fef574576ac5d69dbcb3db7136b04455744ec434c8",
        "4cd5d66ffff710a50167accb4fae62cc21e2dc5454dc992389cc4e3797edec16",
    ),
    "boxcount": (
        "[experiment]\nsubcommand = boxcount\n"
        "[params]\nfineness = 4096\ndt = 1/4096\npaths = 20\n",
        [],
        "6201eca6f160d98be84f31d60cd4fb8ee182586ec2f18f13367778468f7bb9d0",
        "233e272d8126a23edf14d021af7d2cc5cb9483fbc8cae253ce777bea4698e165",
    ),
}


def run_case(tmp_path, name):
    """Run one case through the CLI.

    Returns (exit code, results.csv sha256, report.json sha256).
    """
    text, extra = CASES[name][:2]
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    code = cli.main(["--config", str(cfg), "--out", str(out), "--seed", "4242"]
                    + extra)
    return code, *(hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in ("results.csv", "report.json"))


@pytest.mark.parametrize("name", list(CASES))
def test_results_digest_is_pinned(tmp_path, name):
    code, csv_digest, report_digest = run_case(tmp_path, name)
    assert code in (0, 2)
    assert csv_digest == CASES[name][2]
    assert report_digest == CASES[name][3]


def test_every_subcommand_has_a_pinned_case():
    pinned = {case[0].split("subcommand = ")[1].split("\n")[0]
              for case in CASES.values()}
    assert pinned == set(cli._SUBCOMMANDS)


CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "child.py")


def _benchmark_child():
    spec = importlib.util.spec_from_file_location("_perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_resolve_in_their_class_dict():
    # the traced benchmark child wraps cls.__dict__[name]; an inherited or
    # renamed method would break every traced run
    import rwrs

    child = _benchmark_child()
    for layer, classes in child.METHODS.items():
        module = getattr(rwrs, layer)
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for meth in methods:
                assert inspect.isfunction(cls.__dict__.get(meth)), \
                    f"{layer}.{cls_name}.{meth}"


@pytest.mark.parametrize("name, entry, layer_span, calls", [
    ("gram", "harness.gram_convergence_test", "brownian.gram_of_fields", 100),
    ("return-curve-k2", "harness.estimate_return_curve",
     "scenery.joint_return_prob_sampled", None),
])
def test_traced_run_nests_library_calls_under_one_cli_run(tmp_path, name, entry,
                                                         layer_span, calls):
    # the traced benchmark child wraps module attributes after import; a call
    # through a reference kept elsewhere would escape it, and a second
    # cli.run span would break the benchmark's set-up time
    text, extra = CASES[name][:2]
    cfg = tmp_path / "config.ini"
    cfg.write_text(text, encoding="utf-8")
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, CHILD, str(record), "id", "1", "--", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--seed", "4242", *extra],
        capture_output=True, text=True, timeout=300)
    assert done.returncode in (0, 2), done.stderr
    spans = json.loads(record.read_text())["spans"]
    names = {span_id: span_name for span_id, _, span_name, _, _ in spans}
    (run_id,) = [span_id for span_id, _, span_name, _, _ in spans
                 if span_name == "cli.run"]
    entries = [(span_name, parent) for _, parent, span_name, _, _ in spans
               if span_name.startswith("harness.")
               and not names.get(parent, "").startswith("harness.")]
    assert (entry, run_id) in entries
    assert all(parent == run_id for _, parent in entries)
    count = sum(span_name == layer_span for _, _, span_name, _, _ in spans)
    assert count == calls if calls is not None else count > 0
