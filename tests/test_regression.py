"""Pinned `results.csv` digests: one small config per subcommand.

Every estimate is a deterministic function of (config, seed), so a refactor
that keeps the numbers keeps these sha256 digests.  A deliberate change of
the random-stream layout or of an estimator updates the digests here and
says so in CHANGES.md.
"""

import hashlib
import importlib.util
import inspect
import os

import pytest

from rwrs import cli

SIMPLE = "[laws]\nstep = simple\nscenery = rademacher\n"

# name -> (config text, extra CLI arguments, results.csv sha256); every case
# runs at seed 4242
CASES = {
    "analyze-law": (
        "[experiment]\nsubcommand = analyze-law\n[laws]\nscenery = -2:1/3,1:2/3\n",
        [],
        "c441caf24d2f44f5bfb475933e7871faaa71bd415e4ccf1e9e4bfc8f8efa23f3",
    ),
    "oracle": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = lazy\n"
        "scenery = rademacher\n[params]\ntimes = 4 8\nn_max = 7\n",
        [],
        "566d363adaaf72fb176a7adeb8fd5fc6f08d6aaa5c245b541ec7a5d9e99fc26a",
    ),
    "oracle-asymmetric-three-times": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = simple\n"
        "scenery = -2:1/3,1:2/3\n[params]\ntimes = 3 6 9\nn_max = 6\n",
        [],
        "ff724f6ddf6851108252ebeb1858c6a202f7af57cc8583b73688f2b9d08dac2d",
    ),
    "oracle-moment-lazy": (
        "[experiment]\nsubcommand = oracle\n[laws]\nstep = lazy\n"
        "scenery = -1:1/4,0:1/2,1:1/4\n[params]\ntimes = 2\nn_max = 8\n",
        [],
        "11bbd5d1f56a5a43377a88d464706ce7e83bae92201c41fb97e4c572d7c4850c",
    ),
    "return-curve-k1": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 8 16 32 128\nk = 1\n[run]\nreplicas = 50\n",
        [],
        "a7c5078cb8e58f25f046bf8a0625fe82df6944f291778c1f12663daefdf6f0a9",
    ),
    "return-curve-k1-asymmetric": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -2:1/3,1:2/3\n[params]\nn_list = 6 12 24 96\nk = 1\n"
        "[run]\nreplicas = 50\n",
        [],
        "83d72fc3a3c1935fba1de76cb287ca6ad5455f5e25fb1139cbf33258e30dc799",
    ),
    "return-curve-k2": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 16 32 64\nk = 2\nt_ratios = 1 2\n"
        "[run]\nreplicas = 30\n",
        [],
        "ca35af1a549916afa80ca55c1dbf01a93df23a04300bf013a1c3cbd5b39bc37d",
    ),
    "return-curve-k2-zero-atom": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -1:1/4,0:1/2,1:1/4\n[params]\nn_list = 16 32 64\nk = 2\n"
        "t_ratios = 1 2\n[run]\nreplicas = 30\n",
        [],
        "41ee5868ae9b260bdc15592dde1db0efe66d884e539d4a89dcd00ffb40209e3e",
    ),
    "return-curve-k2-five-point": (
        "[experiment]\nsubcommand = return-curve\n[laws]\n"
        "step = -2:1/6,-1:1/6,0:1/3,1:1/6,2:1/6\n"
        "scenery = -2:1/10,-1:1/5,0:2/5,1:1/5,2:1/10\n[params]\n"
        "n_list = 16 32 64\nk = 2\nt_ratios = 1 2\n[run]\nreplicas = 30\n",
        [],
        "8e770bc574497ec6f261df3464c0169031f9572309c6cb191609da8f0edcde2c",
    ),
    "return-curve-k3": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 64 128 256\nk = 3\nt_ratios = 1 2 3\n"
        "[run]\nreplicas = 30\n",
        [],
        "e3d4ae57599cae74741c1d8adac3c6534867932e3f35c132404e400b84df7ca9",
    ),
    "return-curve-inadmissible": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 7 9 11\nk = 1\n[run]\nreplicas = 30\n",
        ["--allow-inadmissible"],
        "f6a38745f6e07d718d9ca0f4753a415d2a8128604925b58f4da522203b112e9a",
    ),
    "counting-moments": (
        "[experiment]\nsubcommand = counting-moments\n" + SIMPLE
        + "[params]\nn_list = 64 128 256\nk = 2\n[run]\nreplicas = 200\n",
        [],
        "8d48ff993f99e76aec9542dd1c44ca3359681c07b35fcbd3cc22945f78839956",
    ),
    "gram": (
        "[experiment]\nsubcommand = gram\n[laws]\nstep = simple\n"
        "[params]\nn = 1024\nt_list = 1 2\nfineness = 1024\n[run]\nreplicas = 100\n",
        [],
        "c5182f4ea102388995c14e0a82cca90cbd8480207dfbdce2e56a563b96079f81",
    ),
    "estimate-c": (
        "[experiment]\nsubcommand = estimate-c\n"
        "[params]\nt_list = 1 2\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "40eec59b08650a9cdcc3fbc173110ff1e50a9ac180fbe0367e8d5feb51eff502",
    ),
    "besq-check": (
        "[experiment]\nsubcommand = besq-check\n[params]\ndraws = 1000\n",
        [],
        "8413bf20a5458cc4c90c1dd5ae8d3d7cfcbbeb47276731dee3192dee48f3e1c1",
    ),
    "ray-knight": (
        "[experiment]\nsubcommand = ray-knight\n"
        "[params]\nfineness = 1024\n[run]\nreplicas = 200\n",
        [],
        "dcf37a615ef7937411222ded2df88943d554cf84254d92a5a01ebec3544c6ac5",
    ),
    "delta-localtime": (
        "[experiment]\nsubcommand = delta-localtime\n"
        "[params]\nt = 1\nfineness = 1024\ndt = 1/256\n[run]\nreplicas = 50\n",
        [],
        "6eaee7ec10c6aae7258b07566d2c0c56e6c6734b1e5ca74882fd6aedc34ffbd2",
    ),
    "scaling-test": (
        "[experiment]\nsubcommand = scaling-test\n"
        "[params]\nt = 2\nfineness = 1024\ndt = 1/512\n[run]\nreplicas = 50\n",
        [],
        "61d05f3e403eb3a8709c0cb3324ee2338f20f764d65aadf909742384b2b33919",
    ),
    "correlation-ratio": (
        "[experiment]\nsubcommand = correlation-ratio\n" + SIMPLE
        + "[params]\nn = 256\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "7cc0f10898b05c9ec87d86fef574576ac5d69dbcb3db7136b04455744ec434c8",
    ),
    "boxcount": (
        "[experiment]\nsubcommand = boxcount\n"
        "[params]\nfineness = 4096\ndt = 1/4096\npaths = 20\n",
        [],
        "6201eca6f160d98be84f31d60cd4fb8ee182586ec2f18f13367778468f7bb9d0",
    ),
}


def run_case(tmp_path, name):
    """Run one case through the CLI; returns (exit code, results.csv sha256)."""
    text, extra, _ = CASES[name]
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    code = cli.main(["--config", str(cfg), "--out", str(out), "--seed", "4242"]
                    + extra)
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    return code, digest


@pytest.mark.parametrize("name", list(CASES))
def test_results_digest_is_pinned(tmp_path, name):
    code, digest = run_case(tmp_path, name)
    assert code in (0, 2)
    assert digest == CASES[name][2]


def test_every_subcommand_has_a_pinned_case():
    pinned = {text.split("subcommand = ")[1].split("\n")[0]
              for text, _, _ in CASES.values()}
    assert pinned == set(cli._SCHEMA)


def _benchmark_child():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "child.py")
    spec = importlib.util.spec_from_file_location("_perfbench_child", path)
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
