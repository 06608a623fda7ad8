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
        "5fe2b0dfcba76997fd3a0f3ba1db50b6c4d82f25de7acb18680f3d8f18a76c57",
        "74da4aebc7423161e462229a97fb0d96c6084c9845c531301ce4b09d59f103e0",
    ),
    "return-curve-k1-asymmetric": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -2:1/3,1:2/3\n[params]\nn_list = 6 12 24 96\nk = 1\n"
        "[run]\nreplicas = 50\n",
        [],
        "d8173042d9b22d0ac0726307327315a1556161dc125f10e16a347b5786120a9a",
        "07e334aa1c1bb2f76695d917f96bce41fc47a5cb4b38d1afd0781d41cdc76a19",
    ),
    # every k = 1 case reaches ReturnProbTable: the five-point law on the
    # complex table, the zero-atom and span-4 laws on the cosine table
    "return-curve-k1-five-point": (
        "[experiment]\nsubcommand = return-curve\n[laws]\n"
        "step = -2:1/6,-1:1/6,0:1/3,1:1/6,2:1/6\n"
        "scenery = -2:1/10,-1:1/5,0:2/5,1:1/5,2:1/10\n[params]\n"
        "n_list = 96 192 384\nk = 1\n[run]\nreplicas = 50\n",
        [],
        "f33d42b1e0ff56868480519c0cffd1202f334fbcba1ff85b158ec74eab8e6629",
        "1218c62d2f148fa14a371be3c14ecc487172c81fd1ee0cc5a766a42fdd92a515",
    ),
    "return-curve-k1-zero-atom": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = lazy\n"
        "scenery = -1:1/4,0:1/2,1:1/4\n[params]\nn_list = 96 192 384\nk = 1\n"
        "[run]\nreplicas = 50\n",
        [],
        "1b64361bf3249fd1e0aa792b0fd6c7ded726a260ccdbbec10ae82e6762c6dbcc",
        "90a36bfecc1d76df7283f13a4ed98b70230debaff1778e254a100f5add2be941",
    ),
    "return-curve-k1-span-four": (
        "[experiment]\nsubcommand = return-curve\n[laws]\nstep = simple\n"
        "scenery = -2:1/2,2:1/2\n[params]\nn_list = 96 192 384\nk = 1\n"
        "[run]\nreplicas = 50\n",
        [],
        "9e6608e7427a4d813568c257598df4d99ff07f8db5f25db120a8a51570a59fc3",
        "e78a5d7de27c36b4d6aeebcbf6181b6896bf021154025d279e72e9f5708f7bab",
    ),
    "return-curve-k2": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 16 32 64\nk = 2\nt_ratios = 1 2\n"
        "[run]\nreplicas = 30\n",
        [],
        "7b284d0d9f950b2b23550edcee82b484104603789199e1dc40892951dcaefdbd",
        "e3a7b109d41f4d4dd760498331182f97e17fcb390701f3fb43125f640d614ba6",
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
        "86641e36facb7bb935dc9182efddfe241b33d2ef16b5a593270933f1ea54a2b8",
        "07f8666d033fba2a6f1687ecf5e78b2b2ff7556712b6b0921ae835bf2607f27b",
    ),
    "return-curve-inadmissible": (
        "[experiment]\nsubcommand = return-curve\n" + SIMPLE
        + "[params]\nn_list = 7 9 11\nk = 1\n[run]\nreplicas = 30\n",
        [],
        "f6a38745f6e07d718d9ca0f4753a415d2a8128604925b58f4da522203b112e9a",
        "2d35bc1e290a99048ab1310cf40e47093a03187b2ae16b7e71e3f895f786c322",
    ),
    "counting-moments": (
        "[experiment]\nsubcommand = counting-moments\n" + SIMPLE
        + "[params]\nn_list = 64 128 256\nk = 2\n[run]\nreplicas = 200\n",
        [],
        "259497c84a180b60af415e011399c53571463463b86daec80d14cb78c822384e",
        "93a331fa56b2f2565e5a8fe8aa96009a10ed395e459d344c783a93dee7081039",
    ),
    "gram": (
        "[experiment]\nsubcommand = gram\n[laws]\nstep = simple\n"
        "[params]\nn = 1024\nt_list = 1 2\nfineness = 1024\n[run]\nreplicas = 100\n",
        [],
        "250ec4499e966d3ce418ea72d34c3dd75dd91e4d70114dc67c756d526b3f19da",
        "45045eebe9a33fe07df7063d41aefef504b530fa21c6b77c4d0abb88d46f628b",
    ),
    "estimate-c": (
        "[experiment]\nsubcommand = estimate-c\n"
        "[params]\nt_list = 1 2\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "f7dd798ed6d6fe4a3309548df1dd54b31fa41c7559c8894949b9f9486248c9a1",
        "999e66366f3ecf64801d6984107ecab5e839a2a2dfe923f4570d6ac065a8279d",
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
        "6aef9edbbea828b9d128f09646139afc2a809ca83f1df5a8b4c8146dac2f08a7",
        "d132bb9fdcef2935fcc5fa6dbef023a3b0ec0318e4e4bb6567325c056a691a75",
    ),
    "scaling-test": (
        "[experiment]\nsubcommand = scaling-test\n"
        "[params]\nt = 2\nfineness = 1024\ndt = 1/512\n[run]\nreplicas = 50\n",
        [],
        "810351c7e7b219c7fe5d0cca84a8f3529a8459da272ddbff459bec020528475e",
        "5ede4a5111edbe294b49441db1cc09427869bdb203b160bf5c4f3140d29a312b",
    ),
    "correlation-ratio": (
        "[experiment]\nsubcommand = correlation-ratio\n" + SIMPLE
        + "[params]\nn = 256\nfineness = 4096\n[run]\nreplicas = 100\n",
        [],
        "74d43b133129ecfbe0f8f4ebbc1885d123372bc2ba65749291df6f164ad0c589",
        "13e2fb0b96517d57d23ae52777df54be8429b7e7d630bfc0075c71f2a061135c",
    ),
    "boxcount": (
        "[experiment]\nsubcommand = boxcount\n"
        "[params]\nfineness = 4096\ndt = 1/4096\npaths = 20\n",
        [],
        "61c26fdfef90a9aaf72403797f46ca9322ffe7b83e40af89570914c5b79da6aa",
        "233e272d8126a23edf14d021af7d2cc5cb9483fbc8cae253ce777bea4698e165",
    ),
    # widths 1, 2, 5, 16, 55, 164, 328 cells: a clamped width of 1, pairwise
    # halving (1 -> 2, 164 -> 328) and widths that do not nest (reshape)
    "boxcount-nondyadic": (
        "[experiment]\nsubcommand = boxcount\n[params]\n"
        "scales = 1/20000 1/10000 1/3000 1/1000 1/300 1/100 1/50\n"
        "fineness = 16384\ndt = 1/16384\npaths = 20\n",
        [],
        "5bacbc5b2dd020be204f9fda6c1f3b8f69153f5cf6f3803b20a632cf697b67af",
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
