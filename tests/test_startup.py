"""Start-up cost: what `import rwrs` loads, and the malloc thresholds of `main`.

The import checks run in fresh interpreters, since the test process itself
has loaded scipy.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from rwrs import cli
from test_regression import CASES, run_case

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WATCHED = ("scipy.stats", "scipy.special", "numpy.random")


def fresh_python(code, *args):
    """Run code in a new interpreter with src/ on the path; returns its JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["rwrs", "rwrs.cli"])
def test_import_loads_numpy_random_but_no_scipy_stats_or_special(module):
    loaded = fresh_python(
        f"import json, sys\nimport {module}\n"
        f"print(json.dumps({{m: m in sys.modules for m in {WATCHED!r}}}))")
    assert loaded == {"scipy.stats": False, "scipy.special": False,
                      "numpy.random": True}


@pytest.mark.parametrize("name", ["gram", "ray-knight", "scaling-test"])
def test_ks_subcommands_run_without_scipy_stats(tmp_path, name):
    text, extra, digest = CASES[name][:3]
    cfg = tmp_path / "config.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    result = fresh_python(
        "import json, sys\nfrom rwrs import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'stats': 'scipy.stats' in sys.modules}))",
        "--config", str(cfg), "--out", str(out), "--seed", "4242", *extra)
    assert result["code"] in (0, 2) and not result["stats"]
    assert hashlib.sha256((out / "results.csv").read_bytes()).hexdigest() == digest


class _Libc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_main_fixes_both_malloc_thresholds(tmp_path, monkeypatch):
    libc = _Libc()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    code, digest, _ = run_case(tmp_path, "gram")
    assert code in (0, 2) and digest == CASES["gram"][2]
    # M_MMAP_THRESHOLD (-3) to 32 MiB, M_TRIM_THRESHOLD (-1) to 64 MiB
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def _no_libc(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    code, digest, _ = run_case(tmp_path, "gram")
    assert code in (0, 2) and digest == CASES["gram"][2]
