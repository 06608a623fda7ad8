"""Start-up cost: what `import rwrs` loads, the malloc thresholds it sets,
that `src/` exports nothing and defines no public method that only the
tests use, holds no result field that nothing reads and no bare `assert`,
that `cli.validate_config` names no param, that walk steps and scenery
values are drawn in one function, that the exact oracle enumerates no
paths, that the exact reference enumerates its own paths, that the
dict-route walk reference builds its own positions and that the
references of the scenery kernels take no name from `rwrs.scenery`.

The import checks run in fresh interpreters, since the test process itself
has loaded scipy.
"""

import ast
import glob
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

from rwrs import cli, simkit
from test_regression import CASES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WATCHED = ("scipy.stats", "scipy.special", "numpy.random")
# public claim functions that only the acceptance criteria call
CLAIM_FUNCTIONS = {
    "besq0_total_integral", "besq0_density", "hitting_time_density",
    "origin_local_time_at_range_exit",
    "estimate_Mk", "occupation_comparison", "uniformity_shadow",
}


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


def test_main_fixes_both_malloc_thresholds(monkeypatch):
    # cli.main runs under them since `import rwrs` sets them
    libc = _Libc()
    monkeypatch.setattr(simkit.ctypes, "CDLL", lambda name: libc)
    simkit._fix_malloc_thresholds()
    # M_MMAP_THRESHOLD (-3) to 32 MiB, M_TRIM_THRESHOLD (-1) to 64 MiB
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def _no_libc(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_main_runs_where_libc_has_no_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(simkit.ctypes, "CDLL", cdll)
    simkit._fix_malloc_thresholds()


def test_importing_the_library_fixes_both_malloc_thresholds():
    # a library caller that never reaches cli.main gets the thresholds too
    calls = fresh_python(
        "import ctypes, json\ncalls = []\n"
        "class Libc:\n"
        "    def mallopt(self, param, value):\n"
        "        calls.append([param, value])\n"
        "        return 1\n"
        "ctypes.CDLL = lambda name: Libc()\n"
        "import rwrs.harness\n"
        "print(json.dumps(calls))")
    assert calls == [[-3, 32 << 20], [-1, 64 << 20]]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _src_trees():
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "rwrs", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    return trees


def _referenced_names(node):
    """Counts of the Name ids and Attribute attrs under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_export_is_used_in_src():
    # a Name or Attribute node counts; a docstring or an import alone does not
    trees = _src_trees()
    used = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in _exports(tree)
                    if name not in used and name not in CLAIM_FUNCTIONS)
    assert trees and not unused


def test_every_public_method_is_used_in_src():
    # every public method defined on a class in src/rwrs is referenced in
    # src/ outside its own def, so a method that only the tests call lives
    # in the tests.  References are matched by name alone, as the dataclass
    # field guard matches reads, so a method passes whenever its name is
    # referenced for anything else: a local `d`, another class's `from_dict`.
    # Exempt: _ZeroSeedSequence.generate_state, which numpy's bit generator
    # calls, not src/.
    trees = _src_trees().values()
    used = sum((_referenced_names(tree) for tree in trees), Counter())
    methods = [(cls.name, fn) for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    unused = [f"{cls}.{fn.name}" for cls, fn in methods
              if (used - _referenced_names(fn))[fn.name] == 0
              and (cls, fn.name) != ("_ZeroSeedSequence", "generate_state")]
    assert methods and not unused, unused


def test_validate_config_names_no_param():
    # every rule about a param lives with the param table or in a
    # subcommand's own check, so validate_config reads no param by name
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.validate_config)))
    named = sorted({node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in cli._PARAMS})
    assert not named, named


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # every annotated field of a dataclass in src/rwrs is read somewhere in
    # src/ or in the benchmark's child (perfbench/child.py), a read being
    # an attribute load.  Reads are matched by attribute name alone, so a
    # field that shares its name with an attribute read on another object
    # passes unseen: MkResult.replicas and CResult.replicas, never read,
    # passed because Estimate.replicas and ExperimentConfig.replicas are.
    # Exempt: TestReport, whose fields reach report.json through asdict,
    # and ExactResult.exact, the exact rational the oracle tests compare.
    src = sorted(glob.glob(os.path.join(SRC, "rwrs", "*.py")))
    trees = {}
    for path in src + [os.path.join(ROOT, "perfbench", "child.py")]:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read())
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [(cls.name, stmt.target.id) for path in src
              for cls in ast.walk(trees[path])
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              and cls.name != "TestReport"
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    unread = [f"{cls}.{name}" for cls, name in fields
              if name not in read and (cls, name) != ("ExactResult", "exact")]
    assert fields and not unread, unread


def test_src_has_no_bare_assert():
    # a documented check must raise, since `python -O` strips an assert
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "rwrs", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def _calls_by_function(tree):
    """(enclosing function or class.method, call node) for every call in a module."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((where, child))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if named else where)

    visit(tree, "")
    return out


def test_walk_steps_are_drawn_only_in_lattice_walk():
    # every step and scenery value is drawn by _FiniteLaw._draw, the one
    # caller of random_raw; no walk step comes from integers, and the
    # embedded walk's own coin draw is gone, so a change of the draw path
    # changes one function
    paths = sorted(glob.glob(os.path.join(SRC, "rwrs", "*.py")))
    assert os.path.join(SRC, "rwrs", "lattice_walk.py") in paths
    raw, integers, names = [], [], set()
    for path in paths:
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names.add(getattr(node, "id", None) or getattr(node, "attr", None)
                      or getattr(node, "name", None))
        for where, call in _calls_by_function(tree):
            attr = getattr(call.func, "attr", None)
            if attr == "random_raw":
                raw.append(f"{module}:{where}")
            elif attr == "integers":
                integers.append(f"{module}:{call.lineno}")
    assert raw and set(raw) == {"lattice_walk.py:_FiniteLaw._draw"}
    assert not integers
    assert "_coin_steps" not in names


def test_visits_are_counted_only_in_lattice_walk():
    # every count of visits over a walk's range goes through
    # lattice_walk._segment_counts; the one other bincount counts the
    # multiplicities of a profile's visit counts in ReturnProbTable
    paths = sorted(glob.glob(os.path.join(SRC, "rwrs", "*.py")))
    assert os.path.join(SRC, "rwrs", "lattice_walk.py") in paths
    calls = []
    for path in paths:
        module = os.path.basename(path)
        if module == "lattice_walk.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = set()
        for node in ast.walk(tree):
            if (module == "scenery.py" and isinstance(node, ast.ClassDef)
                    and node.name == "ReturnProbTable"):
                allowed.update(id(sub) for sub in ast.walk(node))
        calls += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  == "bincount"]
    assert not calls


def test_exact_oracle_enumerates_no_paths():
    # the oracle is a dynamic program over walk states: no itertools.product,
    # no generator and no function named after paths; the all-paths
    # enumerators live in tests/exact_reference.py
    with open(os.path.join(SRC, "rwrs", "exact_oracle.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [f"{node.lineno}: from itertools import {alias.name}"
                      for alias in node.names if alias.name == "product"]
        elif (isinstance(node, ast.Attribute) and node.attr == "product"
              and getattr(node.value, "id", None) == "itertools"):
            found.append(f"{node.lineno}: itertools.product")
        elif isinstance(node, ast.FunctionDef) and (
                "path" in node.name.lower()
                or any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                       for sub in ast.walk(node))):
            found.append(f"{node.lineno}: def {node.name}")
    assert not found


def test_exact_reference_enumerates_its_own_paths():
    # the reference oracles take only the budget and the law's integer
    # weights from rwrs.exact_oracle, so they check its dynamic program over
    # walk states (and its n - 1 step shortcut) instead of sharing it
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exact_reference.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "rwrs.exact_oracle":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            imported.update(prefix + alias.name for alias in node.names
                            if (prefix + alias.name).startswith("rwrs.exact_oracle"))
    assert imported and imported <= {"_check_budget", "_rational_weights"}


# the dict-route walk reference and the helpers it builds its walk with
DICT_ROUTE = {"simulate_local_times_by_dicts", "_positions_by_draws",
              "_segment_profiles", "_occupation", "draw_by_reference",
              "draw_by_bits", "draw_by_choice"}


def test_dict_route_reference_builds_its_own_walk():
    # the reference takes only the profile type from rwrs, so it draws its
    # steps by bits or with Generator.choice and counts visits itself
    # instead of sharing lattice_walk._walk_positions or _segment_counts
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    from_rwrs = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("rwrs"):
            from_rwrs.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            from_rwrs.update((a.asname or a.name.split(".")[0], a.name)
                             for a in node.names if a.name.startswith("rwrs"))
    funcs = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in DICT_ROUTE]
    assert {f.name for f in funcs} == DICT_ROUTE
    used = set()
    for node in (sub for f in funcs for sub in ast.walk(f)):
        if isinstance(node, ast.Name) and node.id in from_rwrs:
            used.add(from_rwrs[node.id])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("rwrs"):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            used.update(a.name for a in node.names if a.name.startswith("rwrs"))
    assert used and used <= {"LocalTimeProfile"}


# the oracles of scenery's k >= 2 kernels, and the k = 2 oracle
SCENERY_ORACLES = {"pmf_1d_on_full_grid", "pmf_1d_on_coset", "halfwidth_by_numpy",
                   "zero_prob_given_shared_int64", "union_counts_by_union1d",
                   "_pmf_2d"}


def test_scenery_kernel_references_take_no_scenery_name():
    # a fault in scenery._pmf_1d, _zero_prob_given_shared or _union_counts
    # cannot reach the reference it is checked against: the references take
    # no name from rwrs, except the budget error that _pmf_2d raises
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    from_rwrs = {}  # local name -> qualified name
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("rwrs"):
            from_rwrs.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        elif isinstance(node, ast.Import):
            from_rwrs.update((a.asname or a.name.split(".")[0], a.name)
                             for a in node.names if a.name.startswith("rwrs"))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in SCENERY_ORACLES}
    assert set(funcs) == SCENERY_ORACLES
    for name, func in funcs.items():
        used = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in from_rwrs:
                used.add(from_rwrs[node.id])
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("rwrs"):
                used.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                used.update(a.name for a in node.names if a.name.startswith("rwrs"))
        allowed = {"rwrs.errors.BudgetExceededError"} if name == "_pmf_2d" else set()
        assert used == allowed, name
