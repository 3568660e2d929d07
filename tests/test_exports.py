import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import treebo
from conftest import random_points, src_env
from treebo import bench
from treebo.kernels import AddTreeKernel
from treebo.tree_space import TreeSpec

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# the package's own names are imported by name in its __init__, so a stale
# one fails at import; the modules list theirs in __all__
MODULES = [f"treebo.{m.name}" for m in pkgutil.iter_modules(treebo.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_every_public_name_is_read_by_the_program():
    # what only tests call is not part of the program: every exported name
    # and every public method of AddTreeKernel, and of TreeSpec with its
    # properties, must be read, as a loaded name or an attribute (a
    # definition or an import is not a read), in src/treebo or perfbench, its
    # test aside.  to_config waits for the traces that will record fitted
    # kernels.
    read = set()
    for path in [*(ROOT / "src" / "treebo").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    methods = [
        name for cls in (AddTreeKernel, TreeSpec) for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (types.FunctionType, classmethod, property))
    ]
    exported = [name for m in MODULES for name in importlib.import_module(m).__all__]
    assert {"component_cross", "leaf_bounds", "n_leaves"} <= set(methods)
    assert "propose" in exported
    assert [name for name in exported + methods if name not in read] == ["to_config"]


def _reaches_scipy_optimize(module) -> bool:
    """Whether the module imports from ``scipy.optimize`` or loads one of its
    compiled modules by file (``gp._scipy_extension("optimize", ...)``)."""
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.optimize") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.optimize"):
                return True
            if node.module == "scipy" and any(a.name == "optimize" for a in node.names):
                return True
        elif isinstance(node, ast.Call):
            if any(isinstance(a, ast.Constant) and a.value == "optimize" for a in node.args):
                return True
    return False


def test_only_gp_reaches_scipy_optimize():
    # hyperparameter fitting is the one optimizer that is scipy's, and gp
    # reaches it through its file loader, not a scipy.optimize import; the
    # acquisition ascent is the package's own
    importers = [n for n in MODULES if _reaches_scipy_optimize(importlib.import_module(n))]
    assert importers == ["treebo.gp"]
    from treebo import gp

    assert gp.setulb is importlib.import_module("scipy.optimize._lbfgsb").setulb


# scipy.stats, scipy.optimize and scipy.linalg are the package's slowest
# imports: only the signed-rank test of `treebo compare` uses scipy.stats,
# and gp loads the two compiled modules it needs from scipy.linalg and
# scipy.optimize by file.  The CLI's help, a regression study and every kind
# of BO run must load none of the three packages; importing them afterwards
# must reuse gp's modules.
LAZY_STATS = """
import importlib
import sys

from treebo import bench, cli, gp

SLOW = ("scipy.stats", "scipy.linalg", "scipy.optimize")


def check(after):
    assert [m for m in SLOW if m in sys.modules] == [], after


check("importing treebo")
assert cli.main(["--help"]) == 0
check("treebo --help")
objective = bench.random_tree_objective(2, 2, 1, 0)
config = bench.BoConfig(n_init=2, restarts=1, acq_starts=2, acq_scan=8)
bench.run_regression_study(objective, [4], test_size=2, seeds=[0], config=config)
check("run_regression_study")
bench.run_bo(objective, "random", 4, 0, config)
check("a random run")
bench.run_bo(objective, "addtree", 4, 0, config)
check("an addtree run")
bench.run_bo(objective, "independent", 4, 0, config)
check("an independent run")
lapack = importlib.import_module("scipy.linalg.lapack")
lbfgsb = importlib.import_module("scipy.optimize._lbfgsb")
assert gp.lapack is lapack._flapack and gp.setulb is lbfgsb.setulb
routines = ("dpotrf", "dpotri", "dpotrs", "dtrtrs")
assert all(getattr(gp.lapack, f) is getattr(lapack, f) for f in routines)
"""


def test_scipy_stats_is_imported_only_where_used():
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", LAZY_STATS], capture_output=True, text=True,
        env=src_env(),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


# gp loads scipy's compiled modules by file when it is imported; after that,
# a BO run opens no file in scipy's install directory: scipy's data files,
# private or not, are no part of the program.  The audit hook, set after the
# imports, sees every open.
NO_SCIPY_FILES = """
import os
import sys

import scipy

from treebo import bench

SCIPY = os.path.dirname(os.path.realpath(scipy.__file__)) + os.sep
opened = []


def hook(event, args):
    if event == "open" and not isinstance(args[0], int):
        path = os.path.realpath(os.fsdecode(args[0]))
        if path.startswith(SCIPY):
            opened.append(path)


sys.addaudithook(hook)
objective = bench.random_tree_objective(2, 2, 1, 0)
config = bench.BoConfig(n_init=2, restarts=1, acq_starts=2, acq_scan=8)
bench.run_bo(objective, "addtree", 4, 0, config)
bench.run_bo(objective, "independent", 4, 0, config)
assert opened == [], opened
"""


def test_bo_runs_open_no_file_in_scipys_install_directory():
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", NO_SCIPY_FILES], capture_output=True, text=True,
        env=src_env(),
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_benchmark_tracer_names_exist(jenatton, monkeypatch):
    # perfbench's tracer wraps these functions and kernel methods by name;
    # a missing one fails every traced benchmark run.  The file is read and
    # executed in memory, so nothing is written next to it.
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    missing = [
        name for name, (module, attr) in tracing.FUNCTIONS.items()
        if not hasattr(importlib.import_module(module), attr)
    ]
    missing += [name for name, attr in tracing.METHODS.items() if not hasattr(AddTreeKernel, attr)]
    assert tracing.FUNCTIONS and tracing.METHODS
    assert missing == []
    # its gram_and_grads observer unpacks (K, derivatives) and adds up the
    # bytes of K and of every derivative array: a real call through the
    # installed tracer must be counted
    kern = bench.BoConfig().kernel(jenatton.spec)
    _, X = random_points(jenatton.spec, np.random.default_rng(2), 9)
    blocks = kern.vertex_blocks(X)
    tracer = tracing.Tracer()
    with tracer.installed():
        K, grads = kern.gram_and_grads(blocks, kern.get_log_params())
    metrics = tracer.layer_metrics()
    assert metrics["kernels.gram_and_grads.calls"] == 1
    out_bytes = K.nbytes + sum(G.nbytes for G in grads)
    assert out_bytes > K.nbytes
    assert metrics["kernels.gram_and_grads.out_mb"] * 2**20 == out_bytes
    # its fit_hyperparameters observer reads the requested restarts from the
    # keyword (10 when absent, the default) and counts the restarts that
    # succeeded: over a run with full and one-start refits, what it counts
    # as requested must be what the fits returned
    results = []
    inner = bench.gp.fit_hyperparameters

    def recorded(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bench.gp, "fit_hyperparameters", recorded)
    tracer = tracing.Tracer()
    with tracer.installed():
        bench.run_bo(jenatton, "addtree", 14, seed=0, config=bench.BoConfig(n_init=4))
    metrics = tracer.layer_metrics()
    assert {len(r.restart_evidences) for r in results} == {1, 3}
    assert metrics["gp.fit_hyperparameters.calls"] == len(results)
    assert tracer.counts["gp.fit_hyperparameters.restarts"] == sum(
        len(r.restart_evidences) for r in results
    )
    assert metrics["gp.fit_hyperparameters.restarts_ok_frac"] == 1.0
    assert metrics["kernels.gram_and_grads.calls"] == sum(r.evaluations for r in results)
    # and over a regression study, whose fits are all full ones
    results.clear()
    tracer = tracing.Tracer()
    with tracer.installed():
        bench.run_regression_study(
            jenatton, [4, 8], test_size=3, seeds=[0], config=bench.BoConfig(restarts=2)
        )
    metrics = tracer.layer_metrics()
    assert results and {len(r.restart_evidences) for r in results} == {2}
    assert metrics["gp.fit_hyperparameters.calls"] == len(results)
    assert tracer.counts["gp.fit_hyperparameters.restarts"] == 2 * len(results)
    assert metrics["gp.fit_hyperparameters.restarts_ok_frac"] == 1.0
