"""The benchmark's traced passes reach every layer they require.

``perfbench/worker.py`` names the layers a traced pass must reach
(``REQUIRED_BO``, ``REQUIRED_REGRESSION``) and those a regression pass must
leave alone (``ACQUISITION``); a traced benchmark run reports a problem when
one is missed.  The names are read here with ``ast``, without importing the
worker, and checked on short traced runs with the benchmark's own tracer, so
a change that would break the benchmark's traced runs fails here first.
"""

import ast
import importlib.util
from dataclasses import replace
from pathlib import Path

from treebo import bench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LISTS = ("REQUIRED_BO", "REQUIRED_REGRESSION", "ACQUISITION")


def _worker_lists() -> dict[str, tuple[str, ...]]:
    """The worker's module-level layer lists, by name."""
    found = {}
    for node in ast.parse((PERFBENCH / "worker.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in LISTS:
                found[name] = ast.literal_eval(node.value)
    return found


def _traced_layers(run, objective) -> dict[str, float]:
    """The layer metrics of ``run(objective)`` under the benchmark's tracer,
    with the objective and the whole run recorded as the worker records
    them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    objective = replace(objective, fn=tracer.wrap(tracing.OBJECTIVE, objective.fn))
    with tracer.installed():
        tracer.wrap(tracing.LOOP, run)(objective)
    return tracer.layer_metrics()


def test_traced_runs_reach_every_layer_the_benchmark_requires(jenatton):
    lists = _worker_lists()
    assert sorted(lists) == sorted(LISTS) and all(lists.values())
    # two model-based steps on Jenatton, whose n_init is 9
    bo = _traced_layers(lambda obj: bench.run_bo(obj, "addtree", 11, 3), jenatton)
    assert [name for name in lists["REQUIRED_BO"] if not bo[name] > 0] == []
    rt26 = bench.random_tree_objective(3, 3, 2, 0)
    regression = _traced_layers(
        lambda obj: bench.run_regression_study(obj, (10, 20), test_size=10, seeds=[3]), rt26
    )
    assert [name for name in lists["REQUIRED_REGRESSION"] if not regression[name] > 0] == []
    assert [name for name in lists["ACQUISITION"] if regression[name] != 0] == []
