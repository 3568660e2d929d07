"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass is one complete call into ``treebo`` on inputs drawn from a seed:
``run_bo`` with the addtree algorithm for the BO workloads, and
``run_regression_study`` for the regression workload.  Every pass returns its
step times, a behaviour fingerprint (the sha256 of its records without
``wall_time``), its solution error and the correctness problems found.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

from treebo import bench, gp

# Model-based steps in a BO prefix pass (the warm-up and repeat check).
PREFIX_STEPS = 3


@dataclass
class PassResult:
    seed: int
    wall_s: float
    step_s: list[float]
    attempted: int
    failed: int
    fingerprint: str
    records: list[dict]
    solution_error: float
    problems: list[str] = field(default_factory=list)


def fingerprint(records: list[dict]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class BoWorkload:
    """``run_bo`` with addtree; a step is one model-based iteration."""

    objective: bench.Objective
    iterations: int
    tail_q: int

    @property
    def n_init(self) -> int:
        return bench.BoConfig().resolve_n_init(self.objective.spec)

    def run_pass(self, seed: int, objective=None, prefix: bool = False) -> PassResult:
        """One ``run_bo`` call; ``prefix`` stops after a few model-based steps."""
        objective = objective or self.objective
        iterations = min(self.iterations, self.n_init + PREFIX_STEPS) if prefix else self.iterations
        done = [0]

        def counted(leaf, values):
            y = objective.fn(leaf, values)
            done[0] += 1
            return y

        start = perf_counter()
        try:
            trace = bench.run_bo(replace(objective, fn=counted), "addtree", iterations, seed)
        except Exception as exc:  # a failed step is counted, not fatal
            attempted = max(done[0] - self.n_init, 0) + 1
            return PassResult(seed, perf_counter() - start, [], attempted, 1, "", [], math.nan,
                              [f"seed {seed}: step raised {exc!r}"])
        wall = perf_counter() - start

        records = []
        for r in trace.records:
            rec = asdict(r)
            del rec["wall_time"]
            rec["values"] = list(rec["values"])
            records.append(rec)
        steps = [r.wall_time for r in trace.records if r.t > self.n_init]
        best = trace.records[-1].best
        return PassResult(
            seed=seed,
            wall_s=wall,
            step_s=steps,
            attempted=len(steps),
            failed=0,
            fingerprint=fingerprint(records),
            records=records,
            solution_error=best - self.objective.known_optimum,
            problems=self._check(seed, trace.records),
        )

    def _check(self, seed: int, records) -> list[str]:
        problems = []
        optimum = self.objective.known_optimum
        running = math.inf
        for r in records:
            if not math.isfinite(r.y):
                problems.append(f"seed {seed} t={r.t}: non-finite y {r.y}")
                continue
            running = min(running, r.y)
            if r.best != running:
                problems.append(f"seed {seed} t={r.t}: incumbent {r.best} != min y {running}")
            if r.best < optimum:
                problems.append(f"seed {seed} t={r.t}: incumbent {r.best} below optimum {optimum}")
        return problems

    def prefix_records(self, result: PassResult) -> list[dict]:
        return result.records[: self.n_init + PREFIX_STEPS]


@dataclass(frozen=True)
class RegressionWorkload:
    """``run_regression_study`` on one seed; a step is one fitted model."""

    objective: bench.Objective
    sizes: tuple[int, ...]
    test_size: int
    tail_q: int

    def run_pass(self, seed: int, objective=None, prefix: bool = False) -> PassResult:
        """One study over ``sizes``; ``prefix`` fits the smallest size only."""
        objective = objective or self.objective
        sizes = self.sizes[:1] if prefix else self.sizes
        # Step boundaries: each fitted model starts with a hyperparameter fit.
        # This hook is one clock read per model, so passes stay untraced.
        starts: list[float] = []
        inner = gp.fit_hyperparameters

        def clocked(*args, **kwargs):
            starts.append(perf_counter())
            return inner(*args, **kwargs)

        gp.fit_hyperparameters = clocked
        start = perf_counter()
        try:
            recs = bench.run_regression_study(
                objective, sizes, test_size=self.test_size, seeds=[seed]
            )
        except Exception as exc:  # a failed step is counted, not fatal
            return PassResult(seed, perf_counter() - start, [], max(len(starts), 1), 1, "", [],
                              math.nan, [f"seed {seed}: step raised {exc!r}"])
        finally:
            gp.fit_hyperparameters = inner
        end = perf_counter()

        records = [asdict(r) for r in recs]
        steps = [b - a for a, b in zip(starts, starts[1:] + [end])]
        problems = [
            f"seed {seed} {r['method']} n={r['n_train']}: non-finite MSE {r['mse']}"
            for r in records
            if not math.isfinite(r["mse"])
        ]
        largest = [r["mse"] for r in records if r["method"] == "addtree" and r["n_train"] == sizes[-1]]
        return PassResult(
            seed=seed,
            wall_s=end - start,
            step_s=steps,
            attempted=len(steps),
            failed=0,
            fingerprint=fingerprint(records),
            records=records,
            solution_error=largest[0],
            problems=problems,
        )

    def prefix_records(self, result: PassResult) -> list[dict]:
        return [r for r in result.records if r["n_train"] == self.sizes[0]]


def _rt26() -> bench.Objective:
    # rt-d3f3k2: 13 vertices, 9 leaves, 26 continuous dimensions.
    return bench.random_tree_objective(3, 3, 2, 0)


def build(name: str, smoke: bool = False):
    """The named workload; ``smoke`` shrinks every budget to seconds.

    Passes are kept short so that one run averages over many seeds: the work
    of a BO pass varies a lot with its seed (60-iteration Jenatton passes
    took 5.9k to 10.7k evidence evaluations), and a run's median settles
    only when it spans many of them.  ``tail_q`` is the step-time percentile
    reported as the tail, fixed per workload so that every run reports the
    same one: the highest of p99/95/90/75 with ten steps beyond it at the
    step count of a 45-second run, unless noted.
    """
    if name == "jenatton-bo":
        # n_init is 9: 21 model-based steps a pass, 13-23 passes a run
        return BoWorkload(bench.jenatton_objective(), 12 if smoke else 30, tail_q=95)
    if name == "rt26-bo":
        # n_init is 30: 5 model-based steps a pass, 12-16 passes in 35 s.
        # Not in BENCHMARK.json: see README.md.
        return BoWorkload(_rt26(), 32 if smoke else 35, tail_q=75)
    if name == "rt26-regression":
        # 20 fitted models a pass, 5-9 passes a run.  The two
        # shared-kernel fits are a tenth of the steps, so p90 would sit on
        # the boundary between the two kinds of model; p75 stays clear of it.
        sizes, test_size = ((10, 20), 10) if smoke else ((50, 100), 50)
        return RegressionWorkload(_rt26(), sizes, test_size, tail_q=75)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("jenatton-bo", "rt26-bo", "rt26-regression")
