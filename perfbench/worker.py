"""One workload in its own process; run by ``run.py``, not by hand.

Prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading once imports are done and the workload is
built, which ``run.py`` turns into set-up time.  With ``--probe`` the worker
stops there.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import treebo  # noqa: E402, F401  (set-up covers the package import)
import workloads  # noqa: E402
from tracing import LOOP, OBJECTIVE, Tracer, is_count  # noqa: E402

SPANS_DIR = Path(__file__).resolve().parent / "out"

# Layers each workload must reach; a zero count means a wrapper missed a
# renamed function or a by-name import.
REQUIRED_BO = (
    "kernels.gram_and_grads.calls", "kernels.gram_matrix.calls", "kernels.component_cross.calls",
    "gp.fit_hyperparameters.calls", "gp.fit.calls", "gp.component_posterior_batch.calls",
    "acquisition.propose.calls", "acquisition.mutual_information.calls",
    "acquisition.polish_evals", "tree_space.linearize.calls", "bench.objective.calls",
)
REQUIRED_REGRESSION = (
    "kernels.gram_and_grads.calls", "kernels.gram_matrix.calls", "gp.fit_hyperparameters.calls",
    "gp.fit.calls", "gp.posterior.calls", "tree_space.linearize.calls", "bench.objective.calls",
)
ACQUISITION = (
    "acquisition.propose.calls", "acquisition.mutual_information.calls",
    "acquisition.polish_evals", "gp.component_posterior_batch.calls",
    "kernels.component_cross.calls",
)


def blas_threads() -> dict:
    """OpenBLAS thread counts of the copies numpy and scipy load."""
    out = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libs / "libscipy_openblas*.so")):
            # numpy links the 64-bit-index build, scipy the 32-bit one
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                try:
                    fn = getattr(ctypes.CDLL(lib), symbol)
                except (OSError, AttributeError):
                    continue
                fn.restype = ctypes.c_int
                out[pkg.__name__] = fn()
                break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def pass_seed(seed: int, k: int) -> int:
    """Seed of the k-th pass of a run; runs with different seeds share none."""
    return seed * 1000 + k


def warm_up(wl, seed: int) -> workloads.PassResult:
    """The first steps of the run's first seed, untimed.

    They fill lazy imports and caches before timing, and their fingerprint
    is checked against the same steps of the first full pass."""
    return wl.run_pass(pass_seed(seed, 0), prefix=True)


def repeat_problems(wl, warm, full) -> list[str]:
    if warm.failed or full.failed:
        return []
    if workloads.fingerprint(wl.prefix_records(full)) == warm.fingerprint:
        return []
    return [f"seed {full.seed}: a repeat of the first steps gave another fingerprint"]


def timed_run(wl, seed: int, seconds: float) -> dict:
    """Passes on fresh seeds until the time is up."""
    warm = warm_up(wl, seed)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        res = wl.run_pass(pass_seed(seed, len(passes)))
        passes.append(res)
        # start another pass only if at least half of one fits
        if time.perf_counter() + 0.5 * res.wall_s > deadline:
            break

    problems = [p for r in (warm, *passes) for p in r.problems]
    problems += repeat_problems(wl, warm, passes[0])
    ok = [r for r in passes if not r.failed]
    return {
        "pass_s": [r.wall_s for r in ok],
        "step_s": [s for r in ok for s in r.step_s],
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "solution_error": [r.solution_error for r in ok],
        "fingerprints": {str(r.seed): r.fingerprint for r in ok},
        "incumbents": {str(r.seed): r.records[-1]["best"] for r in ok if "best" in r.records[-1]},
        "tail_q": wl.tail_q,
        "problems": problems,
    }


def traced_pass(wl, seed: int) -> tuple[workloads.PassResult, Tracer]:
    tracer = Tracer()
    objective = replace(wl.objective, fn=tracer.wrap(OBJECTIVE, wl.objective.fn))
    with tracer.installed():
        res = tracer.wrap(LOOP, wl.run_pass)(seed, objective=objective)
    return res, tracer


def traced_run(wl, seed: int, spans_path: Path) -> dict:
    """A traced, an untraced and a traced pass of one seed, after the warm-up.

    Passes keep getting faster for a while after the warm-up (the
    interpreter specialises hot code), so the untraced pass sits between
    the traced ones and the overhead compares it with their mean.  Layer
    figures and spans come from the second traced pass."""
    warm = warm_up(wl, seed)
    first, first_tracer = traced_pass(wl, warm.seed)
    plain = wl.run_pass(warm.seed)
    second, tracer = traced_pass(wl, warm.seed)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    runs = (warm, first, plain, second)

    problems = [p for r in runs for p in r.problems]
    problems += repeat_problems(wl, warm, plain)
    problems += [f"seed {plain.seed}: a traced pass changed the fingerprint"
                 for r in (first, second) if r.fingerprint != plain.fingerprint]
    before, layers = first_tracer.layer_metrics(), tracer.layer_metrics()
    problems += [f"{name}: {before[name]} then {value} on a repeat"
                 for name, value in layers.items() if is_count(name) and before[name] != value]
    regression = isinstance(wl, workloads.RegressionWorkload)
    required = REQUIRED_REGRESSION if regression else REQUIRED_BO
    problems += [f"{name}: no calls recorded" for name in required if layers[name] == 0]
    if regression:
        problems += [f"{name}: {layers[name]} on a workload without acquisition"
                     for name in ACQUISITION if layers[name] != 0]

    layers["bench.untraced_run_s"] = plain.wall_s
    layers["bench.trace_overhead_frac"] = (first.wall_s + second.wall_s) / (2 * plain.wall_s) - 1
    layers["quality.solution_error"] = plain.solution_error
    return {
        "layers": layers,
        "attempted": sum(r.attempted for r in runs[1:]),
        "failed": sum(r.failed for r in runs[1:]),
        "fingerprints": {str(plain.seed): plain.fingerprint},
        "problems": problems,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, smoke=args.smoke)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out = traced_run(wl, args.seed, spans)
    else:
        out = timed_run(wl, args.seed, args.seconds)
    out["ready"] = ready
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
