"""treebo benchmark: one workload, end-to-end or traced, from a repo checkout.

    python3 perfbench/run.py --workload jenatton-bo --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same inputs with every layer wrapped and reports per-layer metrics
and the tracing overhead.  ``--smoke`` shrinks every budget for the schema
test.  Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the workloads and the metrics.

The workload runs in a child process (``worker.py``) that imports ``treebo``
from ``src/`` of the checkout, so this file needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("jenatton-bo", "rt26-bo", "rt26-regression")

# The matrices are at most 100 x 100, where OpenBLAS threads bring nothing
# measurable (seed-0 regression pass 6.1-6.4 s with one thread, 6.4-6.8 s
# with two) and a second thread competes with other tenants for the other
# core.  One thread keeps the load at one process on one core.
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
TAIL_LADDER = (99, 95, 90, 75, 50)
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start ``worker.py``; return its start time and its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"worker exited with {proc.returncode}:\n{tail}")
    return started, json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, preferred: int) -> int:
    """The workload's tail percentile, or the next lower ladder step when
    fewer than ten of ``n`` samples lie beyond it (50 if none fits).

    Each workload fixes its percentile for the step count a run normally
    reaches, so the same percentile is reported run after run."""
    for q in TAIL_LADDER:
        if q <= preferred and n * (100 - q) >= 1000:
            return q
    return 50


def unit(metric: str) -> str:
    if metric.endswith(("_ms", "_p50", "_tail")):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    if metric == "quality.solution_error":
        return "value"
    return "count"


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    """Set-up probes, then the timed worker; returns metrics, raw, report."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    setups = []
    for _ in range((1 if args.smoke else SETUP_SAMPLES) - 1):
        started, probe = run_worker([*base, "--seconds", "0", "--probe"], deadline)
        setups.append(probe["ready"] - started)
    started, out = run_worker([*base, "--seconds", str(args.seconds), "--trace", "0"], deadline)
    setups.append(out["ready"] - started)
    if not out["pass_s"]:
        raise WorkerError("no pass completed:\n" + "\n".join(out["problems"]))

    steps_ms = [s * 1e3 for s in out["step_s"]]
    q = tail_percentile(len(steps_ms), out["tail_q"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(out["pass_s"]),
        "step_ms_p50": statistics.median(steps_ms),
        "step_ms_tail": percentile(steps_ms, q),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    solution_error = statistics.median(out["solution_error"])
    failed_frac = out["failed"] / out["attempted"]
    report = [
        f"  setup_s         {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups",
        f"  run_s           {metrics['run_s']:.4f} s   median of {len(out['pass_s'])} passes",
        f"  step_ms_p50     {metrics['step_ms_p50']:.3f} ms   {len(steps_ms)} steps",
        f"  step_ms_tail    {metrics['step_ms_tail']:.3f} ms   p{q} of {len(steps_ms)} steps",
        f"  solution_error  {solution_error:.6g}   median over {len(out['solution_error'])} passes",
        f"  peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB",
        f"  failed_frac     {failed_frac:.4g}   {out['failed']} of {out['attempted']} steps",
        f"  incumbents      {json.dumps(out['incumbents'])}",
    ]
    return metrics, out, report


def traced(args, deadline: float) -> tuple[dict, dict, list[str]]:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "1"]
    if args.smoke:
        argv.append("--smoke")
    _, out = run_worker(argv, deadline)
    layers = out["layers"]
    report = [f"  {name:<42} {value:.6g} {unit(name)}" for name, value in layers.items()]
    report.append(
        f"  tracing overhead {layers['bench.trace_overhead_frac']:+.1%} against the untraced "
        f"pass of {layers['bench.untraced_run_s']:.3f} s"
    )
    return layers, out, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny budgets, for the schema test")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        metrics, out, report = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(report))
    print(f"  fingerprints    {json.dumps(out['fingerprints'])}")
    print(f"  env             {json.dumps(out['env'])}")
    for problem in out["problems"]:
        print(f"  FAILED CHECK    {problem}")
    result = {
        "correct": not out["problems"] and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
