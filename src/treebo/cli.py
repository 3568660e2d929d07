"""Command-line front end.

Subcommands: ``run`` executes optimization runs and writes one trace file per
(algorithm, seed); ``compare`` loads trace directories and reports median
curves with pairwise one-sided signed-rank tests; ``regression`` runs the
data-efficiency study.  Exit codes: 0 success, 1 user error, 2 internal
error.  All randomness comes from explicit seeds in the config; repeated runs
produce identical traces up to wall-time fields.

Installed, the front end is the ``treebo`` command; from a checkout, run
``PYTHONPATH=src python -m treebo``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from .bench import (
    ALGORITHMS,
    BoConfig,
    RegressionRecord,
    aggregate_regression,
    build_comparison,
    jenatton_objective,
    quadratic_objective,
    read_trace,
    render_comparison,
    run_bo,
    run_regression_study,
)
from .kernels import KERNEL_KINDS
from .tree_space import TreeSpecError, parse_tree_spec

__all__ = ["main", "cmd_run", "cmd_compare", "cmd_regression"]

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class UserError(Exception):
    """Bad flags, missing files, inconsistent inputs: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own exit codes
        raise UserError(message)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UserError(f"{what}: expected comma-separated integers, got {text!r}") from None


def _parse_seeds(text: str) -> list[int]:
    """The ``--seeds`` list: one or more integers, none negative (numpy's
    seed sequences take no negative seed)."""
    seeds = _parse_int_list(text, "--seeds")
    if not seeds:
        raise UserError("--seeds is empty")
    if min(seeds) < 0:
        raise UserError(f"--seeds must be >= 0, got {min(seeds)}")
    return seeds


def _parse_sizes(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UserError(f"--train-sizes range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise UserError(f"--train-sizes: non-integer in {text!r}") from None
        if step <= 0:
            raise UserError("--train-sizes: step must be positive")
        return list(range(start, stop, step))
    return _parse_int_list(text, "--train-sizes")


def _add_objective_flags(p: argparse.ArgumentParser) -> None:
    """None marks a flag not given, so a flag the objective ignores is an error."""
    p.add_argument("--objective", default=None,
                   help="builtin objective name (default: jenatton); not with --tree-spec")
    p.add_argument("--tree-spec", default=None,
                   help="tree-spec file; runs a seeded quadratic objective on it")
    p.add_argument("--objective-seed", type=int, default=None,
                   help="seed of the quadratic objective on --tree-spec (default: 0)")


# (flag, BoConfig field, help, argparse keywords) of the fields both
# subcommands read: the fit's and the kernel's
_FIT_FLAGS = (
    ("--restarts", "restarts", "hyperparameter optimizer starts of a full refit; every "
     "regression fit is one, and a BO loop runs one on its first refit and when its data "
     "has doubled since the last, and one warm start from the previous fit otherwise",
     {"type": int}),
    ("--noise-variance", "noise_variance", "observation noise variance, > 0: the GP "
     "assumes it, and so do beta's information gain and noise term", {"type": float}),
    ("--kernel", "kernel_kind", None, {"choices": KERNEL_KINDS}),
    ("--tie-scales", "tie_scales", "share one fitted output scale across all vertices",
     {"action": argparse.BooleanOptionalAction}),
)
# ... and of the fields only an optimization loop reads: its random start,
# confidence schedule and acquisition
_LOOP_FLAGS = (
    ("--n-init", "n_init", "random iterations before model-based proposals "
     "(default: 4 + continuous dimension)", {"type": int}),
    ("--theta0", "theta0", "lengthscale bound at t = 0: fits search lengthscales only up "
     "to theta0 / g(t) (fits start from lengthscale 1 or the last fit)", {"type": float}),
    ("--b0", "B0", "initial norm-bound guess", {"type": float}),
    ("--delta", "delta", "confidence level in (0,1)", {"type": float}),
    ("--gamma-g", "gamma_g", "lengthscale-deflation rate; 0 disables adaptation",
     {"type": float}),
    ("--gamma-b", "gamma_b", "norm-bound growth rate; 0 disables adaptation", {"type": float}),
    ("--acq-starts", "acq_starts", "local-search starts per vertex acquisition", {"type": int}),
    ("--acq-scan", "acq_scan", "low-discrepancy scan budget per vertex acquisition",
     {"type": int}),
)


def _add_config_flags(p: argparse.ArgumentParser, flags) -> None:
    """One flag per BoConfig field it sets; defaults come from ``BoConfig()``."""
    d = BoConfig()
    for name, dest, help, kw in flags:
        p.add_argument(name, dest=dest, default=getattr(d, dest), help=help, **kw)


def _config_from_args(args) -> BoConfig:
    """The config from the BoConfig fields in the namespace, the rest at
    their defaults; bad settings (such as a delta outside (0, 1)) are user
    errors."""
    fields = {f.name for f in dataclasses.fields(BoConfig)}
    try:
        return BoConfig(**{k: v for k, v in vars(args).items() if k in fields})
    except ValueError as exc:
        raise UserError(str(exc)) from None


def _make_out_dir(text: str) -> Path:
    """Create the output directory ``--out``; a path that cannot be one (an
    existing file, say) is a user error."""
    out = Path(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UserError(f"--out {out}: cannot create directory ({exc.strerror})") from None
    return out


def _build_objective(payload: dict):
    name, seed = payload.get("objective"), payload.get("objective_seed")
    if payload.get("tree_spec"):
        if name is not None:
            raise UserError("--objective and --tree-spec both name the objective; give one")
        path = Path(payload["tree_spec"])
        try:
            spec = parse_tree_spec(path.read_text())
        except OSError as exc:  # missing, a directory, unreadable
            raise UserError(f"cannot read tree-spec file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:  # a binary file
            raise UserError(f"tree-spec file {path} is not UTF-8 text") from None
        except TreeSpecError as exc:
            raise UserError(f"{path}: {exc}") from None
        seed = 0 if seed is None else seed
        if seed < 0:
            raise UserError(f"--objective-seed must be >= 0, got {seed}")
        return quadratic_objective(spec, seed, name=f"tree:{path.name}")
    if seed is not None:
        raise UserError("--objective-seed seeds the objective on --tree-spec; it needs that flag")
    if name in (None, "jenatton"):
        return jenatton_objective()
    raise UserError(f"unknown objective {name!r}")


def _execute_run(payload: dict) -> dict:
    """Worker-pool entry: rebuild everything from the picklable payload."""
    objective = _build_objective(payload)
    config = BoConfig(**payload["config"])
    trace = run_bo(
        objective,
        payload["algorithm"],
        payload["iterations"],
        payload["seed"],
        config,
        trace_path=payload["trace_path"],
    )
    return {
        "algorithm": payload["algorithm"],
        "seed": payload["seed"],
        "best": trace.records[-1].best,
        "trace_path": payload["trace_path"],
    }


def cmd_run(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise UserError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
    seeds = _parse_seeds(args.seeds)
    if len(set(algorithms)) < len(algorithms) or len(set(seeds)) < len(seeds):
        raise UserError("--algorithms or --seeds repeats a value; each run writes one trace")
    if args.iterations < 1:
        raise UserError("--iterations must be >= 1")
    if args.workers < 1:
        raise UserError("--workers must be >= 1")
    config = _config_from_args(args)
    base = {
        "objective": args.objective,
        "tree_spec": args.tree_spec,
        "objective_seed": args.objective_seed,
        "iterations": args.iterations,
        "config": dataclasses.asdict(config),
    }
    _build_objective(base)  # fail fast on a bad objective/tree-spec
    out = _make_out_dir(args.out)

    payloads = []
    for algo in algorithms:
        for seed in seeds:
            payload = dict(base)
            payload.update(
                algorithm=algo,
                seed=seed,
                trace_path=str(out / f"{algo}-seed{seed}.jsonl"),
            )
            payloads.append(payload)

    if args.workers > 1:
        # imported here: it costs every other command about 20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            summaries = list(pool.map(_execute_run, payloads))
    else:
        summaries = [_execute_run(p) for p in payloads]

    for s in summaries:
        print(f"{s['algorithm']} seed={s['seed']} best={s['best']:.6g} trace={s['trace_path']}")
    return EXIT_OK


def cmd_compare(args) -> int:
    iterations = _parse_int_list(args.iterations, "--iterations")
    if not iterations:
        raise UserError("--iterations is empty")
    out = Path(args.out) if args.out else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        raise UserError(f"--out {out}: not a file in an existing directory")
    groups = []
    for k, d in enumerate(args.dirs):
        path = Path(d)
        if not path.is_dir():
            raise UserError(f"trace directory not found: {path}")
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise UserError(f"no trace files in {path}")
        try:
            traces = [read_trace(f) for f in files]
        except ValueError as exc:  # each message names its file
            raise UserError(str(exc)) from None
        # one directory holds one trace per (algorithm, seed)
        first: dict[tuple[str, int], Path] = {}
        for f, tr in zip(files, traces):
            key = (tr.meta["algorithm"], int(tr.meta["seed"]))
            if key in first:
                raise UserError(f"{first[key]} and {f} are both {key[0]} seed {key[1]}")
            first[key] = f
        groups.append((k, traces, set(first)))

    # If the same (algorithm, seed) shows up in several argument positions,
    # disambiguate by position so self-comparisons still produce a report.
    key_sets = [keys for _, _, keys in groups]
    collide = sum(map(len, key_sets)) > len(set().union(*key_sets))
    all_traces = []
    for k, traces, _ in groups:
        for tr in traces:
            if collide:
                tr.meta = dict(tr.meta, algorithm=f"arg{k}:{tr.meta['algorithm']}")
            all_traces.append(tr)

    try:
        report = build_comparison(all_traces, iterations)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    print(render_comparison(report))
    if out is not None:
        records = []
        for (a, b), by_t in report.p_values.items():
            for t, p in by_t.items():
                records.append({"better": a, "worse": b, "iteration": t, "p_value": p})
        for algo, by_t in report.median_incumbent.items():
            for t, v in by_t.items():
                records.append({"algorithm": algo, "iteration": t, "median_incumbent": v})
        out.write_text(
            "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        )
    return EXIT_OK


def write_regression_records(path, records: list[RegressionRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec), sort_keys=True) + "\n")


def cmd_regression(args) -> int:
    seeds = _parse_seeds(args.seeds)
    sizes = _parse_sizes(args.train_sizes)
    if not sizes or min(sizes) < 0:
        raise UserError(f"--train-sizes needs one or more sizes >= 0, got {args.train_sizes!r}")
    if args.test_size < 1:
        raise UserError("--test-size must be >= 1")
    objective = _build_objective(vars(args))
    config = _config_from_args(args)
    out = _make_out_dir(args.out) if args.out else None
    records = run_regression_study(
        objective, sizes, test_size=args.test_size, seeds=seeds, config=config
    )
    table = aggregate_regression(records)
    print("method".ljust(14) + "n_train".rjust(8) + "median MSE".rjust(14))
    for (method, n), mse in table.items():
        print(method.ljust(14) + f"{n:8d}" + f"{mse:14.6g}")
    if out is not None:
        write_regression_records(out / "regression.jsonl", records)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="treebo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute optimization runs")
    _add_objective_flags(p_run)
    p_run.add_argument("--algorithms", default="addtree",
                       help="comma-separated subset of addtree,independent,random")
    p_run.add_argument("--iterations", type=int, default=80)
    p_run.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_run.add_argument("--workers", type=int, default=1, help="parallel run workers")
    p_run.add_argument("--out", required=True, help="output directory for traces")
    _add_config_flags(p_run, _FIT_FLAGS + _LOOP_FLAGS)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare trace directories")
    p_cmp.add_argument("dirs", nargs="+", help="directories holding trace files")
    p_cmp.add_argument("--iterations", default="40,60,80",
                       help="comma-separated iterations of interest")
    p_cmp.add_argument("--out", default=None, help="machine-readable report file")
    p_cmp.set_defaults(func=cmd_compare)

    p_reg = sub.add_parser("regression", help="data-efficiency study")
    _add_objective_flags(p_reg)
    p_reg.add_argument("--train-sizes", default="4:48:4",
                       help="comma list or start:stop:step range")
    p_reg.add_argument("--test-size", type=int, default=50)
    p_reg.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p_reg.add_argument("--out", default=None, help="output directory for records")
    _add_config_flags(p_reg, _FIT_FLAGS)
    p_reg.set_defaults(func=cmd_regression)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
