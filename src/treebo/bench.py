"""Benchmark objectives, optimization loops, and statistical comparison.

Three optimizers share one harness: the structure-aware GP loop
(``addtree``), an independent-GP-per-leaf baseline (``independent``, the
same GP loop run on each leaf's single-path subspace), and uniform random
search (``random``).  All three consume the same
initialization seed stream, so runs with equal seeds are paired.  Traces are
line-delimited JSON with a versioned header carrying the full config and its
digest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from scipy.stats import wilcoxon

from . import gp
from .acquisition import Proposal, UcbSchedule, propose
from .kernels import KERNEL_KINDS, ZERO_DIM_POLICIES, AddTreeKernel, stack_points
from .tree_space import (
    LinearizedPoint,
    PathIndex,
    TreeSpec,
    VertexSpec,
    build_path_index,
    linearize,
    make_tree_spec,
)

__all__ = [
    "Objective",
    "NonFiniteObjectiveError",
    "BoConfig",
    "IterationRecord",
    "RunTrace",
    "RegressionRecord",
    "ComparisonReport",
    "jenatton_objective",
    "quadratic_objective",
    "random_tree_objective",
    "sample_uniform_point",
    "sample_branch_walk",
    "run_bo",
    "run_regression_study",
    "aggregate_regression",
    "wilcoxon_one_sided",
    "build_comparison",
    "render_comparison",
    "config_digest",
    "read_trace",
]

logger = logging.getLogger(__name__)

TRACE_FORMAT = "treebo-trace"
TRACE_VERSION = 1

ALGORITHMS = ("addtree", "independent", "random")


@dataclass(frozen=True)
class Objective:
    """A black-box function on a tree-structured space.

    ``fn(leaf, values)`` evaluates one configuration (values are path-ordered
    for that leaf).  ``known_optimum`` is the global minimum when available.
    """

    name: str
    spec: TreeSpec
    index: PathIndex
    fn: object
    known_optimum: float | None = None

    def __call__(self, leaf: int, values) -> float:
        return float(self.fn(int(leaf), np.asarray(values, dtype=float)))


class NonFiniteObjectiveError(ValueError):
    """The objective returned NaN or an infinity; no model can be fitted to it."""


def _evaluate(objective: Objective, leaf: int, values, t: int | None = None) -> float:
    """``objective(leaf, values)``, rejecting non-finite results."""
    y = objective(leaf, values)
    if not math.isfinite(y):
        where = f"t={t}, " if t is not None else ""
        raise NonFiniteObjectiveError(
            f"objective {objective.name!r} returned {y} at {where}leaf {leaf}, "
            f"values {[float(v) for v in values]}"
        )
    return y


def jenatton_objective() -> Objective:
    """The Jenatton synthetic benchmark: a depth-3 binary tree, four leaves.

    The root carries no continuous variable; each mid-level vertex carries a
    shared variable r in [0, 1]; each leaf carries x in [-1, 1].  Leaf values
    are x^2 + offset + r with offsets 0.1, 0.2, 0.3, 0.4, so the global
    minimum is 0.1 at the first leaf with x = 0, r = 0.
    """
    vertices = [
        VertexSpec("root", 0, ()),
        VertexSpec("n0", 1, ((0.0, 1.0),)),
        VertexSpec("n1", 1, ((0.0, 1.0),)),
        VertexSpec("leaf00", 1, ((-1.0, 1.0),)),
        VertexSpec("leaf01", 1, ((-1.0, 1.0),)),
        VertexSpec("leaf10", 1, ((-1.0, 1.0),)),
        VertexSpec("leaf11", 1, ((-1.0, 1.0),)),
    ]
    edges = [
        ("root", 0, "n0"),
        ("root", 1, "n1"),
        ("n0", 0, "leaf00"),
        ("n0", 1, "leaf01"),
        ("n1", 0, "leaf10"),
        ("n1", 1, "leaf11"),
    ]
    spec = make_tree_spec(vertices, edges)
    index = build_path_index(spec)
    offsets = (0.1, 0.2, 0.3, 0.4)

    def fn(leaf: int, values: np.ndarray) -> float:
        r, x = values  # path order: mid-level variable, then leaf variable
        return x * x + offsets[leaf] + r

    return Objective(
        name="jenatton", spec=spec, index=index, fn=fn, known_optimum=0.1
    )


def quadratic_objective(spec: TreeSpec, seed: int, name: str | None = None) -> Objective:
    """A seeded additive quadratic-bowl objective on an existing space.

    Every vertex contributes a convex bowl with its minimum strictly inside
    the box plus a non-negative offset (a dim-0 vertex contributes only the
    offset), so the objective decomposes additively along paths by
    construction and the global optimum has a closed form: the minimum over
    leaves of the summed per-vertex offsets.
    """
    index = build_path_index(spec)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(37,)))
    bowls: dict[str, tuple[np.ndarray, np.ndarray, float]] = {}
    for vid in index.bfs_order:
        v = spec.vertex(vid)
        lo = np.array([b[0] for b in v.bounds])
        hi = np.array([b[1] for b in v.bounds])
        weights = rng.uniform(0.5, 2.0, size=v.dim)
        center = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)) if v.dim else lo
        offset = float(rng.uniform(0.0, 1.0))
        bowls[vid] = (weights, center, offset)

    def fn(leaf: int, values: np.ndarray) -> float:
        total = 0.0
        taken = 0
        for vid in index.leaf_paths[leaf]:
            w, c, o = bowls[vid]
            chunk = values[taken : taken + w.size]
            total += o + float(w @ (chunk - c) ** 2)
            taken += w.size
        return total

    optimum = min(sum(bowls[vid][2] for vid in path) for path in index.leaf_paths)
    return Objective(
        name=name or f"quadratic-{seed}",
        spec=spec,
        index=index,
        fn=fn,
        known_optimum=float(optimum),
    )


def random_tree_objective(depth: int, fanout: int, dims: int, seed: int) -> Objective:
    """A seeded quadratic-bowl objective on a random perfect tree.

    ``depth`` counts levels (depth 1 is a single vertex, an ordinary
    box-constrained quadratic); every vertex carries ``dims`` variables.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(31,)))
    vertices: list[VertexSpec] = []
    edges: list[tuple[str, int, str]] = []
    counter = [0]

    def add_vertex(level: int) -> str:
        vid = f"v{counter[0]}"
        counter[0] += 1
        bounds = tuple((-1.0 - rng.random(), 1.0 + rng.random()) for _ in range(dims))
        vertices.append(VertexSpec(vid, dims, bounds))
        if level < depth:
            for lab in range(fanout):
                child = add_vertex(level + 1)
                edges.append((vid, lab, child))
        return vid

    add_vertex(1)
    spec = make_tree_spec(vertices, edges)
    return quadratic_objective(spec, seed, name=f"random-tree-{seed}")


def sample_uniform_point(index: PathIndex, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Uniform leaf choice, then uniform values in the leaf's box."""
    leaf = int(rng.integers(index.n_leaves))
    bounds = index.leaf_bounds(leaf)
    values = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return leaf, values


def sample_branch_walk(index: PathIndex, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Walk from the root choosing branches uniformly (Bernoulli(1/2) for a
    binary tree), then draw values uniformly; the data scheme of the
    regression study."""
    spec = index.spec
    cur = spec.root_id
    while True:
        children = spec.children(cur)
        if not children:
            break
        cur = children[int(rng.integers(len(children)))][1]
    leaf = index.leaf_ids.index(cur)
    bounds = index.leaf_bounds(leaf)
    values = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
    return leaf, values


# -- run configuration and traces ---------------------------------------------


@dataclass(frozen=True)
class BoConfig:
    """Knobs shared by every optimizer run.

    ``n_init=None`` resolves to 4 plus the space's continuous dimension.
    ``restarts`` is the number of L-BFGS-B starts of a full hyperparameter
    fit: the previous kernel plus ``restarts - 1`` log-uniform draws.  Every
    regression fit is a full fit; an optimization loop runs one on its first
    refit and whenever its data has at least doubled since its last full
    fit, and otherwise one warm-started run from the previous fit.
    ``gamma_g``/``gamma_b`` of zero mean no schedule adaptation (constant
    norm bound); fitted lengthscales are always capped by the min rule at
    ``theta0 / g(t)``, which stops evidence maximization from flattening a
    barely-observed region into false certainty.  The fit's bounds are
    :data:`gp.LENGTHSCALE_BOUNDS` and :data:`gp.SCALE_BOUNDS`.  A config
    whose schedule, acquisition, noise, fit or kernel settings are invalid
    raises ``ValueError`` when it is built.
    """

    n_init: int | None = None
    restarts: int = 3
    theta0: float = 1.0
    B0: float = 1.0
    delta: float = 0.1
    gamma_g: float = 0.02
    gamma_b: float = 0.3
    noise_variance: float = 1e-8
    noise_floor: float = 1e-6
    acq_starts: int = 5
    acq_scan: int = 32
    kernel_kind: str = "se"
    zero_dim: str = "constant"
    tie_scales: bool = True

    def __post_init__(self) -> None:
        for name in ("restarts", "acq_starts", "acq_scan"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_init is not None and not self.n_init >= 0:
            raise ValueError(f"n_init must be >= 0, got {self.n_init}")
        if not (self.noise_variance >= 0 and math.isfinite(self.noise_variance)):
            raise ValueError(
                f"noise_variance must be non-negative and finite, got {self.noise_variance}"
            )
        if not (self.noise_floor > 0 and math.isfinite(self.noise_floor)):
            raise ValueError(f"noise_floor must be positive and finite, got {self.noise_floor}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise ValueError(f"kernel_kind must be one of {KERNEL_KINDS}, got {self.kernel_kind!r}")
        if self.zero_dim not in ZERO_DIM_POLICIES:
            raise ValueError(f"zero_dim must be one of {ZERO_DIM_POLICIES}, got {self.zero_dim!r}")
        self.schedule(1)  # raises on a bad theta0, B0, delta or rate

    def resolve_n_init(self, spec: TreeSpec) -> int:
        return self.n_init if self.n_init is not None else 4 + spec.continuous_dimension

    def schedule(self, d: int) -> UcbSchedule:
        """The confidence schedule on a space of total dimension ``d``."""
        return UcbSchedule(self.theta0, self.B0, self.delta, self.gamma_g, self.gamma_b, d)

    def kernel(self, spec: TreeSpec, index: PathIndex) -> AddTreeKernel:
        """The unfitted starting kernel of this config on a space."""
        return AddTreeKernel.default(
            spec, index, kind=self.kernel_kind, zero_dim=self.zero_dim,
            tied_scales=self.tie_scales,
        )

    def fit(
        self, kernel, data, rng, t: float = 0.0, schedule=None, warm: bool = False
    ) -> "gp.FitResult":
        """One hyperparameter refit under this config's policy.

        A full fit starts from ``kernel`` and ``restarts - 1`` draws from
        ``rng``; a ``warm`` fit is one L-BFGS-B run from ``kernel`` and draws
        nothing.  The min-rule lengthscale cap applies only inside the
        optimization loop (when a schedule is passed); plain regression fits
        are uncapped.
        """
        return gp.fit_hyperparameters(
            kernel,
            data,
            restarts=1 if warm else self.restarts,
            rng=rng,
            lengthscale_cap=None if schedule is None else schedule.lengthscale_cap(t),
        )


@dataclass(frozen=True)
class IterationRecord:
    t: int
    leaf: int
    values: tuple
    y: float
    best: float
    beta: float | None
    wall_time: float


@dataclass
class RunTrace:
    meta: dict
    records: list = field(default_factory=list)


def config_digest(config: dict) -> str:
    """Digest of the canonical JSON form; recorded in every trace header."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TraceWriter:
    """Streams one run's records to a JSONL file, header first.

    Flushes per record so an aborted run leaves a valid partial trace.
    """

    def __init__(self, path, meta: dict):
        self._fh = open(path, "w")
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "kind": "header"}
        header.update(meta)
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")
        self._fh.flush()

    def record(self, rec: IterationRecord) -> None:
        body = {"kind": "iteration"}
        body.update(asdict(rec))
        body["values"] = list(rec.values)
        self._fh.write(json.dumps(body, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_trace(path) -> RunTrace:
    """The trace in the file at ``path``; raises :class:`ValueError` naming
    the file when it is not a trace this reader handles."""
    try:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except ValueError as exc:  # not text, or a line that is not JSON
        raise ValueError(f"{path}: not a trace file ({exc})") from None
    if not lines or not isinstance(lines[0], dict) or lines[0].get("kind") != "header":
        raise ValueError(f"{path}: not a trace file (missing header)")
    header = lines[0]
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"{path}: unknown trace format {header.get('format')!r}")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {header.get('version')!r} "
            f"(this reader handles version {TRACE_VERSION})"
        )
    meta = {k: v for k, v in header.items() if k not in ("format", "version", "kind")}
    names = [f.name for f in fields(IterationRecord)]
    try:
        records = [
            replace(IterationRecord(**{k: rec[k] for k in names}), values=tuple(rec["values"]))
            for rec in lines[1:]
            if isinstance(rec, dict) and rec.get("kind") == "iteration"
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed iteration record ({exc!r})") from None
    return RunTrace(meta=meta, records=records)


# -- the optimization loops ----------------------------------------------------


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))


def _fit_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(13,)))


def _study_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(29,)))


@dataclass(frozen=True)
class _Space:
    """The space one model lives on, and the objective's leaves it covers
    (``leaves[k]`` is this space's leaf k)."""

    spec: TreeSpec
    index: PathIndex
    leaves: tuple

    def point(self, leaf: int, values) -> LinearizedPoint:
        """Linearize an evaluation given by the objective's leaf index."""
        return linearize(self.spec, self.index, self.leaves.index(leaf), values)


def _model_spaces(algorithm: str, spec: TreeSpec, index: PathIndex) -> list[_Space]:
    """The spaces an algorithm models, covering the leaves in leaf order: the
    whole tree for addtree, for independent one chain per leaf (a single-path
    copy of the leaf's subspace), none for random."""
    if algorithm == "addtree":
        return [_Space(spec, index, tuple(range(index.n_leaves)))]
    chains = []
    if algorithm == "independent":
        for leaf, path in enumerate(index.leaf_paths):
            edges = [(parent, 0, child) for parent, child in zip(path, path[1:])]
            chain = make_tree_spec([spec.vertex(vid) for vid in path], edges)
            chains.append(_Space(chain, build_path_index(chain), (leaf,)))
    return chains


class _GpLoop:
    """One GP-UCB loop on one space: its kernel, observations and schedule.

    A refit is a full multi-start (``config.restarts`` starts, drawing from
    ``rng_fit``) on the first refit and whenever the data has at least
    doubled since the last full one (``full_fit_size``); every other refit
    is one L-BFGS-B run from the previous fit, and falls back to a full one
    in the same step if that run fails.
    """

    def __init__(self, space: _Space, config: BoConfig):
        self.space = space
        self.config = config
        self.kernel = config.kernel(space.spec, space.index)
        self.data = gp.Dataset.create([], [], noise=config.noise_variance)
        self.schedule = config.schedule(space.spec.total_dimension)
        self.full_fit_size = 0

    def refit(self, t: int, rng_fit: np.random.Generator) -> None:
        """Refit the kernel to the data under the doubling rule."""
        n = len(self.data)
        args = (self.kernel, self.data, rng_fit, t, self.schedule)
        if n < 2 * self.full_fit_size:
            # a failed warm start is a FactorizationError or whatever the
            # optimizer raised (fit_hyperparameters counts any exception as a
            # failed start); a full fit follows at once
            try:
                self.kernel = self.config.fit(*args, warm=True).kernel
                return
            except Exception as exc:
                logger.warning("t=%d: warm refit failed (%r); running a full refit", t, exc)
        self.kernel = self.config.fit(*args).kernel
        self.full_fit_size = n

    def suggest(self, t: int, rng_fit: np.random.Generator) -> Proposal:
        """Refit (from two points on), condition on -y and maximize the UCB."""
        config = self.config
        if len(self.data) >= 2:
            self.refit(t, rng_fit)
        # minimization runs the UCB machinery on -f
        model = gp.fit(self.kernel, replace(self.data, targets=-self.data.targets))
        return propose(
            model, self.schedule, t,
            n_starts=config.acq_starts, scan_budget=config.acq_scan,
            noise_floor=config.noise_floor,
        )

    def observe(self, leaf: int, values, y: float) -> None:
        """Record an evaluation if it lies in this loop's space."""
        if leaf in self.space.leaves:
            point = self.space.point(leaf, values)
            self.data = self.data.extended(point, y)


def run_bo(
    objective: Objective,
    algorithm: str,
    iterations: int,
    seed: int,
    config: BoConfig | None = None,
    trace_path=None,
) -> RunTrace:
    """Minimize the objective for a fixed budget and return the trace.

    All algorithms draw their initialization phase from the same seed stream,
    so traces with equal seeds are paired across algorithms.  ``addtree`` is
    one GP loop on the whole tree; ``independent`` is one loop per leaf on
    that leaf's chain; ``random`` has no loop.  A loop refits its
    hyperparameters with ``config.restarts`` starts on its first refit and
    whenever its data has at least doubled since its last such fit, and with
    one warm start from the previous fit in between.  A model-based step
    asks every loop for its path scores and takes the best leaf (the lowest
    on ties).
    The loops maximize the confidence bound of the negated objective
    (minimization).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    config = config or BoConfig()

    meta_config = dict(asdict(config))
    meta_config.update(
        objective=objective.name, algorithm=algorithm,
        iterations=iterations, seed=seed,
    )
    # canonical JSON form so an in-memory trace equals its file round trip
    meta_config = json.loads(json.dumps(meta_config))
    meta = {
        "algorithm": algorithm,
        "seed": seed,
        "objective": objective.name,
        "config": meta_config,
        "config_digest": config_digest(meta_config),
    }
    trace = RunTrace(meta=meta)
    writer = TraceWriter(trace_path, meta) if trace_path else None

    spec, index = objective.spec, objective.index
    n_init = config.resolve_n_init(spec)
    rng_init = _init_rng(seed)
    rng_fit = _fit_rng(seed)
    loops = [_GpLoop(space, config) for space in _model_spaces(algorithm, spec, index)]

    best = np.inf
    try:
        for t in range(1, iterations + 1):
            t_start = time.perf_counter()
            beta_value = None

            if not loops or t <= n_init:
                leaf, values = sample_uniform_point(index, rng_init)
            else:
                props = [loop.suggest(t, rng_fit) for loop in loops]
                by_leaf = [prop for loop, prop in zip(loops, props) for _ in loop.space.leaves]
                # first max: the lowest leaf wins ties
                leaf = int(np.argmax(np.concatenate([prop.path_ucb for prop in props])))
                values, beta_value = by_leaf[leaf].values, by_leaf[leaf].beta

            y = _evaluate(objective, leaf, values, t)
            best = min(best, y)
            for loop in loops:
                loop.observe(leaf, values, y)

            rec = IterationRecord(
                t=t,
                leaf=int(leaf),
                values=tuple(float(v) for v in values),
                y=float(y),
                best=float(best),
                beta=None if beta_value is None else float(beta_value),
                wall_time=time.perf_counter() - t_start,
            )
            trace.records.append(rec)
            if writer:
                writer.record(rec)
    finally:
        if writer:
            writer.close()
    return trace


# -- regression study ------------------------------------------------------------


@dataclass(frozen=True)
class RegressionRecord:
    method: str
    n_train: int
    seed: int
    mse: float


def _test_queries(spaces: list[_Space], test) -> list[tuple[_Space, list[int], np.ndarray]]:
    """For each space that covers a test point: the space, the indices of
    the test points it covers, and their stacked linearizations."""
    out = []
    for space in spaces:
        rows = [k for k, (leaf, _) in enumerate(test) if leaf in space.leaves]
        if rows:
            out.append((space, rows, stack_points([space.point(*test[k]) for k in rows])))
    return out


def run_regression_study(
    objective: Objective,
    train_sizes,
    test_size: int = 50,
    seeds=range(10),
    config: BoConfig | None = None,
) -> list[RegressionRecord]:
    """Fit the shared-kernel GP and per-leaf GPs on identical data streams.

    Per seed, one stream of branch-walk samples provides nested training
    prefixes; a held-out set of ``test_size`` points scores mean squared
    error of the posterior-mean predictions.  ``addtree`` fits one GP on the
    whole tree; ``independent`` fits one GP per leaf on that leaf's chain.
    A space without training points predicts the prior mean 0.  Each space's
    test points are linearized and stacked once per seed, and each fitted
    model predicts all of its space's test points in one
    :func:`~treebo.gp.posterior` call.
    """
    if test_size < 1:
        raise ValueError(f"test_size must be >= 1, got {test_size}")
    config = config or BoConfig()
    spec, index = objective.spec, objective.index
    sizes = sorted(set(int(n) for n in train_sizes))
    if not sizes or sizes[0] < 0:
        raise ValueError(f"train_sizes needs one or more sizes >= 0, got {sizes}")
    n_max = sizes[-1]
    records: list[RegressionRecord] = []

    methods = [(m, _model_spaces(m, spec, index)) for m in ("addtree", "independent")]

    for seed in seeds:
        rng = _study_rng(seed)
        rng_fit = _fit_rng(seed)
        test = [sample_branch_walk(index, rng) for _ in range(test_size)]
        train = [sample_branch_walk(index, rng) for _ in range(n_max)]
        y_test = np.array([_evaluate(objective, lf, vals) for lf, vals in test])
        y_train = np.array([_evaluate(objective, lf, vals) for lf, vals in train])
        queries = [(method, _test_queries(spaces, test)) for method, spaces in methods]

        for n in sizes:
            for method, spaces in queries:
                preds = np.zeros(test_size)
                for space, test_rows, Q in spaces:
                    rows = [k for k in range(n) if train[k][0] in space.leaves]
                    if not rows:
                        continue
                    dset = gp.Dataset.create(
                        [space.point(*train[k]) for k in rows],
                        y_train[rows],
                        noise=config.noise_variance,
                    )
                    result = config.fit(config.kernel(space.spec, space.index), dset, rng_fit)
                    preds[test_rows] = gp.posterior(gp.fit(result.kernel, dset), Q)[0]
                mse = float(np.mean((preds - y_test) ** 2))
                records.append(RegressionRecord(method, n, seed, mse))
    return records


def aggregate_regression(records: list[RegressionRecord]) -> dict:
    """Median MSE per (method, n_train)."""
    table: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        table.setdefault((rec.method, rec.n_train), []).append(rec.mse)
    return {key: float(np.median(vals)) for key, vals in sorted(table.items())}


# -- statistics --------------------------------------------------------------------


def wilcoxon_one_sided(a, b) -> float:
    """One-sided signed-rank p-value for the alternative "a exceeds b".

    Zero differences are discarded.  The p-value is
    :func:`scipy.stats.wilcoxon`'s, from the exact null distribution for up to
    25 untied pairs; beyond that (or with tied magnitudes) from the normal
    approximation with tie correction and no continuity correction.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < 5:
        raise ValueError(f"need at least 5 pairs, got {a.size}")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    if diffs.size == 0:
        raise ValueError("all differences are zero; test undefined")
    untied = np.unique(np.abs(diffs)).size == diffs.size
    method = "exact" if diffs.size <= 25 and untied else "asymptotic"
    return float(wilcoxon(diffs, alternative="greater", method=method, correction=False).pvalue)


# -- comparison reports --------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Median incumbents and paired tests at iterations of interest.

    ``p_values[(a, b)][t]`` is the one-sided p for "a is better (lower) than
    b at iteration t" over seed-paired incumbents, or None when the test is
    undefined (all paired differences zero).
    """

    algorithms: list
    seeds: list
    iterations: list
    median_incumbent: dict
    p_values: dict


def build_comparison(traces: list[RunTrace], iterations) -> ComparisonReport:
    """Group traces by algorithm, pair them by seed, and run the tests."""
    by_algo: dict[str, dict[int, RunTrace]] = {}
    for tr in traces:
        by_algo.setdefault(tr.meta["algorithm"], {})[int(tr.meta["seed"])] = tr
    algorithms = sorted(by_algo)
    if len(algorithms) < 2:
        raise ValueError(f"need traces from >= 2 algorithms, got {algorithms}")
    seed_sets = {algo: frozenset(d) for algo, d in by_algo.items()}
    if len(set(seed_sets.values())) != 1:
        raise ValueError(f"seed sets differ across algorithms: {dict(seed_sets)}")
    seeds = sorted(next(iter(seed_sets.values())))
    iterations = [int(t) for t in iterations]

    def incumbent_at(tr: RunTrace, t: int) -> float:
        if t < 1 or t > len(tr.records):
            raise ValueError(
                f"iteration {t} outside trace of length {len(tr.records)}"
            )
        return tr.records[t - 1].best

    median_incumbent: dict = {}
    for algo in algorithms:
        median_incumbent[algo] = {}
        for t in iterations:
            vals = np.array([incumbent_at(by_algo[algo][s], t) for s in seeds])
            median_incumbent[algo][t] = float(np.median(vals))

    p_values: dict = {}
    for a in algorithms:
        for b in algorithms:
            if a == b:
                continue
            p_values[(a, b)] = {}
            for t in iterations:
                av = np.array([incumbent_at(by_algo[a][s], t) for s in seeds])
                bv = np.array([incumbent_at(by_algo[b][s], t) for s in seeds])
                try:
                    # "a better than b" at a minimization task: b - a > 0
                    p = wilcoxon_one_sided(bv, av)
                except ValueError:
                    p = None
                p_values[(a, b)][t] = p
    return ComparisonReport(
        algorithms=algorithms,
        seeds=seeds,
        iterations=iterations,
        median_incumbent=median_incumbent,
        p_values=p_values,
    )


def render_comparison(report: ComparisonReport) -> str:
    """Plain-text table of medians and pairwise one-sided p-values."""
    lines = []
    head = "median incumbent".ljust(24) + "".join(f"t={t}".rjust(14) for t in report.iterations)
    lines.append(head)
    for algo in report.algorithms:
        row = algo.ljust(24)
        row += "".join(
            f"{report.median_incumbent[algo][t]:14.6g}" for t in report.iterations
        )
        lines.append(row)
    lines.append("")
    lines.append("one-sided p (row better than column)")
    for a in report.algorithms:
        for b in report.algorithms:
            if a == b:
                continue
            row = f"{a} > {b}".ljust(24)
            for t in report.iterations:
                p = report.p_values[(a, b)][t]
                row += ("undefined".rjust(14) if p is None else f"{p:14.4g}")
            lines.append(row)
    return "\n".join(lines)
