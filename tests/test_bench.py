import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.optimize import minimize

from treebo import bench, gp
from treebo.bench import (
    BoConfig,
    IterationRecord,
    RunTrace,
    TraceWriter,
    build_comparison,
    config_digest,
    read_trace,
    render_comparison,
    run_bo,
    run_regression_study,
    wilcoxon_one_sided,
)
from treebo.tree_space import linearize


# -- objectives ---------------------------------------------------------------


def test_jenatton_known_values(jenatton):
    assert jenatton(0, [0.0, 0.0]) == pytest.approx(0.1)
    assert jenatton(3, [0.5, 0.5]) == pytest.approx(1.15)
    assert jenatton.known_optimum == 0.1


def test_jenatton_even_in_leaf_variable(jenatton):
    for leaf in range(4):
        for a in (0.2, 0.7):
            assert jenatton(leaf, [0.3, a]) == pytest.approx(jenatton(leaf, [0.3, -a]))


def test_jenatton_never_undershoots_optimum(jenatton):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        leaf, values = bench.sample_uniform_point(jenatton.spec, rng)
        assert jenatton(leaf, values) >= 0.1 - 1e-12


def test_random_tree_objective_depth_one_is_plain_quadratic():
    obj = bench.random_tree_objective(depth=1, fanout=2, dims=2, seed=5)
    assert obj.spec.n_leaves == 1
    # numeric minimization over the box agrees with the closed-form optimum
    bounds = obj.spec.leaf_bounds(0)
    best = np.inf
    for start in np.linspace(0.1, 0.9, 5):
        x0 = [lo + start * (hi - lo) for lo, hi in bounds]
        res = minimize(lambda v: obj(0, v), x0, bounds=bounds)
        best = min(best, res.fun)
    assert best == pytest.approx(obj.known_optimum, abs=1e-8)


def test_random_tree_objective_optimum_matches_per_leaf_minimization():
    obj = bench.random_tree_objective(depth=3, fanout=2, dims=1, seed=9)
    per_leaf = []
    for leaf in range(obj.spec.n_leaves):
        bounds = obj.spec.leaf_bounds(leaf)
        best = np.inf
        for start in np.linspace(0.05, 0.95, 4):
            x0 = [lo + start * (hi - lo) for lo, hi in bounds]
            res = minimize(lambda v: obj(leaf, v), x0, bounds=bounds)
            best = min(best, res.fun)
        per_leaf.append(best)
    assert min(per_leaf) == pytest.approx(obj.known_optimum, abs=1e-7)


def test_random_tree_objective_deterministic():
    a = bench.random_tree_objective(depth=2, fanout=2, dims=1, seed=3)
    b = bench.random_tree_objective(depth=2, fanout=2, dims=1, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        leaf, values = bench.sample_uniform_point(a.spec, rng)
        assert a(leaf, values) == b(leaf, values)
    assert a.known_optimum == b.known_optimum


def test_random_tree_objective_rejects_bad_depth():
    with pytest.raises(ValueError, match="depth"):
        bench.random_tree_objective(depth=0, fanout=2, dims=1, seed=0)


def test_random_tree_objective_rejects_no_children_below_the_root():
    # a depth-3 tree with fanout 0 would be a single vertex
    with pytest.raises(ValueError, match="fanout"):
        bench.random_tree_objective(depth=3, fanout=0, dims=1, seed=0)
    assert bench.random_tree_objective(depth=1, fanout=0, dims=1, seed=0).spec.n_leaves == 1


# -- optimization runs ----------------------------------------------------------


def _assert_trace_valid(trace, objective):
    spec = objective.spec
    prev = np.inf
    for k, rec in enumerate(trace.records, start=1):
        assert rec.t == k
        assert 0 <= rec.leaf < spec.n_leaves
        bounds = spec.leaf_bounds(rec.leaf)
        assert len(rec.values) == len(bounds)
        for v, (lo, hi) in zip(rec.values, bounds):
            assert lo <= v <= hi
        assert rec.best <= prev + 1e-15
        assert rec.best <= rec.y + 1e-15
        prev = rec.best


def test_random_search_trace_invariants(jenatton):
    trace = run_bo(jenatton, "random", iterations=100, seed=0)
    assert len(trace.records) == 100
    _assert_trace_valid(trace, jenatton)
    assert all(rec.beta is None for rec in trace.records)


def test_run_bo_unknown_algorithm(jenatton):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_bo(jenatton, "gradient", iterations=1, seed=0)



def test_negative_seed_is_value_error_before_a_trace_is_written(jenatton, tmp_path):
    # numpy's seed sequences take no negative seed; the run used to open its
    # trace first and leave it behind, open, with a header only
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_bo(jenatton, "addtree", iterations=2, seed=-1, trace_path=path)
    assert not path.exists()
    with pytest.raises(ValueError, match="seed must be >= 0, got -2"):
        run_regression_study(jenatton, [4], test_size=2, seeds=[0, -2])

def test_addtree_replay_is_deterministic(jenatton):
    cfg = BoConfig(n_init=4, restarts=2)
    a = run_bo(jenatton, "addtree", iterations=10, seed=7, config=cfg)
    b = run_bo(jenatton, "addtree", iterations=10, seed=7, config=cfg)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.t == rb.t and ra.leaf == rb.leaf
        assert ra.values == rb.values
        assert ra.y == rb.y and ra.best == rb.best and ra.beta == rb.beta
    _assert_trace_valid(a, jenatton)


def test_initialization_shared_across_algorithms(jenatton):
    cfg = BoConfig(n_init=5, restarts=1)
    tr_rand = run_bo(jenatton, "random", iterations=5, seed=3, config=cfg)
    tr_add = run_bo(jenatton, "addtree", iterations=5, seed=3, config=cfg)
    tr_ind = run_bo(jenatton, "independent", iterations=5, seed=3, config=cfg)
    for k in range(5):
        assert tr_rand.records[k].values == tr_add.records[k].values
        assert tr_rand.records[k].values == tr_ind.records[k].values
        assert tr_rand.records[k].leaf == tr_add.records[k].leaf == tr_ind.records[k].leaf


def test_independent_equals_addtree_on_single_path_space():
    # a chain has one leaf, so per-leaf modelling and shared modelling coincide
    obj = bench.random_tree_objective(depth=2, fanout=1, dims=1, seed=11)
    assert obj.spec.n_leaves == 1
    cfg = BoConfig(n_init=3, restarts=2)
    a = run_bo(obj, "addtree", iterations=8, seed=5, config=cfg)
    b = run_bo(obj, "independent", iterations=8, seed=5, config=cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra.values == rb.values
        assert ra.y == rb.y
        assert ra.beta == rb.beta


def test_addtree_makes_progress_on_jenatton(jenatton):
    cfg = BoConfig(n_init=4, restarts=2)
    trace = run_bo(jenatton, "addtree", iterations=25, seed=1, config=cfg)
    _assert_trace_valid(trace, jenatton)
    assert any(rec.beta is not None for rec in trace.records[4:])
    assert trace.records[-1].best - 0.1 < 0.05


def _spy_fits(monkeypatch, fail_warm_at=()):
    """Record every hyperparameter fit as (loop, n, restarts, drew from rng);
    a one-start fit on a data size in ``fail_warm_at`` raises instead."""
    calls = []
    inner = gp.fit_hyperparameters

    def spy(kernel, data, **kwargs):
        state = kwargs["rng"].bit_generator.state
        calls.append([id(kernel.spec), len(data), kwargs["restarts"], None])
        if kwargs["restarts"] == 1 and len(data) in fail_warm_at:
            raise gp.FactorizationError("forced")
        try:
            return inner(kernel, data, **kwargs)
        finally:
            calls[-1][3] = kwargs["rng"].bit_generator.state != state

    monkeypatch.setattr(gp, "fit_hyperparameters", spy)
    return calls


@pytest.mark.parametrize("algorithm", ["addtree", "independent"])
def test_loop_refits_fully_at_first_and_when_data_doubles(jenatton, monkeypatch, algorithm):
    cfg = BoConfig(restarts=3)
    calls = _spy_fits(monkeypatch)
    trace = run_bo(jenatton, algorithm, iterations=30, seed=2, config=cfg)
    _assert_trace_valid(trace, jenatton)
    full_size = {}  # per loop: the data size at its last full fit
    for loop, n, restarts, drew in calls:
        full = n >= 2 * full_size.get(loop, 0)
        assert restarts == (cfg.restarts if full else 1)
        assert drew == full  # rng_fit is drawn only by full fits
        if full:
            full_size[loop] = n
    kinds = [restarts for _, _, restarts, _ in calls]
    assert kinds.count(1) > kinds.count(cfg.restarts) >= len(full_size)


def test_failed_warm_refit_falls_back_to_a_full_one(jenatton, monkeypatch):
    cfg = BoConfig(restarts=3)
    calls = _spy_fits(monkeypatch, fail_warm_at=(13,))
    trace = run_bo(jenatton, "addtree", iterations=30, seed=2, config=cfg)
    _assert_trace_valid(trace, jenatton)
    assert len(trace.records) == 30
    # the first fit is full at n_init = 10 points; the warm fit that fails
    # at n = 13 is followed by a full one in the same step, which moves the
    # next full fit from n = 20 to n = 26
    sizes = [(n, restarts) for _, n, restarts, _ in calls]
    assert sizes[:5] == [(10, 3), (11, 1), (12, 1), (13, 1), (13, 3)]
    assert [n for n, restarts in sizes if restarts == 3] == [10, 13, 26]


@pytest.mark.parametrize("algorithm", ["addtree", "independent"])
def test_loop_keeps_the_rows_and_negated_values_its_models_read(
    jenatton, monkeypatch, algorithm
):
    # a loop's dataset is the slot rows of the evaluations in its space and
    # their -y, bitwise, and every model the loop fits reads a prefix of it
    loops, fitted = [], []
    init, fit = bench._GpLoop.__init__, gp.fit

    def recorded_init(self, *args):
        init(self, *args)
        loops.append(self)

    def recorded_fit(kernel, data):
        fitted.append((kernel.spec, data))
        return fit(kernel, data)

    monkeypatch.setattr(bench._GpLoop, "__init__", recorded_init)
    monkeypatch.setattr(gp, "fit", recorded_fit)
    trace = run_bo(jenatton, algorithm, iterations=16, seed=3, config=BoConfig(n_init=6))
    # addtree: its one loop; independent: the chain of the last leaf chosen
    loop = next(lp for lp in loops if trace.records[-1].leaf in lp.space.leaves)
    records = [r for r in trace.records if r.leaf in loop.space.leaves]
    assert len(records) >= 2
    space = loop.space
    rows = [
        linearize(space.spec, space.leaves.index(r.leaf), r.values) for r in records
    ]
    assert loop.data.X.shape == (len(records), space.spec.width)
    assert loop.data.X.tobytes() == np.array(rows).tobytes()
    assert loop.data.targets.tobytes() == np.array([-r.y for r in records]).tobytes()
    mine = [data for spec, data in fitted if spec is space.spec]
    assert len(mine) == 16 - 6  # one model a model-based step
    for data in mine:
        n = len(data)
        assert data.X.tobytes() == loop.data.X[:n].tobytes()
        assert data.targets.tobytes() == loop.data.targets[:n].tobytes()


def test_regression_study_fits_with_every_restart(jenatton, monkeypatch):
    calls = _spy_fits(monkeypatch)
    run_regression_study(
        jenatton, train_sizes=[4, 8, 12], test_size=5, seeds=[0], config=BoConfig(restarts=2)
    )
    assert calls and all(restarts == 2 and drew for _, _, restarts, drew in calls)


def test_objective_failure_flushes_partial_trace(tmp_path, jenatton):
    calls = {"n": 0}

    def flaky(leaf, values):
        calls["n"] += 1
        if calls["n"] >= 4:
            raise RuntimeError("evaluation backend died")
        return jenatton.fn(leaf, values)

    broken = bench.Objective(
        name="flaky", spec=jenatton.spec, fn=flaky
    )
    path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError, match="backend died"):
        run_bo(broken, "random", iterations=10, seed=0, trace_path=path)
    partial = read_trace(path)
    assert len(partial.records) == 3  # flushed up to the failing call


def _nan_on_leaf0(jenatton):
    def fn(leaf, values):
        return math.nan if leaf == 0 else jenatton.fn(leaf, values)

    return bench.Objective(name="nan-leaf0", spec=jenatton.spec, fn=fn)


def test_run_bo_rejects_non_finite_objective(tmp_path, jenatton):
    path = tmp_path / "nan.jsonl"
    with pytest.raises(bench.NonFiniteObjectiveError, match=r"nan at t=\d+, leaf 0, values \[") as err:
        run_bo(_nan_on_leaf0(jenatton), "random", iterations=30, seed=0, trace_path=path)
    assert isinstance(err.value, ValueError)
    partial = read_trace(path)
    assert f"t={len(partial.records) + 1}," in str(err.value)
    assert all(math.isfinite(rec.y) for rec in partial.records)


def test_regression_rejects_non_finite_objective(jenatton):
    with pytest.raises(bench.NonFiniteObjectiveError, match=r"nan at leaf 0, values \["):
        run_regression_study(_nan_on_leaf0(jenatton), [4], test_size=8, seeds=[0])


def test_bo_config_rejects_bad_schedule_settings():
    with pytest.raises(ValueError, match="gamma_g and gamma_b"):
        BoConfig(gamma_g=-0.5, gamma_b=0.0).schedule(3)
    with pytest.raises(ValueError, match="delta"):
        BoConfig(delta=1.5).schedule(3)
    for field, value in [
        ("theta0", 0.0), ("theta0", -1.0), ("theta0", math.inf), ("theta0", math.nan),
        ("B0", -1.0), ("B0", math.inf), ("B0", math.nan),
        ("acq_starts", 0), ("acq_scan", 0), ("restarts", 0), ("restarts", -2),
        ("noise_variance", 0.0), ("noise_variance", -1.0), ("noise_variance", math.inf),
        ("noise_variance", math.nan), ("n_init", -3), ("n_init", -1),
        ("kernel_kind", "cubic"),
    ]:
        with pytest.raises(ValueError, match=field):
            BoConfig(**{field: value})
    BoConfig(B0=0.0)  # a zero norm bound is allowed
    BoConfig(noise_variance=1e-300, restarts=1, acq_starts=1, acq_scan=1, n_init=0)


def test_every_bo_config_field_is_read():
    # A field that no code reads is a knob that does nothing.  ``args.<name>``
    # reads the CLI namespace, not the config, so it does not count.
    read = set()
    for path in Path(bench.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "args")
            ):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(BoConfig) if f.name not in read]
    assert unread == []


# -- traces ----------------------------------------------------------------------


def test_trace_round_trip(tmp_path, jenatton):
    trace = run_bo(jenatton, "random", iterations=6, seed=2)
    path = tmp_path / "t.jsonl"
    writer = TraceWriter(path, trace.meta)
    for rec in trace.records:
        writer.record(rec)
    writer.close()
    back = read_trace(path)
    assert back.meta == trace.meta
    assert back.records == trace.records


def test_trace_digest_recomputes(tmp_path, jenatton):
    path = tmp_path / "t.jsonl"
    run_bo(jenatton, "random", iterations=3, seed=9, trace_path=path)
    tr = read_trace(path)
    assert config_digest(tr.meta["config"]) == tr.meta["config_digest"]


def test_read_trace_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"kind": "iteration", "t": 1}\n')
    with pytest.raises(ValueError, match="missing header"):
        read_trace(p)


@pytest.mark.parametrize("version", [2, None])
def test_read_trace_rejects_other_versions(tmp_path, version):
    header = {"format": bench.TRACE_FORMAT, "kind": "header", "algorithm": "random"}
    if version is not None:
        header["version"] = version
    p = tmp_path / "other.jsonl"
    p.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match=f"unsupported trace version {version}"):
        read_trace(p)


# -- regression study -------------------------------------------------------------


def test_regression_prior_case_and_improvement(jenatton):
    cfg = BoConfig(restarts=2)
    records = run_regression_study(
        jenatton, train_sizes=[0, 12], test_size=8, seeds=[0], config=cfg
    )
    by_key = {(r.method, r.n_train): r.mse for r in records}
    # with no data both methods predict the prior mean zero
    rng = bench._study_rng(0)
    test = [bench.sample_branch_walk(jenatton.spec, rng) for _ in range(8)]
    y = np.array([jenatton(lf, v) for lf, v in test])
    assert by_key[("addtree", 0)] == pytest.approx(float(np.mean(y**2)))
    assert by_key[("independent", 0)] == pytest.approx(float(np.mean(y**2)))
    assert by_key[("addtree", 12)] < by_key[("addtree", 0)]


def test_regression_validates_test_size(jenatton):
    with pytest.raises(ValueError, match="test_size"):
        run_regression_study(jenatton, [4], test_size=0, seeds=[0])


@pytest.mark.parametrize("sizes", [[], [-5], [4, -1]])
def test_regression_validates_train_sizes(jenatton, sizes):
    with pytest.raises(ValueError, match="train_sizes"):
        run_regression_study(jenatton, sizes, test_size=3, seeds=[0])


# -- signed-rank test ---------------------------------------------------------------


def test_wilcoxon_full_dominance_ten_pairs():
    a = np.arange(10, dtype=float) + 1.0
    b = a - np.linspace(0.2, 1.1, 10)  # a strictly above b, untied gaps
    assert wilcoxon_one_sided(a, b) == pytest.approx(1.0 / 1024.0, rel=1e-12)


def test_wilcoxon_identical_samples_error():
    a = np.ones(8)
    with pytest.raises(ValueError, match="all differences are zero"):
        wilcoxon_one_sided(a, a)


def test_wilcoxon_minimum_pairs():
    with pytest.raises(ValueError, match="at least 5"):
        wilcoxon_one_sided([1, 2, 3], [0, 0, 0])


def test_wilcoxon_matches_scipy_exact():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(6, 22))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ours = wilcoxon_one_sided(a, b)
        ref = scipy.stats.wilcoxon(a, b, alternative="greater", method="exact").pvalue
        assert ours == pytest.approx(ref, rel=1e-12)


def test_wilcoxon_matches_scipy_approx_for_large_n():
    rng = np.random.default_rng(7)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    ours = wilcoxon_one_sided(a, b)
    ref = scipy.stats.wilcoxon(
        a, b, alternative="greater", method="approx", correction=False
    ).pvalue
    assert ours == pytest.approx(ref, rel=1e-9)


def test_wilcoxon_handles_tied_magnitudes():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])  # all |diffs| equal
    p = wilcoxon_one_sided(a, b)
    assert 0.0 < p < 0.05


# -- comparisons ------------------------------------------------------------------


def _fake_trace(algorithm, seed, bests):
    records = [
        IterationRecord(
            t=k + 1, leaf=0, values=(0.0,), y=b, best=b, beta=None, wall_time=0.0
        )
        for k, b in enumerate(bests)
    ]
    return RunTrace(
        meta={"algorithm": algorithm, "seed": seed, "objective": "fake"},
        records=records,
    )


def test_comparison_dominance_fixture():
    traces = []
    for seed in range(10):
        base = 1.0 + 0.01 * seed
        gap = 0.3 + 0.05 * seed  # untied differences: the exact path applies
        traces.append(_fake_trace("good", seed, [base - gap] * 5))
        traces.append(_fake_trace("bad", seed, [base] * 5))
    report = build_comparison(traces, iterations=[3, 5])
    assert report.p_values[("good", "bad")][3] == pytest.approx(1.0 / 1024.0)
    assert report.p_values[("bad", "good")][3] == pytest.approx(1.0, abs=1e-3)
    text = render_comparison(report)
    assert "good > bad" in text


def test_comparison_self_is_undefined():
    traces = []
    for seed in range(6):
        bests = [1.0 / (seed + k + 1) for k in range(4)]
        traces.append(_fake_trace("a", seed, bests))
        traces.append(_fake_trace("b", seed, list(bests)))
    report = build_comparison(traces, iterations=[4])
    assert report.p_values[("a", "b")][4] is None
    assert "undefined" in render_comparison(report)


def test_comparison_rejects_mismatched_seeds():
    traces = [
        _fake_trace("a", 0, [1.0]),
        _fake_trace("a", 1, [1.0]),
        _fake_trace("b", 0, [1.0]),
        _fake_trace("b", 2, [1.0]),
    ]
    with pytest.raises(ValueError, match="seed sets differ"):
        build_comparison(traces, iterations=[1])


def test_comparison_rejects_single_algorithm():
    with pytest.raises(ValueError, match=">= 2 algorithms"):
        build_comparison([_fake_trace("a", 0, [1.0])], iterations=[1])


def test_comparison_rejects_out_of_range_iteration():
    traces = [_fake_trace("a", 0, [1.0]), _fake_trace("b", 0, [1.0])]
    with pytest.raises(ValueError, match="outside trace"):
        build_comparison(traces, iterations=[2])
