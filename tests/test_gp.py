import math

import numpy as np
import pytest
from scipy.linalg import cho_solve

import oracles
from conftest import random_gp_instance, random_kernel, random_points
from oracles import restrict
from treebo import bench, gp
from treebo.kernels import AddTreeKernel, stack_points
from treebo.tree_space import VertexSpec, build_path_index, linearize, make_tree_spec


def chain_space(dims=(1, 1)):
    vertices = [
        VertexSpec(f"c{i}", d, tuple([(-2.0, 2.0)] * d)) for i, d in enumerate(dims)
    ]
    edges = [(f"c{i}", 0, f"c{i + 1}") for i in range(len(dims) - 1)]
    spec = make_tree_spec(vertices, edges)
    return spec, build_path_index(spec)


def test_fit_single_observation_closed_form():
    spec, index = chain_space((1, 1))
    kern = AddTreeKernel.default(spec, index)
    p = linearize(spec, index, 0, [0.5, -0.5])
    data = gp.Dataset.create([p], [3.0], noise=0.0)
    model = gp.fit(kern, data)
    np.testing.assert_allclose(model.K + data.noise, [[2.0]])
    np.testing.assert_allclose(model.alpha, [1.5])
    assert model.jitter == 0.0


def test_fit_duplicates_with_zero_noise_escalates_jitter():
    spec, index = chain_space((1,))
    kern = AddTreeKernel.default(spec, index)
    p = linearize(spec, index, 0, [0.5])
    q = linearize(spec, index, 0, [0.5])
    data = gp.Dataset.create([p, q], [1.0, 1.0], noise=0.0)
    model = gp.fit(kern, data)  # succeeds via jitter, or raises explicitly
    assert model.jitter > 0.0


def test_fit_factorization_reconstructs(jenatton):
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(2)
    kern = random_kernel(spec, index, rng)
    pts = random_points(spec, index, rng, 20)
    data = gp.Dataset.create(pts, rng.normal(size=20), noise=1e-6)
    model = gp.fit(kern, data)
    K_y = model.K + (data.noise + model.jitter) * np.eye(20)
    err = np.linalg.norm(model.chol @ model.chol.T - K_y) / np.linalg.norm(K_y)
    assert err < 1e-8
    np.testing.assert_array_equal(model.K_inv, model.K_inv.T)
    np.testing.assert_allclose(model.K_inv @ K_y, np.eye(20), atol=1e-8)


def test_dataset_validation():
    spec, index = chain_space((1,))
    p = linearize(spec, index, 0, [0.0])
    with pytest.raises(ValueError, match="targets"):
        gp.Dataset.create([p], [1.0, 2.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target 1 is not finite"):
            gp.Dataset.create([p, p, p], [0.0, bad, bad])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise"):
            gp.Dataset.create([p], [1.0], noise=bad)


def test_posterior_interpolates_noiseless(jenatton):
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(4)
    kern = AddTreeKernel.default(spec, index)
    pts = random_points(spec, index, rng, 10)
    y = np.array([jenatton(p.active_leaf, np.concatenate(
        [restrict(index, p, v) for v in index.leaf_paths[p.active_leaf]]
    )) for p in pts])
    model = gp.fit(kern, gp.Dataset.create(pts, y, noise=0.0))
    for p, target in zip(pts, y):
        mean, var = gp.posterior(model, p)
        assert abs(mean - target) < 1e-6
        assert var <= 1e-6


def test_posterior_prior_with_no_data(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, output_scale=1.3)
    model = gp.fit(kern, gp.Dataset.create([], []))
    q = linearize(spec, index, 0, [0, 0, 0, 0])
    mean, var = gp.posterior(model, q)
    assert mean == 0.0
    assert var == pytest.approx(2.6, rel=1e-12)


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_posterior_matches_dense_solve(zero_dim):
    # oracle: the textbook equations with dense solves against K + noise
    for seed in range(12):
        spec, index, kern, data = random_gp_instance(seed, n=14, zero_dim=zero_dim)
        model = gp.fit(kern, data)
        X = np.stack([p.slots for p in data.points])
        K_y = kern.gram_matrix(X) + data.noise * np.eye(len(data))
        rng = np.random.default_rng(1000 + seed)
        for q in random_points(spec, index, rng, 5):
            k = kern.gram_matrix(q.slots[None, :], X)[0]
            mean_o = float(k @ np.linalg.solve(K_y, data.targets))
            var_o = float(kern.diag(q.slots[None, :])[0] - k @ np.linalg.solve(K_y, k))
            mean, var = gp.posterior(model, q)
            assert abs(mean - mean_o) < 1e-10
            assert abs(var - max(var_o, 0.0)) < 1e-10


def test_zero_policy_unshared_query_gets_prior():
    # bare root, two 1-dim branches; data only on branch 1, query on branch 0
    spec = make_tree_spec(
        [
            VertexSpec("r", 0, ()),
            VertexSpec("a", 1, ((-1.0, 1.0),)),
            VertexSpec("b", 1, ((-1.0, 1.0),)),
        ],
        [("r", 0, "a"), ("r", 1, "b")],
    )
    index = build_path_index(spec)
    kern = AddTreeKernel.default(spec, index, output_scale=0.7, zero_dim="zero")
    pts = [linearize(spec, index, 1, [x]) for x in (-0.5, 0.1, 0.8)]
    model = gp.fit(kern, gp.Dataset.create(pts, [1.0, 2.0, 3.0], noise=1e-6))
    q = linearize(spec, index, 0, [0.3])
    mean, var = gp.posterior(model, q)
    assert mean == 0.0
    assert var == pytest.approx(0.7, rel=1e-12)  # summed contributing scales
    # under the constant policy the same query is informed through the root
    kern_c = AddTreeKernel.default(spec, index, output_scale=0.7, zero_dim="constant")
    model_c = gp.fit(kern_c, gp.Dataset.create(pts, [1.0, 2.0, 3.0], noise=1e-6))
    mean_c, _ = gp.posterior(model_c, q)
    assert mean_c != 0.0


def test_component_posterior_prior_cases(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, output_scale=0.9)
    empty = gp.fit(kern, gp.Dataset.create([], []))
    mean, var = gp.component_posterior_batch(empty, "root", np.zeros((1, 2)))
    assert (mean[0], var[0]) == (0.0, pytest.approx(0.9))

    # vertex absent from every training path: all-zero cross covariance
    rng = np.random.default_rng(8)
    pts = [linearize(spec, index, 0, rng.uniform(-1, 1, size=4)) for _ in range(6)]
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=6), noise=1e-6))
    mean, var = gp.component_posterior_batch(model, "right", np.array([[0.1, 0.2, 0.3]]))
    assert mean[0] == 0.0
    assert var[0] == pytest.approx(0.9, rel=1e-12)


def test_component_posterior_errors(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    p = linearize(spec, index, 0, [0.0, 0.0, 0.0, 0.0])
    model = gp.fit(kern, gp.Dataset.create([p], [1.0], noise=1e-6))
    with pytest.raises(KeyError, match="ghost"):
        gp.component_posterior_batch(model, "ghost", np.zeros((1, 1)))
    empty = gp.fit(kern, gp.Dataset.create([], []))
    for m in (model, empty):
        for with_grad in (False, True):
            with pytest.raises(ValueError, match="expects 2-dim values, got 1"):
                gp.component_posterior_batch(m, "root", np.zeros((1, 1)), with_grad=with_grad)


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_component_means_add_to_posterior_mean(zero_dim):
    for seed in range(10):
        spec, index, kern, data = random_gp_instance(seed, n=12, zero_dim=zero_dim)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(2000 + seed)
        for q in random_points(spec, index, rng, 5):
            total = 0.0
            for vid in index.leaf_paths[q.active_leaf]:
                means, _ = gp.component_posterior_batch(model, vid, restrict(index, q, vid))
                total += means[0]
            mean, _ = gp.posterior(model, q)
            assert abs(total - mean) < 1e-8


def _central_differences(model, vid, V, h=1e-5):
    """Central differences of a vertex's component means and variances,
    each (m, dim)."""
    d_mean, d_var = np.zeros(V.shape), np.zeros(V.shape)
    for d in range(V.shape[1]):
        step = np.zeros(V.shape)
        step[:, d] = h
        m_up, v_up = gp.component_posterior_batch(model, vid, V + step)
        m_dn, v_dn = gp.component_posterior_batch(model, vid, V - step)
        d_mean[:, d] = (m_up - m_dn) / (2 * h)
        d_var[:, d] = (v_up - v_dn) / (2 * h)
    return d_mean, d_var


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_component_posterior_gradients_match_finite_differences(kind):
    # random trees with up to 3-dim vertices, both zero-dim policies, per-vertex
    # and tied output scales; the queries include one training row's values
    # (r = 0 against that row)
    checked = 0
    for seed in range(6):
        for zero_dim in ("constant", "zero"):
            for tied in (False, True):
                spec, index, kern, data = random_gp_instance(
                    seed, n=10, noise=1e-2, max_dim=3,
                    kind=kind, zero_dim=zero_dim, tied_scales=tied,
                )
                model = gp.fit(kern, data)
                rng = np.random.default_rng(100 + seed)
                for v in spec.vertices:
                    if v.dim == 0:
                        continue
                    lo, hi = np.array(v.bounds).T
                    V = rng.uniform(lo, hi, size=(3, v.dim))
                    on_path = [p for p in data.points if p.slots[index.offsets[v.id][0]] >= 0]
                    if on_path:
                        V = np.vstack([V, restrict(index, on_path[0], v.id)])
                    mean, var, d_mean, d_var = gp.component_posterior_batch(
                        model, v.id, V, with_grad=True
                    )
                    plain_mean, plain_var = gp.component_posterior_batch(model, v.id, V)
                    np.testing.assert_array_equal(mean, plain_mean)
                    np.testing.assert_array_equal(var, plain_var)
                    assert np.all(var > 0)
                    fd_mean, fd_var = _central_differences(model, v.id, V)
                    np.testing.assert_allclose(d_mean, fd_mean, rtol=1e-6, atol=1e-7)
                    np.testing.assert_allclose(d_var, fd_var, rtol=1e-6, atol=1e-7)
                    checked += 1
    assert checked > 50


def test_component_posterior_gradient_is_zero_where_variance_is_clamped():
    # Noiseless observations queried at one of their values: the variance is
    # 0 up to round-off, which makes it negative for some output scales.
    # There the unmasked variance derivative is round-off too, not 0.
    spec, index = chain_space((1,))
    pts = [linearize(spec, index, 0, [x]) for x in (0.3, 1.0)]
    V = np.array([[0.3], [1.5]])  # an observed value, and a far query
    clamped = 0
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, index, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5], noise=0.0))
        mean, var, d_mean, d_var = gp.component_posterior_batch(model, "c0", V, with_grad=True)
        if model.clamp_count == 0:
            continue
        clamped += 1
        assert model.clamp_count == 1 and var[0] == 0.0 and d_var[0, 0] == 0.0
        fd_mean, fd_var = _central_differences(model, "c0", V)
        np.testing.assert_allclose(d_mean, fd_mean, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-6, atol=1e-7)
        assert d_var[1, 0] != 0.0
    assert clamped > 0


def _stack_matches_reference(model, vertex_ids, V):
    """Compare the stacked evaluator on ``V`` (k, q, dim) with
    component_posterior_batch vertex by vertex; the stacked call must leave
    the clamp count alone."""
    stack = gp.component_stack(model, vertex_ids)
    clamps = model.clamp_count
    stacked = gp.stacked_component_posterior(stack, V)
    assert model.clamp_count == clamps
    for k, vid in enumerate(vertex_ids):
        reference = gp.component_posterior_batch(model, vid, V[k], with_grad=True)
        for got, want in zip(stacked, reference):
            np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-12)


def test_stacked_component_posterior_matches_reference():
    # random trees with up to 3-dim vertices, every kind, both zero-dim
    # policies, per-vertex and tied scales; every dimension's vertices are
    # stacked together, with queries drawn in their boxes plus one
    # training row's values (r = 0 against that row)
    empty_rows = 0
    for seed in range(6):
        for kind in ("se", "matern32", "matern52"):
            for zero_dim in ("constant", "zero"):
                for tied in (False, True):
                    spec, index, kern, data = random_gp_instance(
                        seed, n=10, noise=1e-2, max_dim=3,
                        kind=kind, zero_dim=zero_dim, tied_scales=tied,
                    )
                    # all the data, and only the first point's leaf's (which
                    # leaves R_v empty for every vertex off that leaf's path)
                    leaf = data.points[0].active_leaf
                    one_leaf = [i for i, p in enumerate(data.points) if p.active_leaf == leaf]
                    for points, targets in [
                        (data.points, data.targets),
                        ([data.points[i] for i in one_leaf], data.targets[one_leaf]),
                    ]:
                        model = gp.fit(kern, gp.Dataset.create(points, targets, noise=1e-2))
                        rng = np.random.default_rng(300 + seed)
                        by_dim = {}
                        for v in spec.vertices:
                            if v.dim:
                                by_dim.setdefault(v.dim, []).append(v)
                        for dim, vertices in by_dim.items():
                            V = []
                            for v in vertices:
                                lo, hi = np.array(v.bounds).T
                                rows = rng.uniform(lo, hi, size=(4, dim))
                                on_path = [p for p in points if oracles.on_path(index, v.id, p)]
                                if on_path:
                                    rows[0] = restrict(index, on_path[0], v.id)
                                else:
                                    empty_rows += 1
                                V.append(rows)
                            _stack_matches_reference(model, [v.id for v in vertices], np.array(V))
    assert empty_rows > 0

    # the empty model: every vertex at its prior
    spec, index, kern, _ = random_gp_instance(0, max_dim=2)
    empty = gp.fit(kern, gp.Dataset.create([], []))
    vertices = [v for v in spec.vertices if v.dim == 2]
    V = np.random.default_rng(1).uniform(-1, 1, size=(len(vertices), 3, 2))
    _stack_matches_reference(empty, [v.id for v in vertices], V)


def test_stacked_component_posterior_clamps_without_counting():
    # the set-up of the clamped-gradient test above: an observed value of a
    # noiseless model, where the reference clamps a negative variance
    spec, index = chain_space((1,))
    pts = [linearize(spec, index, 0, [x]) for x in (0.3, 1.0)]
    V = np.array([[[0.3], [1.5]]])
    clamped = 0
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, index, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5], noise=0.0))
        _stack_matches_reference(model, ["c0"], V)
        clamped += model.clamp_count > 0
    assert clamped > 0


def test_component_stack_needs_one_positive_dimension(two_leaf, jenatton):
    for (spec, index), vertex_ids in [
        (two_leaf, ["root", "right"]),  # dims 2 and 3
        ((jenatton.spec, jenatton.index), ["root"]),  # dim 0
        ((jenatton.spec, jenatton.index), ["root", "n0"]),
    ]:
        model = gp.fit(AddTreeKernel.default(spec, index), gp.Dataset.create([], []))
        with pytest.raises(ValueError, match="one dimension >= 1"):
            gp.component_stack(model, vertex_ids)


def test_posterior_variance_shrinks_with_data(jenatton):
    spec, index = jenatton.spec, jenatton.index
    kern = AddTreeKernel.default(spec, index)
    rng = np.random.default_rng(12)
    pts = random_points(spec, index, rng, 15)
    y = rng.normal(size=15)
    q = linearize(spec, index, 0, [0.5, 0.5])
    prev = np.inf
    for n in (1, 3, 7, 15):
        model = gp.fit(kern, gp.Dataset.create(pts[:n], y[:n], noise=1e-4))
        _, var = gp.posterior(model, q)
        assert var <= prev + 1e-12
        prev = var


def evidence(kern, data):
    """The fitting objective's log evidence and gradient at the kernel's own
    log parameters."""
    neg_lml, neg_grad = gp._negative_evidence(kern, data)(kern.get_log_params())
    return -neg_lml, -neg_grad


def test_lml_standard_normal_evidence():
    spec, index = chain_space((1,))
    kern = AddTreeKernel.default(spec, index)  # k(x,x) = 1 on a single vertex
    p = linearize(spec, index, 0, [0.0])
    lml, _ = evidence(kern, gp.Dataset.create([p], [0.0], noise=0.0))
    assert lml == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)


def test_lml_zero_targets_drop_quadratic_term():
    spec, index, kern, data = random_gp_instance(3, n=8)
    data = gp.Dataset(points=data.points, targets=np.zeros(8), noise=data.noise)
    K_y = gp.fit(kern, data).K + data.noise * np.eye(8)
    expected = -0.5 * np.linalg.slogdet(K_y)[1] - 4 * math.log(2 * math.pi)
    assert evidence(kern, data)[0] == pytest.approx(expected, rel=1e-10)


def test_lml_gradient_matches_finite_differences():
    # the objective's gradient against central differences, step 1e-5 in
    # log-parameter space, of the dense evidence of gp.fit's matrices
    for seed in range(20):
        spec, index, kern, data = random_gp_instance(seed, n=8, noise=1e-2)
        lml, grad = evidence(kern, data)
        assert lml == pytest.approx(oracles.log_evidence(gp.fit(kern, data)), rel=1e-10)
        vec = kern.get_log_params()
        h = 1e-5
        fd = np.zeros(len(vec))
        for k in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[k] += h
            dn[k] -= h
            lml_up = oracles.log_evidence(gp.fit(kern.with_log_params(up), data))
            lml_dn = oracles.log_evidence(gp.fit(kern.with_log_params(dn), data))
            fd[k] = (lml_up - lml_dn) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.all(np.abs(grad - fd) / scale < 1e-5)


def test_fitting_objective_gradient_matches_finite_differences():
    # the L-BFGS objective on random trees with per-vertex and with tied
    # output scales; a tree whose layout is empty checks the value alone
    for seed in range(8):
        _, _, kern, data = random_gp_instance(
            seed, n=10, noise=1e-2,
            zero_dim=("constant", "zero")[seed % 2], tied_scales=seed % 4 >= 2,
        )
        objective = gp._negative_evidence(kern, data)
        vec = kern.get_log_params()
        value, grad = objective(vec)
        model = gp.fit(kern.with_log_params(vec), data)
        assert value == pytest.approx(-oracles.log_evidence(model), rel=1e-10)
        h = 1e-5
        fd = np.zeros_like(vec)
        for k in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (objective(up)[0] - objective(dn)[0]) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.all(np.abs(grad - fd) / scale < 1e-5)


def test_fit_hyperparameters_raises_when_every_restart_fails(jenatton):
    # three identical points and zero noise: no hyperparameters factorize
    p = linearize(jenatton.spec, jenatton.index, 0, [0.3, 0.7])
    data = gp.Dataset.create([p, p, p], [1.0, 1.0, 1.0], noise=0.0)
    kern = bench.BoConfig().kernel(jenatton.spec, jenatton.index)
    with pytest.raises(gp.FactorizationError, match="all 3 restarts"):
        gp.fit_hyperparameters(kern, data, restarts=3, rng=np.random.default_rng(0))


def test_fit_hyperparameters_builds_one_kernel(jenatton, monkeypatch):
    # evidence evaluations read the optimizer's log vector directly; only
    # the winning vector becomes a kernel (every kernel runs __post_init__)
    calls = {"__post_init__": 0, "gram_and_grads": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(AddTreeKernel, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(AddTreeKernel, name, counted)
    rng = np.random.default_rng(3)
    pts = random_points(jenatton.spec, jenatton.index, rng, 12)
    data = gp.Dataset.create(pts, rng.normal(size=12), noise=1e-2)
    kern = bench.BoConfig().kernel(jenatton.spec, jenatton.index)
    calls["__post_init__"] = 0
    result = gp.fit_hyperparameters(kern, data, restarts=4, rng=rng)
    assert len(result.restart_evidences) == 4
    assert calls["gram_and_grads"] > 4
    assert calls["__post_init__"] == 1


def test_solve_lower_keeps_cho_solve_checks():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 6))
    L = np.linalg.cholesky(A @ A.T + 6.0 * np.eye(6))
    b = rng.normal(size=6)
    np.testing.assert_array_equal(gp._solve_lower(L, b), cho_solve((L, True), b))
    bad_L = L.copy()
    bad_L[3, 1] = np.nan
    bad_b = b.copy()
    bad_b[2] = np.nan
    for args in ((bad_L, b), (L, bad_b)):
        with pytest.raises(ValueError):
            gp._solve_lower(*args)
        with pytest.raises(ValueError):
            cho_solve((args[0], True), args[1])


def test_fit_hyperparameters_recovers_lengthscale():
    # data drawn from a known single-vertex SE kernel; median recovery +-30%
    spec, index = chain_space((1,))
    true_ls = 0.5
    errors = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=200)
        pts = [linearize(spec, index, 0, [x]) for x in X]
        true = AddTreeKernel.default(spec, index, lengthscale=true_ls)
        K = true.gram_matrix(stack_points(pts)) + 1e-6 * np.eye(200)
        y = np.linalg.cholesky(K) @ rng.normal(size=200)
        data = gp.Dataset.create(pts, y, noise=1e-6)
        start = AddTreeKernel.default(spec, index, lengthscale=1.0)
        result = gp.fit_hyperparameters(start, data, restarts=2, rng=rng)
        errors.append(result.kernel.to_config()["params"]["c0"]["lengthscales"][0] / true_ls)
    median_ratio = float(np.median(errors))
    assert 0.7 <= median_ratio <= 1.3


def test_fit_hyperparameters_never_worse_than_start():
    spec, index, kern, data = random_gp_instance(5, n=10, noise=1e-2)
    start_lml = oracles.log_evidence(gp.fit(kern, data))
    result = gp.fit_hyperparameters(kern, data, restarts=1)
    assert result.log_evidence >= start_lml - 1e-9


def test_fit_hyperparameters_requires_data(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    with pytest.raises(ValueError, match="at least one observation"):
        gp.fit_hyperparameters(kern, gp.Dataset.create([], []))
    with pytest.raises(ValueError, match="restarts"):
        gp.fit_hyperparameters(kern, gp.Dataset.create([], []), restarts=0)


def test_fit_hyperparameters_with_nothing_to_fit(monkeypatch):
    # zero_dim="zero" on a chain of dim-0 vertices leaves no hyperparameter:
    # the kernel comes back as it is, with its evidence, and no optimizer runs
    spec, index = chain_space((0, 0))
    kern = AddTreeKernel.default(spec, index, zero_dim="zero")
    assert kern.theta == ()
    data = gp.Dataset.create([linearize(spec, index, 0, [])] * 2, [0.4, -0.2], noise=0.1)
    def no_minimize(*args, **kwargs):
        raise AssertionError("minimize ran")

    monkeypatch.setattr(gp, "minimize", no_minimize)
    result = gp.fit_hyperparameters(kern, data, restarts=3, lengthscale_cap=0.5)
    assert result.kernel == kern
    expected = oracles.log_evidence(gp.fit(kern, data))
    assert result.log_evidence == pytest.approx(expected, rel=1e-12)
    assert result.restart_evidences == [result.log_evidence]
    with pytest.raises(gp.FactorizationError, match="no hyperparameters"):
        gp.fit_hyperparameters(kern, gp.Dataset.create(data.points, data.targets, noise=0.0))


def test_lengthscale_cap_min_rule():
    # schedule: g(t) = 2, theta0 = 1 -> cap 0.5.  c0 follows sin(8 x) and
    # fits below the cap; c1 is nearly linear and fits above it.  The capped
    # fit is the uncapped one with min(ls, 0.5) per lengthscale, bitwise.
    spec, index = chain_space((1, 1))
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(30, 2))
    pts = [linearize(spec, index, 0, x) for x in X]
    data = gp.Dataset.create(pts, np.sin(8 * X[:, 0]) + 0.2 * X[:, 1], noise=1e-4)
    kern = AddTreeKernel.default(spec, index)
    free, capped = (
        gp.fit_hyperparameters(
            kern, data, restarts=2, rng=np.random.default_rng(1), lengthscale_cap=cap
        ).kernel.theta
        for cap in (None, 0.5)
    )
    assert kern.param_names() == ["c0::ls0", "c0::scale", "c1::ls0", "c1::scale"]
    assert free[0] < 0.5 < free[2]
    assert capped == (free[0], free[1], 0.5, free[3])
