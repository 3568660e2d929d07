import dataclasses
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
    np.testing.assert_allclose(model.K + np.diag(data.noise), [[2.0]])
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
    K_y = model.K + np.diag(data.noise) + model.jitter * np.eye(20)
    err = np.linalg.norm(model.chol @ model.chol.T - K_y) / np.linalg.norm(K_y)
    assert err < 1e-8
    np.testing.assert_array_equal(model.K_inv, model.K_inv.T)
    np.testing.assert_allclose(model.K_inv @ K_y, np.eye(20), atol=1e-8)


def test_dataset_validation():
    spec, index = chain_space((1,))
    p = linearize(spec, index, 0, [0.0])
    with pytest.raises(ValueError, match="targets"):
        gp.Dataset.create([p], [1.0, 2.0])
    with pytest.raises(ValueError, match="noise"):
        gp.Dataset.create([p], [1.0], noise=-1.0)


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
        K_y = kern.gram_matrix(X) + np.diag(data.noise)
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
    with pytest.raises(ValueError, match="expects 2-dim values, got 1"):
        gp.component_posterior_batch(model, "root", np.zeros((1, 1)))


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
                    seed, n=10, noise=1e-2, zero_dim=zero_dim, max_dim=3
                )
                scale = kern.params[index.bfs_order[0]].output_scale
                kern = dataclasses.replace(kern, tied_scales=tied, params={
                    vid: dataclasses.replace(
                        p, kind=kind, output_scale=scale if tied else p.output_scale
                    )
                    for vid, p in kern.params.items()
                })
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


def evidence(kern, data, fit_noise=False, log_noise=None):
    """The fitting objective's log evidence and gradient at the kernel's own
    log parameters (and ``log_noise`` when the noise is fitted)."""
    vec = kern.get_log_params()
    if fit_noise:
        vec = np.append(vec, log_noise)
    neg_lml, neg_grad = gp._negative_evidence(kern, data, fit_noise)(vec)
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
    K_y = gp.fit(kern, data).K + np.diag(data.noise)
    expected = -0.5 * np.linalg.slogdet(K_y)[1] - 4 * math.log(2 * math.pi)
    assert evidence(kern, data)[0] == pytest.approx(expected, rel=1e-10)


def test_lml_gradient_matches_finite_differences():
    # the objective's gradient against central differences, step 1e-5 in
    # log-parameter space, of the dense evidence of gp.fit's matrices
    for seed in range(20):
        spec, index, kern, data = random_gp_instance(seed, n=8, noise=1e-2)
        s2 = data.noise[0]
        lml, grad = evidence(kern, data, fit_noise=True, log_noise=math.log(s2))
        assert lml == pytest.approx(oracles.log_evidence(gp.fit(kern, data)), rel=1e-10)
        vec = kern.get_log_params()
        h = 1e-5
        fd = np.zeros(len(vec) + 1)
        for k in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[k] += h
            dn[k] -= h
            lml_up = oracles.log_evidence(gp.fit(kern.with_log_params(up), data))
            lml_dn = oracles.log_evidence(gp.fit(kern.with_log_params(dn), data))
            fd[k] = (lml_up - lml_dn) / (2 * h)
        for sgn in (1, -1):
            noisy = gp.Dataset(
                points=data.points,
                targets=data.targets,
                noise=np.full(len(data), s2 * math.exp(sgn * h)),
            )
            val = oracles.log_evidence(gp.fit(kern, noisy))
            fd[-1] += sgn * val / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / scale) < 1e-5


def test_fitting_objective_gradient_matches_finite_differences():
    # the L-BFGS objective with a fitted noise variance (last entry), on
    # random trees with per-vertex and with tied output scales
    for seed in range(8):
        _, _, kern, data = random_gp_instance(seed, n=10, zero_dim=("constant", "zero")[seed % 2])
        kern = dataclasses.replace(kern, tied_scales=seed % 4 >= 2)
        objective = gp._negative_evidence(kern, data, fit_noise=True)
        vec = np.append(kern.get_log_params(), math.log(1e-2))
        value, grad = objective(vec)
        model = gp.fit(kern.with_log_params(vec[:-1]), gp.Dataset.create(
            data.points, data.targets, noise=1e-2))
        assert value == pytest.approx(-oracles.log_evidence(model), rel=1e-10)
        h = 1e-5
        fd = np.zeros_like(vec)
        for k in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (objective(up)[0] - objective(dn)[0]) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / scale) < 1e-5


def test_fit_hyperparameters_raises_when_every_restart_fails(jenatton):
    # three identical points and zero noise: no hyperparameters factorize
    p = linearize(jenatton.spec, jenatton.index, 0, [0.3, 0.7])
    data = gp.Dataset.create([p, p, p], [1.0, 1.0, 1.0], noise=0.0)
    kern = bench.BoConfig().kernel(jenatton.spec, jenatton.index)
    with pytest.raises(gp.FactorizationError, match="all 3 restarts"):
        gp.fit_hyperparameters(kern, data, restarts=3, rng=np.random.default_rng(0))


def test_fit_hyperparameters_builds_one_kernel(jenatton, monkeypatch):
    # evidence evaluations read the optimizer's log vector directly; only
    # the winning vector becomes a kernel
    calls = {"with_log_params": 0, "gram_and_grads": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(AddTreeKernel, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(AddTreeKernel, name, counted)
    rng = np.random.default_rng(3)
    pts = random_points(jenatton.spec, jenatton.index, rng, 12)
    data = gp.Dataset.create(pts, rng.normal(size=12), noise=1e-2)
    kern = bench.BoConfig().kernel(jenatton.spec, jenatton.index)
    result = gp.fit_hyperparameters(kern, data, restarts=4, rng=rng)
    assert len(result.restart_evidences) == 4
    assert calls["gram_and_grads"] > 4
    assert calls["with_log_params"] == 1


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
        errors.append(result.kernel.params["c0"].lengthscales[0] / true_ls)
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


def test_lengthscale_cap_min_rule():
    spec, index = chain_space((1,))
    kern = AddTreeKernel.default(spec, index, lengthscale=0.8)
    # schedule: g(t) = 2, theta0 = 1 -> cap 0.5; min(0.8, 0.5) = 0.5
    capped = gp.apply_lengthscale_cap(kern, 0.5)
    assert capped.params["c0"].lengthscales == (0.5,)
    # a MAP value below the cap is untouched
    small = AddTreeKernel.default(spec, index, lengthscale=0.3)
    assert gp.apply_lengthscale_cap(small, 0.5).params["c0"].lengthscales == (0.3,)


def test_fitted_noise_replaces_dataset_noise():
    spec, index = chain_space((1,))
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=60)
    pts = [linearize(spec, index, 0, [x]) for x in X]
    y = np.sin(2 * X) + 0.1 * rng.normal(size=60)
    kern = AddTreeKernel.default(spec, index, lengthscale=0.5)
    result = gp.fit_hyperparameters(
        kern, gp.Dataset.create(pts, y, noise=1.0), restarts=3, rng=rng, fit_noise=True
    )
    assert result.noise_variance is not None
    assert 1e-4 < result.noise_variance < 0.1  # near the generating 0.01
