import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.optimize import minimize

import oracles
from conftest import random_gp_instance, random_kernel, random_points
from oracles import random_tree_spec, restrict
from treebo import acquisition, bench, gp
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
    means, variances = gp.posterior(model, stack_points(pts))
    assert np.all(np.abs(means - y) < 1e-6)
    assert np.all(variances <= 1e-6)


def test_posterior_prior_with_no_data(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, output_scale=1.3)
    model = gp.fit(kern, gp.Dataset.create([], []))
    q = linearize(spec, index, 0, [0, 0, 0, 0])
    mean, var = gp.posterior(model, q.slots[None, :])
    assert mean[0] == 0.0
    assert var[0] == pytest.approx(2.6, rel=1e-12)
    # several rows on both leaves: means 0, variances k(x, x)
    Q = stack_points(random_points(spec, index, np.random.default_rng(3), 6))
    means, variances = gp.posterior(model, Q)
    np.testing.assert_array_equal(means, np.zeros(6))
    np.testing.assert_array_equal(variances, kern.diag(Q))
    assert model.clamp_count == 0


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_posterior_matches_dense_solve(zero_dim):
    # oracle: the textbook equations with dense solves against K + noise
    for seed in range(12):
        spec, index, kern, data = random_gp_instance(seed, n=14, zero_dim=zero_dim)
        model = gp.fit(kern, data)
        X = np.stack([p.slots for p in data.points])
        K_y = kern.gram_matrix(X) + data.noise * np.eye(len(data))
        rng = np.random.default_rng(1000 + seed)
        Q = stack_points(random_points(spec, index, rng, 5))
        k = kern.gram_matrix(Q, X)
        mean_o = k @ np.linalg.solve(K_y, data.targets)
        var_o = kern.diag(Q) - np.einsum("ij,ji->i", k, np.linalg.solve(K_y, k.T))
        means, variances = gp.posterior(model, Q)
        np.testing.assert_allclose(means, mean_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(variances, np.maximum(var_o, 0.0), rtol=0, atol=1e-10)


def test_posterior_variance_from_cholesky_factor():
    # A noiseless Gram with cond 6e16 that factors without jitter.  On it
    # k(x, x) - c^T K_y^{-1} c is wrong by up to the whole prior; the
    # Cholesky form k(x, x) - ||L^{-1} c||^2 is 0 at the training points,
    # as a noiseless posterior must be, and matches the textbook form on
    # an independently computed factor elsewhere.
    spec, index, kern, data = random_gp_instance(117, n=20, noise=0.0)
    model = gp.fit(kern, data)
    assert model.jitter == 0.0
    rng = np.random.default_rng(5)
    Q = stack_points(data.points + random_points(spec, index, rng, 50))
    k_diag = kern.diag(Q)
    _, variances = gp.posterior(model, Q)
    assert np.all(variances[:20] <= 1e-12 * k_diag[:20])
    C = kern.gram_matrix(Q, model.X)
    W = np.linalg.solve(np.linalg.cholesky(model.K), C.T)
    expected = np.maximum(k_diag - np.sum(W * W, axis=0), 0.0)
    np.testing.assert_allclose(variances, expected, rtol=0, atol=1e-9 * k_diag.max())


def test_posterior_batch_rows_match_single_row_calls():
    # one batched call against one call per row, on random trees of every
    # kind with training rows among the queries.  Noise 1e-2, as in the
    # stacked component test: at 1e-4 the two BLAS paths' summation orders
    # alone differ by up to 1.8e-12.
    for seed in range(8):
        spec, index, kern, data = random_gp_instance(seed, n=12, noise=1e-2)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(3000 + seed)
        Q = stack_points(random_points(spec, index, rng, 7) + data.points[:3])
        means, variances = gp.posterior(model, Q)
        assert means.shape == variances.shape == (10,)
        for i in range(len(Q)):
            mean, var = gp.posterior(model, Q[i : i + 1])
            np.testing.assert_allclose(mean, means[i : i + 1], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(var, variances[i : i + 1], rtol=1e-12, atol=1e-12)


def test_posterior_clamps_and_counts_negative_variances():
    # A noiseless model queried at its own observed points: the variance is
    # 0 up to round-off, negative for some output scales.  Each negative row
    # is clamped to 0 and counted once; every variance lies in [0, k(x, x)].
    spec, index = chain_space((1,))
    pts = [linearize(spec, index, 0, [x]) for x in (-0.7, 0.3, 1.0)]
    Q = stack_points(pts + [linearize(spec, index, 0, [1.5])])  # and a far query
    clamped = 0
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, index, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5, 0.2], noise=0.0))
        # the unclamped variances, in the posterior's own operation order
        C, k_diag = kern.gram_matrix(Q, model.X), kern.diag(Q)
        W = gp._forward_solve(model.L, C.T)
        raw = k_diag - np.einsum("iq,iq->q", W, W)
        neg = raw < 0
        _, variances = gp.posterior(model, Q)
        assert model.clamp_count == neg.sum()
        assert np.all((variances >= 0) & (variances <= k_diag))
        assert np.all(variances[neg] == 0.0)
        np.testing.assert_array_equal(variances[~neg], np.minimum(raw, k_diag)[~neg])
        assert variances[-1] > 0
        clamped += neg.any()
    assert clamped > 0


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
    q = linearize(spec, index, 0, [0.3]).slots[None, :]
    mean, var = gp.posterior(model, q)
    assert mean[0] == 0.0
    assert var[0] == pytest.approx(0.7, rel=1e-12)  # summed contributing scales
    # under the constant policy the same query is informed through the root
    kern_c = AddTreeKernel.default(spec, index, output_scale=0.7, zero_dim="constant")
    model_c = gp.fit(kern_c, gp.Dataset.create(pts, [1.0, 2.0, 3.0], noise=1e-6))
    mean_c, _ = gp.posterior(model_c, q)
    assert mean_c[0] != 0.0


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
        with pytest.raises(ValueError, match="expects 2-dim values, got 1"):
            gp.component_posterior_batch(m, "root", np.zeros((1, 1)))


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_component_means_add_to_posterior_mean(zero_dim):
    for seed in range(10):
        spec, index, kern, data = random_gp_instance(seed, n=12, zero_dim=zero_dim)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(2000 + seed)
        qs = random_points(spec, index, rng, 5)
        means, _ = gp.posterior(model, stack_points(qs))
        for q, mean in zip(qs, means):
            total = 0.0
            for vid in index.leaf_paths[q.active_leaf]:
                component, _ = gp.component_posterior_batch(model, vid, restrict(index, q, vid))
                total += component[0]
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


def _stack_matches_reference(model, vertex_ids, V):
    """Compare the stacked evaluator on ``V`` (k, q, dim) with
    component_posterior_batch vertex by vertex, and its query gradients with
    central differences of that reference; the stacked call must leave the
    clamp count alone.  Returns the stacked means, variances and gradients."""
    stack = gp.component_stack(model, vertex_ids)
    clamps = model.clamp_count
    stacked = gp.stacked_component_posterior(stack, V)
    assert model.clamp_count == clamps
    means, variances, d_means, d_vars = stacked
    for k, vid in enumerate(vertex_ids):
        ref_mean, ref_var = gp.component_posterior_batch(model, vid, V[k])
        np.testing.assert_allclose(means[k], ref_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(variances[k], ref_var, rtol=1e-12, atol=1e-12)
        fd_mean, fd_var = _central_differences(model, vid, V[k])
        np.testing.assert_allclose(d_means[k], fd_mean, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(d_vars[k], fd_var, rtol=1e-6, atol=1e-7)
    return stacked


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_component_posterior_gradients_match_finite_differences(kind):
    # random trees with up to 3-dim vertices, both zero-dim policies,
    # per-vertex and tied scales; every dimension's vertices are stacked
    # together, with queries drawn in their boxes plus one training row's
    # values (r = 0 against that row)
    checked, empty_rows = 0, 0
    for seed in range(6):
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
                        ids = [v.id for v in vertices]
                        _, variances, _, _ = _stack_matches_reference(model, ids, np.array(V))
                        assert np.all(variances > 0)  # no clamp: the differences are smooth
                        checked += len(vertices)
    assert checked > 50 and empty_rows > 0


def test_stacked_component_posterior_matches_reference(two_leaf):
    # the empty model: every vertex at its prior
    spec, index, kern, _ = random_gp_instance(0, max_dim=2)
    empty = gp.fit(kern, gp.Dataset.create([], []))
    vertices = [v for v in spec.vertices if v.dim == 2]
    V = np.random.default_rng(1).uniform(-1, 1, size=(len(vertices), 3, 2))
    means, variances, _, _ = _stack_matches_reference(empty, [v.id for v in vertices], V)
    np.testing.assert_array_equal(means, 0.0)
    assert np.all(variances > 0)

    # vertices of different dimensions stack separately; one query row per
    # vertex gives the same values as a vertex of its own
    spec, index = two_leaf
    rng = np.random.default_rng(4)
    kern = AddTreeKernel.default(spec, index)
    pts = random_points(spec, index, rng, 8)
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=8), noise=1e-3))
    for v in spec.vertices:
        if v.dim:
            lo, hi = np.array(v.bounds).T
            _stack_matches_reference(model, [v.id], rng.uniform(lo, hi, size=(1, 1, v.dim)))


def _clamp_sweep():
    """Noiseless observations queried at one of their values, over 41 output
    scales: the variance there is 0 up to round-off, which makes it negative
    for some scales.  Yields each scale's stacked results (checked against
    the reference), the variances before the clamp, in the stacked
    evaluator's own operation order, and their negative mask."""
    spec, index = chain_space((1,))
    pts = [linearize(spec, index, 0, [x]) for x in (0.3, 1.0)]
    V = np.array([[[0.3], [1.5]]])  # an observed value, and a far query
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, index, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5], noise=0.0))
        stacked = _stack_matches_reference(model, ["c0"], V)
        stack = gp.component_stack(model, ["c0"])
        Z = (np.moveaxis(V, -1, 0)[..., None] - stack.values[:, :, None, :]) / (
            stack.lengthscales.T[:, :, None, None]
        )
        C = stack.scales[:, None, None] * np.exp(-0.5 * np.einsum("dkqi,dkqi->kqi", Z, Z))
        raw = stack.scales[:, None] - np.einsum("kqi,kqi->kq", C @ stack.K_inv, C)
        yield stacked, raw, raw < 0


def test_component_posterior_gradient_is_zero_where_variance_is_clamped():
    # Where the variance is clamped to 0 its derivative is 0 too (unmasked,
    # it is round-off, not 0); the far query's derivative is not.  The
    # sweep also checks both against central differences.
    clamped = 0
    for (_, _, _, d_vars), _, neg in _clamp_sweep():
        assert not neg[0, 1] and d_vars[0, 1, 0] != 0.0
        assert np.all(d_vars[neg] == 0.0)
        clamped += neg.any()
    assert clamped > 0


def test_stacked_component_posterior_clamps_without_counting():
    # The stacked variance is clamped to 0 where it is negative and left
    # bitwise alone elsewhere; the model counts no clamp (the sweep asserts
    # its clamp count is unchanged).
    clamped = 0
    for (_, variances, _, _), raw, neg in _clamp_sweep():
        assert np.all(variances[neg] == 0.0)
        np.testing.assert_array_equal(variances[~neg], raw[~neg])
        clamped += neg.any()
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
    q = linearize(spec, index, 0, [0.5, 0.5]).slots[None, :]
    prev = np.inf
    for n in (1, 3, 7, 15):
        model = gp.fit(kern, gp.Dataset.create(pts[:n], y[:n], noise=1e-4))
        _, var = gp.posterior(model, q)
        assert var[0] <= prev + 1e-12
        prev = var[0]


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
            lml_up = oracles.log_evidence(gp.fit(replace(kern, theta=np.exp(up)), data))
            lml_dn = oracles.log_evidence(gp.fit(replace(kern, theta=np.exp(dn)), data))
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
        model = gp.fit(replace(kern, theta=np.exp(vec)), data)
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


def assert_evidence_matches_block_engine(kern, data):
    lml, grad = evidence(kern, data)
    ref_lml, ref_grad = oracles.block_evidence_and_grad(
        kern, data.points, data.targets, data.noise, kern.get_log_params()
    )
    assert lml == pytest.approx(ref_lml, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=0)


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_packed_evidence_matches_block_engine(kind):
    # the packed evidence and gradient against the per-vertex block engine
    # at noise 1e-2, for both zero_dim policies and tied and untied scales.
    # In the depth-4 trees the BFS leaf order splits a subtree, so the
    # engine has to reorder rows to make every R_v contiguous; trees 9, 11
    # and 32 have dim-0 vertices.
    rng = np.random.default_rng(29)
    for seed, depth in ((0, 3), (4, 3), (9, 3), (11, 4), (32, 4)):
        spec = random_tree_spec(seed, max_depth=depth, max_dim=2)
        index = build_path_index(spec)
        for zero_dim, tied in itertools.product(("constant", "zero"), (False, True)):
            kern = random_kernel(spec, index, rng, kind, zero_dim=zero_dim, tied_scales=tied)
            pts = random_points(spec, index, rng, 12)
            data = gp.Dataset.create(pts, rng.normal(size=12), noise=1e-2)
            assert_evidence_matches_block_engine(kern, data)


def test_packed_evidence_edge_cases():
    # an empty layout: every vertex is dim-0 under zero_dim="zero", so K = 0
    spec, index = chain_space((0, 0))
    kern = AddTreeKernel.default(spec, index, zero_dim="zero")
    assert kern.vertex_blocks(np.zeros((3, index.width))).flat.size == 0
    p = linearize(spec, index, 0, [])
    assert_evidence_matches_block_engine(
        kern, gp.Dataset.create([p] * 3, [0.4, -0.2, 0.1], noise=1e-2)
    )
    # one observation, on every kind with per-vertex and tied scales
    spec, index = chain_space((0, 1, 2))
    p = linearize(spec, index, 0, [0.3, -0.5, 1.1])
    rng = np.random.default_rng(5)
    for kind, tied in itertools.product(("se", "matern32", "matern52"), (False, True)):
        kern = random_kernel(spec, index, rng, kind, tied_scales=tied)
        assert_evidence_matches_block_engine(kern, gp.Dataset.create([p], [0.7], noise=1e-2))


def test_noise_is_added_on_the_diagonal_bitwise(monkeypatch):
    # gp.fit, the fitting objective and mutual_information add the noise to
    # the diagonal in place; each factors bitwise K + noise * I
    factored = []
    cholesky = np.linalg.cholesky

    def recording(M):
        factored.append(M.copy())
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    for seed in range(4):
        _, _, kern, data = random_gp_instance(seed, n=10, noise=1e-2)
        model = gp.fit(kern, data)
        evidence(kern, data)
        acquisition.mutual_information(model, 0.3)
        K_y = model.K + data.noise * np.eye(10)
        assert len(factored) == 3
        for M, expected in zip(factored, (K_y, K_y, np.eye(10) + model.K / 0.3)):
            np.testing.assert_array_equal(M, expected)
        factored.clear()


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
    # every evidence evaluation is counted, over all four restarts
    assert result.evaluations == calls["gram_and_grads"]


def test_one_start_refit_of_a_fitted_kernel_is_cheaper(jenatton):
    # what a BO loop's warm refit does: one run from the last fit
    rng = np.random.default_rng(8)
    pts = random_points(jenatton.spec, jenatton.index, rng, 15)
    data = gp.Dataset.create(pts, rng.normal(size=15), noise=1e-2)
    kern = bench.BoConfig().kernel(jenatton.spec, jenatton.index)
    full = gp.fit_hyperparameters(kern, data, restarts=3, rng=rng)
    warm = gp.fit_hyperparameters(full.kernel, data, restarts=1, rng=rng)
    assert len(warm.restart_evidences) == 1
    assert 1 <= warm.evaluations < full.evaluations
    assert warm.log_evidence >= full.log_evidence - 1e-9


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


def _log_box(kernel):
    is_scale = np.array([nm.endswith("::scale") for nm in kernel.param_names()])
    lo = np.where(is_scale, np.log(gp.SCALE_BOUNDS[0]), np.log(gp.LENGTHSCALE_BOUNDS[0]))
    hi = np.where(is_scale, np.log(gp.SCALE_BOUNDS[1]), np.log(gp.LENGTHSCALE_BOUNDS[1]))
    return lo, hi


def _lbfgsb_matches_scipy(kernel, data, x0):
    """Run the fit's L-BFGS-B driver and scipy's ``minimize`` (the oracle)
    from ``x0`` on the evidence objective; assert that x, the value and the
    evaluation count agree bitwise.  Returns the driver's evaluated values
    and scipy's result."""
    lo, hi = _log_box(kernel)
    objective = gp._negative_evidence(kernel, data)
    values = []

    def recorded(vec):
        value, grad = objective(vec)
        values.append(value)
        return value, grad

    x, value, evaluations = gp._lbfgsb(recorded, x0, lo, hi)
    res = minimize(
        objective, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
        options={"maxiter": gp.FIT_MAXITER},
    )
    assert x.tobytes() == res.x.tobytes()
    assert np.float64(value).tobytes() == np.float64(res.fun).tobytes()
    assert evaluations == res.nfev == len(values)
    return values, res


@pytest.mark.parametrize("tied_scales", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_lbfgsb_driver_matches_scipy_minimize(kind, tied_scales):
    # from the kernel's own start, a random draw, a corner of the box and a
    # start outside it (both clip it), on random trees
    for seed in range(4):
        spec, index, kern, data = random_gp_instance(
            seed, n=10, noise=1e-3, kind=kind, tied_scales=tied_scales
        )
        lo, hi = _log_box(kern)
        rng = np.random.default_rng(seed)
        starts = [
            np.clip(kern.get_log_params(), lo, hi),
            rng.uniform(lo, hi),
            np.where(rng.random(lo.size) < 0.5, lo, hi),
            hi + 1.0,
        ]
        for x0 in starts:
            _lbfgsb_matches_scipy(kern, data, x0)


def test_lbfgsb_driver_matches_scipy_minimize_where_the_gram_fails():
    # one point twice at zero noise: some steps land where the Gram does not
    # factorize and the objective reports FAILED_EVIDENCE with a zero gradient
    mixed = 0
    for seed in (1, 4, 17):
        spec, index, kern, data = random_gp_instance(seed, n=8, noise=0.0)
        data = gp.Dataset.create(
            data.points + data.points[:1], np.append(data.targets, data.targets[0])
        )
        lo, hi = _log_box(kern)
        rng = np.random.default_rng(seed)
        for x0 in [np.clip(kern.get_log_params(), lo, hi), *rng.uniform(lo, hi, (4, lo.size))]:
            values, _ = _lbfgsb_matches_scipy(kern, data, x0)
            failed = sum(v >= gp.FAILED_EVIDENCE for v in values)
            mixed += 0 < failed < len(values)
    assert mixed >= 3


def test_lbfgsb_driver_stops_at_the_iteration_limit(monkeypatch):
    monkeypatch.setattr(gp, "FIT_MAXITER", 2)
    for seed in range(3):
        spec, index, kern, data = random_gp_instance(seed, n=12, noise=1e-3)
        lo, hi = _log_box(kern)
        _, res = _lbfgsb_matches_scipy(kern, data, np.random.default_rng(seed).uniform(lo, hi))
        assert res.nit == 2 and "ITERATIONS REACHED LIMIT" in res.message


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
    def no_lbfgsb(*args, **kwargs):
        raise AssertionError("L-BFGS-B ran")

    monkeypatch.setattr(gp, "_lbfgsb", no_lbfgsb)
    result = gp.fit_hyperparameters(kern, data, restarts=3, lengthscale_cap=0.5)
    assert result.kernel == kern
    expected = oracles.log_evidence(gp.fit(kern, data))
    assert result.log_evidence == pytest.approx(expected, rel=1e-12)
    assert result.restart_evidences == [result.log_evidence]
    assert result.evaluations == 1
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
