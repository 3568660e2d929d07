import itertools
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, lapack
from scipy.optimize import minimize

import oracles
from conftest import no_rows, random_gp_instance, random_kernel, random_points
from oracles import random_tree_spec, restrict
from treebo import acquisition, bench, gp
from treebo.kernels import AddTreeKernel
from treebo.tree_space import VertexSpec, linearize, make_tree_spec


def chain_space(dims=(1, 1)):
    vertices = [
        VertexSpec(f"c{i}", d, tuple([(-2.0, 2.0)] * d)) for i, d in enumerate(dims)
    ]
    edges = [(f"c{i}", 0, f"c{i + 1}") for i in range(len(dims) - 1)]
    return make_tree_spec(vertices, edges)


def test_fit_single_observation_closed_form():
    spec = chain_space((1, 1))
    kern = AddTreeKernel.default(spec)
    p = linearize(spec, 0, [0.5, -0.5])
    data = gp.Dataset.create([p], [3.0], noise=0.0)
    model = gp.fit(kern, data)
    np.testing.assert_allclose(model.L @ model.L.T, [[2.0]])
    np.testing.assert_allclose(model.alpha, [1.5])
    assert model.jitter == 0.0


def test_fit_duplicates_with_zero_noise_escalates_jitter():
    spec = chain_space((1,))
    kern = AddTreeKernel.default(spec)
    p = linearize(spec, 0, [0.5])
    q = linearize(spec, 0, [0.5])
    data = gp.Dataset.create([p, q], [1.0, 1.0], noise=0.0)
    model = gp.fit(kern, data)  # succeeds via jitter, or raises explicitly
    assert model.jitter > 0.0


def test_fit_factorization_reconstructs(jenatton):
    spec = jenatton.spec
    rng = np.random.default_rng(2)
    kern = random_kernel(spec, rng)
    _, X = random_points(spec, rng, 20)
    data = gp.Dataset.create(X, rng.normal(size=20), noise=1e-6)
    model = gp.fit(kern, data)
    K_y = kern.gram_matrix(data.X) + (data.noise + model.jitter) * np.eye(20)
    np.testing.assert_array_equal(model.L, np.tril(model.L))
    np.testing.assert_allclose(model.L @ model.L.T, K_y, rtol=0, atol=1e-12 * K_y.max())
    np.testing.assert_allclose(K_y @ model.alpha, data.targets, rtol=0, atol=1e-8)


def test_dataset_validation():
    spec = chain_space((1,))
    p = linearize(spec, 0, [0.0])
    with pytest.raises(ValueError, match="1 rows but 2 targets"):
        gp.Dataset.create([p], [1.0, 2.0])
    # one row is not a matrix of rows, and an empty list has no width
    for X, y in ((p, [1.0]), ([], [])):
        with pytest.raises(ValueError, match="2-D array of slot rows"):
            gp.Dataset.create(X, y)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target 1 is not finite"):
            gp.Dataset.create([p, p, p], [0.0, bad, bad])
        # extended runs the same checks
        with pytest.raises(ValueError, match="target 1 is not finite"):
            gp.Dataset.create([p], [0.0]).extended(p, bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise"):
            gp.Dataset.create([p], [1.0], noise=bad)


def test_dataset_is_one_matrix_of_slot_rows():
    # a list of rows and their stacked matrix make the same dataset, and an
    # empty dataset extended row by row grows into it
    spec = chain_space((1, 1))
    rows = [linearize(spec, 0, [x, -x]) for x in (0.1, 0.2, 0.3)]
    data = gp.Dataset.create(rows, [1.0, 2.0, 3.0], noise=0.5)
    assert data.X.shape == (3, spec.width) and len(data) == 3
    assert data.X.tobytes() == np.array(rows).tobytes()
    grown = gp.Dataset.create(no_rows(spec), [], noise=0.5)
    for row, y in zip(rows, data.targets):
        grown = grown.extended(row, y)
    assert grown.X.tobytes() == data.X.tobytes()
    assert grown.targets.tobytes() == data.targets.tobytes() and grown.noise == 0.5


def other_width_cases(jenatton):
    """Rows of one space with the kernel of another, both ways: Jenatton's
    rows are 13 slots wide and those of the two-level random tree 6.  The
    error message names both widths: the rows' in their shape."""
    narrow = bench.random_tree_objective(2, 2, 1, 0)
    rng = np.random.default_rng(0)
    for rows_of, kernel_of in ((jenatton, narrow), (narrow, jenatton)):
        _, X = random_points(rows_of.spec, rng, 4)
        data = gp.Dataset.create(X, rng.normal(size=4), noise=1e-2)
        kern = AddTreeKernel.default(kernel_of.spec)
        message = (
            rf"of shape \(4, {rows_of.spec.width}\) is not a matrix of "
            f"{kernel_of.spec.width}-slot rows, the kernel's layout"
        )
        yield kern, data, message


def test_fit_rejects_rows_of_another_width(jenatton):
    # 13-wide rows under the 6-wide kernel were fitted silently (a 4 x 4
    # Gram), and 6-wide rows under the 13-wide kernel raised an IndexError
    for kern, data, message in other_width_cases(jenatton):
        with pytest.raises(ValueError, match="data " + message):
            gp.fit(kern, data)


def test_fit_hyperparameters_rejects_rows_of_another_width(jenatton):
    for kern, data, message in other_width_cases(jenatton):
        with pytest.raises(ValueError, match="data " + message):
            gp.fit_hyperparameters(kern, data, restarts=1)


def test_posterior_rejects_queries_of_another_width(jenatton):
    # the model is fitted on rows of its own space; the queries are not
    for kern, data, message in other_width_cases(jenatton):
        _, X = random_points(kern.spec, np.random.default_rng(1), 4)
        model = gp.fit(kern, gp.Dataset.create(X, data.targets, noise=1e-2))
        with pytest.raises(ValueError, match="query " + message):
            gp.posterior(model, data.X)
        with pytest.raises(ValueError, match="is not a matrix"):
            gp.posterior(model, X[0])


def test_every_entry_point_rejects_non_finite_slots(jenatton):
    # a NaN or inf slot reached the fit as a FactorizationError or scipy's
    # "must not contain infs or NaNs", and a query as NaN means and variances
    kern = AddTreeKernel.default(jenatton.spec)
    _, X = random_points(jenatton.spec, np.random.default_rng(2), 4)
    model = gp.fit(kern, gp.Dataset.create(X, np.arange(4.0), noise=1e-2))
    for bad in (math.nan, math.inf, -math.inf):
        Y = X.copy()
        Y[2, 5] = bad
        data = gp.Dataset.create(Y, np.arange(4.0), noise=1e-2)
        message = f"row 2 slot 5 is not finite: {bad}"
        with pytest.raises(ValueError, match="data " + message):
            gp.fit(kern, data)
        with pytest.raises(ValueError, match="data " + message):
            gp.fit_hyperparameters(kern, data, restarts=1)
        with pytest.raises(ValueError, match="query " + message):
            gp.posterior(model, Y)


def test_posterior_interpolates_noiseless(jenatton):
    spec = jenatton.spec
    rng = np.random.default_rng(4)
    kern = AddTreeKernel.default(spec)
    leaves, X = random_points(spec, rng, 10)
    y = np.array([jenatton(leaf, np.concatenate(
        [restrict(spec, leaf, x, v) for v in spec.leaf_paths[leaf]]
    )) for leaf, x in zip(leaves, X)])
    model = gp.fit(kern, gp.Dataset.create(X, y, noise=0.0))
    means, variances = gp.posterior(model, X)
    assert np.all(np.abs(means - y) < 1e-6)
    assert np.all(variances <= 1e-6)


def test_posterior_prior_with_no_data(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec, output_scale=1.3)
    model = gp.fit(kern, gp.Dataset.create(no_rows(spec), []))
    q = linearize(spec, 0, [0, 0, 0, 0])
    mean, var = gp.posterior(model, q[None, :])
    assert mean[0] == 0.0
    assert var[0] == pytest.approx(2.6, rel=1e-12)
    # several rows on both leaves: means 0, variances k(x, x)
    _, Q = random_points(spec, np.random.default_rng(3), 6)
    means, variances = gp.posterior(model, Q)
    np.testing.assert_array_equal(means, np.zeros(6))
    np.testing.assert_array_equal(variances, kern.diag(Q))
    assert model.clamp_count == 0


def test_posterior_matches_dense_solve():
    # oracle: the textbook equations with dense solves against K + noise
    for seed in range(12):
        spec, kern, data, _ = random_gp_instance(seed, n=14)
        model = gp.fit(kern, data)
        X = data.X
        K_y = kern.gram_matrix(X) + data.noise * np.eye(len(data))
        rng = np.random.default_rng(1000 + seed)
        _, Q = random_points(spec, rng, 5)
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
    # as a noiseless posterior must be, and matches the textbook form,
    # a dense solve with the model's factor, elsewhere.  (Another LAPACK
    # build's factor of this matrix moves some variances by 2e-9.)
    spec, kern, data, _ = random_gp_instance(117, n=20, noise=0.0)
    model = gp.fit(kern, data)
    assert model.jitter == 0.0
    rng = np.random.default_rng(5)
    Q = np.vstack([data.X, random_points(spec, rng, 50)[1]])
    k_diag = kern.diag(Q)
    _, variances = gp.posterior(model, Q)
    assert np.all(variances[:20] <= 1e-12 * k_diag[:20])
    C = kern.gram_matrix(Q, model.data.X)
    W = np.linalg.solve(model.L, C.T)
    expected = np.maximum(k_diag - np.sum(W * W, axis=0), 0.0)
    np.testing.assert_allclose(variances, expected, rtol=0, atol=1e-9 * k_diag.max())


def test_posterior_batch_rows_match_single_row_calls():
    # one batched call against one call per row, on random trees of every
    # kind with training rows among the queries.  Noise 1e-2, as in the
    # stacked component test: at 1e-4 the two BLAS paths' summation orders
    # alone differ by up to 1.8e-12.
    for seed in range(8):
        spec, kern, data, _ = random_gp_instance(seed, n=12, noise=1e-2)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(3000 + seed)
        Q = np.vstack([random_points(spec, rng, 7)[1], data.X[:3]])
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
    spec = chain_space((1,))
    pts = [linearize(spec, 0, [x]) for x in (-0.7, 0.3, 1.0)]
    Q = np.array(pts + [linearize(spec, 0, [1.5])])  # and a far query
    clamped = 0
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5, 0.2], noise=0.0))
        # the unclamped variances, in the posterior's own operation order
        C, k_diag = kern.gram_matrix(Q, model.data.X), kern.diag(Q)
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


def test_unshared_query_is_informed_through_the_root():
    # bare root, two 1-dim branches; data only on branch 1, query on branch 0.
    # The two paths share only the dim-0 root, whose term is its output
    # scale: the query's mean is the root component's, and only the root's
    # share of its prior variance 0.7 + 0.7 is reduced
    spec = make_tree_spec(
        [
            VertexSpec("r", 0, ()),
            VertexSpec("a", 1, ((-1.0, 1.0),)),
            VertexSpec("b", 1, ((-1.0, 1.0),)),
        ],
        [("r", 0, "a"), ("r", 1, "b")],
    )
    kern = AddTreeKernel.default(spec, output_scale=0.7)
    pts = [linearize(spec, 1, [x]) for x in (-0.5, 0.1, 0.8)]
    model = gp.fit(kern, gp.Dataset.create(pts, [1.0, 2.0, 3.0], noise=1e-6))
    q = linearize(spec, 0, [0.3])[None, :]
    mean, var = gp.posterior(model, q)
    root_mean, _ = gp.component_posterior_batch(model, "r", np.empty((1, 0)))
    assert mean[0] != 0.0
    assert mean[0] == pytest.approx(root_mean[0], rel=1e-12)
    assert 0.7 < var[0] < 1.4


def test_component_posterior_prior_cases(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec, output_scale=0.9)
    empty = gp.fit(kern, gp.Dataset.create(no_rows(spec), []))
    mean, var = gp.component_posterior_batch(empty, "root", np.zeros((1, 2)))
    assert (mean[0], var[0]) == (0.0, pytest.approx(0.9))

    # vertex absent from every training path: all-zero cross covariance
    rng = np.random.default_rng(8)
    pts = [linearize(spec, 0, rng.uniform(-1, 1, size=4)) for _ in range(6)]
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=6), noise=1e-6))
    mean, var = gp.component_posterior_batch(model, "right", np.array([[0.1, 0.2, 0.3]]))
    assert mean[0] == 0.0
    assert var[0] == pytest.approx(0.9, rel=1e-12)


def test_component_posterior_errors(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    p = linearize(spec, 0, [0.0, 0.0, 0.0, 0.0])
    model = gp.fit(kern, gp.Dataset.create([p], [1.0], noise=1e-6))
    with pytest.raises(KeyError, match="ghost"):
        gp.component_posterior_batch(model, "ghost", np.zeros((1, 1)))
    empty = gp.fit(kern, gp.Dataset.create(no_rows(spec), []))
    for m in (model, empty):
        with pytest.raises(ValueError, match="expects 2-dim values, got 1"):
            gp.component_posterior_batch(m, "root", np.zeros((1, 1)))


def test_component_posterior_rejects_non_finite_values(two_leaf, jenatton):
    # as the slot-row entry points do: a NaN value would otherwise come back
    # as a NaN mean and variance, and a NaN path score in the acquisition
    for spec, vid, V, where in (
        (jenatton.spec, "n0", [[np.nan]], "row 0 column 0"),
        (two_leaf, "root", [[0.1, 0.2], [0.3, -np.inf]], "row 1 column 1"),
    ):
        p = linearize(spec, 0, [0.0] * len(spec.leaf_bounds(0)))
        model = gp.fit(AddTreeKernel.default(spec), gp.Dataset.create([p], [1.0], noise=1e-6))
        with pytest.raises(ValueError, match=f"'{vid}' value {where} is not finite"):
            gp.component_posterior_batch(model, vid, V)


@pytest.mark.parametrize("shape", [(2, 1, 1), (2, 1, 3)])
def test_component_posterior_rejects_values_of_more_than_two_dimensions(jenatton, shape):
    # a (2, 1, 1) array must not pass for two rows, nor (2, 1, 3) fail with a
    # bare IndexError from inside
    spec = jenatton.spec
    p = linearize(spec, 0, [0.0, 0.0])
    model = gp.fit(AddTreeKernel.default(spec), gp.Dataset.create([p], [1.0], noise=1e-6))
    message = f"'n0' expects (m, 1) values, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        gp.component_posterior_batch(model, "n0", np.zeros(shape))


def test_component_means_add_to_posterior_mean():
    for seed in range(10):
        spec, kern, data, _ = random_gp_instance(seed, n=12)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(2000 + seed)
        leaves, Q = random_points(spec, rng, 5)
        means, _ = gp.posterior(model, Q)
        for leaf, q, mean in zip(leaves, Q, means):
            total = 0.0
            for vid in spec.leaf_paths[leaf]:
                V = restrict(spec, leaf, q, vid)
                component, _ = gp.component_posterior_batch(model, vid, V)
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
    # random trees with up to 3-dim vertices, per-vertex and tied scales;
    # every dimension's vertices are stacked together, with queries drawn in
    # their boxes plus one training row's values (r = 0 against that row)
    checked, empty_rows = 0, 0
    for seed in range(6):
        for tied in (False, True):
            spec, kern, data, leaves = random_gp_instance(
                seed, n=10, noise=1e-2, max_dim=3, kind=kind, tied_scales=tied
            )
            # all the data, and only the first point's leaf's (which
            # leaves R_v empty for every vertex off that leaf's path)
            one_leaf = [i for i, leaf in enumerate(leaves) if leaf == leaves[0]]
            for rows_kept in [list(range(len(leaves))), one_leaf]:
                points = [(leaves[i], data.X[i]) for i in rows_kept]
                X, targets = data.X[rows_kept], data.targets[rows_kept]
                model = gp.fit(kern, gp.Dataset.create(X, targets, noise=1e-2))
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
                        on_path = [p for p in points if oracles.on_path(spec, v.id, p[0])]
                        if on_path:
                            rows[0] = restrict(spec, *on_path[0], v.id)
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
    spec, kern, *_ = random_gp_instance(0, max_dim=2)
    empty = gp.fit(kern, gp.Dataset.create(no_rows(spec), []))
    vertices = [v for v in spec.vertices if v.dim == 2]
    V = np.random.default_rng(1).uniform(-1, 1, size=(len(vertices), 3, 2))
    means, variances, _, _ = _stack_matches_reference(empty, [v.id for v in vertices], V)
    np.testing.assert_array_equal(means, 0.0)
    assert np.all(variances > 0)

    # vertices of different dimensions stack separately; one query row per
    # vertex gives the same values as a vertex of its own
    spec = two_leaf
    rng = np.random.default_rng(4)
    kern = AddTreeKernel.default(spec)
    _, X = random_points(spec, rng, 8)
    model = gp.fit(kern, gp.Dataset.create(X, rng.normal(size=8), noise=1e-3))
    for v in spec.vertices:
        if v.dim:
            lo, hi = np.array(v.bounds).T
            _stack_matches_reference(model, [v.id], rng.uniform(lo, hi, size=(1, 1, v.dim)))


def _value_only_matches_full_call(stack, V):
    """The value-only stacked posterior on ``V`` against the full call: the
    same means and variances, bit for bit.  Returns how many were clamped."""
    full = gp.stacked_component_posterior(stack, V)
    values = gp.stacked_component_posterior(stack, V, grad=False)
    assert len(full) == 4 and len(values) == 2
    for a, b in zip(values, full):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return int((full[1] == 0.0).sum())


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_value_only_stacked_posterior_is_the_full_call_bit_for_bit(kind):
    # the scan asks for values only; they must be the bits the ascent reads
    # from the full call: on every dimension's stack of random trees, and on
    # noiseless data queried at an observed value, where variances clamp
    stacks = 0
    for seed in range(8):
        spec, kern, data, _ = random_gp_instance(seed, n=12, max_dim=3, kind=kind)
        model = gp.fit(kern, data)
        rng = np.random.default_rng(seed)
        by_dim = {}
        for v in spec.vertices:
            if v.dim:
                by_dim.setdefault(v.dim, []).append(v)
        for dim, vertices in by_dim.items():
            V = np.array([rng.uniform(*np.array(v.bounds).T, size=(9, dim)) for v in vertices])
            _value_only_matches_full_call(gp.component_stack(model, [v.id for v in vertices]), V)
            stacks += 1
    spec = chain_space((1,))
    pts = [linearize(spec, 0, [x]) for x in (0.3, 1.0)]
    clamped = 0
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, kind, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5], noise=0.0))
        stack = gp.component_stack(model, ["c0"])
        clamped += _value_only_matches_full_call(stack, np.array([[[0.3], [1.5]]]))
    assert stacks > 10 and clamped > 0


def _clamp_sweep():
    """Noiseless observations queried at one of their values, over 41 output
    scales: the variance there is 0 up to round-off, which makes it negative
    for some scales.  Yields each scale's stacked results (checked against
    the reference), the variances before the clamp, in the stacked
    evaluator's own operation order, and their negative mask."""
    spec = chain_space((1,))
    pts = [linearize(spec, 0, [x]) for x in (0.3, 1.0)]
    V = np.array([[[0.3], [1.5]]])  # an observed value, and a far query
    for s in np.linspace(0.5, 3.0, 41):
        kern = AddTreeKernel.default(spec, output_scale=float(s))
        model = gp.fit(kern, gp.Dataset.create(pts, [1.0, -0.5], noise=0.0))
        stacked = _stack_matches_reference(model, ["c0"], V)
        stack = gp.component_stack(model, ["c0"])
        Z = (np.moveaxis(V, -1, 0)[..., None] - stack.values[:, :, None, :]) / (
            stack.lengthscales.T[:, :, None, None]
        )
        C = stack.scales[:, None, None] * np.exp(-0.5 * np.einsum("dkqi,dkqi->kqi", Z, Z))
        RC = C @ np.swapaxes(stack.R, 1, 2)
        raw = stack.scales[:, None] - np.einsum("kqi,kqi->kq", RC, RC)
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


def test_component_stack_factor_is_the_inverse_block():
    # R^T R is K_y^{-1} on R_v x R_v, R is upper triangular, and its padding
    # past |R_v| is exactly zero; well-conditioned (noise 1e-2) random trees,
    # every dimension's vertices stacked together
    checked, padded = 0, 0
    for seed in range(10):
        spec, kern, data, leaves = random_gp_instance(seed, n=14, noise=1e-2, max_dim=3)
        model = gp.fit(kern, data)
        K_y_inv = np.linalg.inv(
            kern.gram_matrix(data.X) + (data.noise + model.jitter) * np.eye(model.n)
        )
        by_dim = {}
        for v in spec.vertices:
            if v.dim:
                by_dim.setdefault(v.dim, []).append(v.id)
        for ids in by_dim.values():
            stack = gp.component_stack(model, ids)
            for R, vid in zip(stack.R, ids):
                rows = [i for i, leaf in enumerate(leaves) if oracles.on_path(spec, vid, leaf)]
                r = len(rows)
                np.testing.assert_array_equal(R, np.triu(R))
                np.testing.assert_array_equal(R[r:], 0.0)
                np.testing.assert_array_equal(R[:, r:], 0.0)
                np.testing.assert_allclose(
                    R[:r, :r].T @ R[:r, :r], K_y_inv[np.ix_(rows, rows)], rtol=1e-10, atol=1e-10
                )
                checked += 1
                padded += r < len(R)
    assert checked > 15 and padded > 3


def test_stacked_vertex_without_rows_gets_exactly_the_prior(jenatton):
    # only leaf 0 is observed, so n0 and leaf00 have rows and n1 and leaf10
    # have none; stacked next to observed vertices, an unobserved one is at
    # its prior bitwise: mean 0, variance s_v, and both gradients 0
    spec = jenatton.spec
    rng = np.random.default_rng(8)
    kern = random_kernel(spec, rng, kind="se")
    pts = [linearize(spec, 0, rng.uniform([0, -1], [1, 1])) for _ in range(6)]
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=6), noise=1e-4))
    ids = ["n0", "n1", "leaf00", "leaf10"]
    V = rng.uniform(0, 1, size=(4, 5, 1))
    means, variances, d_means, d_vars = _stack_matches_reference(model, ids, V)
    for k in (1, 3):
        np.testing.assert_array_equal(means[k], 0.0)
        np.testing.assert_array_equal(variances[k], kern.component_prior_variance(ids[k]))
        np.testing.assert_array_equal(d_means[k], 0.0)
        np.testing.assert_array_equal(d_vars[k], 0.0)
    assert np.all(variances[[0, 2]] < variances[[1, 3]])


def test_stacked_variances_stay_accurate_near_repeated_observations(jenatton):
    # A BO run piles its evaluations up at the optimum: here the point
    # (r, x) = (0, 0) on leaf 0 is observed 30 times, at noise 1e-8, so n0 is
    # observed 30 times at one value.  Entries of K_y^{-1} reach about 1e8,
    # and a variance formed from its gathered blocks, s_v - c^T K_y^{-1} c,
    # was off from the reference by 1e-5; the triangular factor keeps the
    # two within 1e-9 on a grid over n0's box.
    spec = jenatton.spec
    rng = np.random.default_rng(0)
    optimum = linearize(spec, 0, [0.0, 0.0])
    X = np.vstack([[optimum] * 30, random_points(spec, rng, 8)[1]])
    kern = AddTreeKernel.default(spec, output_scale=5.0)
    model = gp.fit(kern, gp.Dataset.create(X, rng.normal(size=38), noise=1e-8))
    assert model.jitter == 0.0
    V = np.linspace(0.0, 1.0, 2001)[:, None]
    _, variances, _, _ = gp.stacked_component_posterior(gp.component_stack(model, ["n0"]), V[None])
    _, reference = gp.component_posterior_batch(model, "n0", V)
    np.testing.assert_allclose(variances[0], reference, rtol=0, atol=1e-9)


def test_component_stack_needs_one_positive_dimension(two_leaf, jenatton):
    for spec, vertex_ids in [
        (two_leaf, ["root", "right"]),  # dims 2 and 3
        (jenatton.spec, ["root"]),  # dim 0
        (jenatton.spec, ["root", "n0"]),
    ]:
        model = gp.fit(AddTreeKernel.default(spec), gp.Dataset.create(no_rows(spec), []))
        with pytest.raises(ValueError, match="one dimension >= 1"):
            gp.component_stack(model, vertex_ids)


def test_posterior_variance_shrinks_with_data(jenatton):
    spec = jenatton.spec
    kern = AddTreeKernel.default(spec)
    rng = np.random.default_rng(12)
    _, X = random_points(spec, rng, 15)
    y = rng.normal(size=15)
    q = linearize(spec, 0, [0.5, 0.5])[None, :]
    prev = np.inf
    for n in (1, 3, 7, 15):
        model = gp.fit(kern, gp.Dataset.create(X[:n], y[:n], noise=1e-4))
        _, var = gp.posterior(model, q)
        assert var[0] <= prev + 1e-12
        prev = var[0]


def evidence(kern, data):
    """The fitting objective's log evidence and gradient at the kernel's own
    log parameters."""
    neg_lml, neg_grad = gp._negative_evidence(kern, data)(kern.get_log_params())
    return -neg_lml, -neg_grad


def test_lml_standard_normal_evidence():
    spec = chain_space((1,))
    kern = AddTreeKernel.default(spec)  # k(x,x) = 1 on a single vertex
    p = linearize(spec, 0, [0.0])
    lml, _ = evidence(kern, gp.Dataset.create([p], [0.0], noise=0.0))
    assert lml == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)


def test_lml_zero_targets_drop_quadratic_term():
    spec, kern, data, _ = random_gp_instance(3, n=8)
    data = gp.Dataset(X=data.X, targets=np.zeros(8), noise=data.noise)
    K_y = kern.gram_matrix(data.X) + data.noise * np.eye(8)
    expected = -0.5 * np.linalg.slogdet(K_y)[1] - 4 * math.log(2 * math.pi)
    assert evidence(kern, data)[0] == pytest.approx(expected, rel=1e-10)


def test_lml_gradient_matches_finite_differences():
    # the objective's gradient against central differences, step 1e-5 in
    # log-parameter space, of the dense evidence of gp.fit's matrices
    for seed in range(20):
        spec, kern, data, _ = random_gp_instance(seed, n=8, noise=1e-2)
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
    # output scales
    for seed in range(8):
        _, kern, data, _ = random_gp_instance(seed, n=10, noise=1e-2, tied_scales=seed % 4 >= 2)
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


def assert_evidence_matches_block_engine(kern, data, leaves):
    lml, grad = evidence(kern, data)
    ref_lml, ref_grad = oracles.block_evidence_and_grad(
        kern, leaves, data.X, data.targets, data.noise, kern.get_log_params()
    )
    assert lml == pytest.approx(ref_lml, rel=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=0)


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_packed_evidence_matches_block_engine(kind):
    # the packed evidence and gradient against the per-vertex block engine
    # at noise 1e-2, for tied and untied scales.
    # In the depth-4 trees the BFS leaf order splits a subtree, so the
    # engine has to reorder rows to make every R_v contiguous; trees 9, 11
    # and 32 have dim-0 vertices.
    rng = np.random.default_rng(29)
    for seed, depth in ((0, 3), (4, 3), (9, 3), (11, 4), (32, 4)):
        spec = random_tree_spec(seed, max_depth=depth, max_dim=2)
        for tied in (False, True):
            kern = random_kernel(spec, rng, kind, tied_scales=tied)
            leaves, X = random_points(spec, rng, 12)
            data = gp.Dataset.create(X, rng.normal(size=12), noise=1e-2)
            assert_evidence_matches_block_engine(kern, data, leaves)


def test_packed_evidence_edge_cases():
    # one observation, on every kind with per-vertex and tied scales
    spec = chain_space((0, 1, 2))
    p = linearize(spec, 0, [0.3, -0.5, 1.1])
    rng = np.random.default_rng(5)
    for kind, tied in itertools.product(("se", "matern32", "matern52"), (False, True)):
        kern = random_kernel(spec, rng, kind, tied_scales=tied)
        assert_evidence_matches_block_engine(
            kern, gp.Dataset.create([p], [0.7], noise=1e-2), [0]
        )


def test_noise_is_added_on_the_diagonal_bitwise(monkeypatch):
    # gp.fit and the fitting objective add the noise to the diagonal in
    # place; each factors bitwise K + noise * I through the library's one
    # Cholesky helper, and mutual_information reads gp.fit's factor
    factored = []
    cholesky = gp._cholesky

    def recording(M, *args, **kwargs):
        factored.append(M.copy())
        return cholesky(M, *args, **kwargs)

    monkeypatch.setattr(gp, "_cholesky", recording)
    for seed in range(4):
        _, kern, data, _ = random_gp_instance(seed, n=10, noise=1e-2)
        model = gp.fit(kern, data)
        evidence(kern, data)
        acquisition.mutual_information(model)
        K_y = kern.gram_matrix(data.X) + data.noise * np.eye(10)
        assert len(factored) == 2
        # the lower triangle is what the factorization reads, and all of
        # the Gram matrix the objective assembles
        for M in factored:
            np.testing.assert_array_equal(np.tril(M), np.tril(K_y))
        factored.clear()


def test_fitting_objective_reuses_its_buffers_without_carrying_state():
    # every evaluation of a fit writes the same per-fit buffers: evaluating
    # other vectors in between gives a vector's value and gradient bitwise
    # again, and leaves a gradient already returned as it was
    for seed, (kind, tied) in enumerate(
        itertools.product(("se", "matern32", "matern52"), (False, True))
    ):
        _, kern, data, _ = random_gp_instance(
            seed, n=10, noise=1e-2, kind=kind, tied_scales=tied
        )
        objective = gp._negative_evidence(kern, data)
        vec = kern.get_log_params()
        value, grad = objective(vec)
        kept = grad.copy()
        for shift in (0.3, -0.7, 2.0):
            objective(vec + shift)
        again, again_grad = objective(vec)
        assert np.float64(again).tobytes() == np.float64(value).tobytes()
        assert again_grad.tobytes() == kept.tobytes()
        assert grad.tobytes() == kept.tobytes()


def test_fitting_objective_evaluation_allocates_no_n_squared_temporaries():
    # An evaluation writes into buffers built once per fit.  On the 26-d
    # tree at n = 150 the temporaries of one evaluation, after a warm-up
    # call, peak at 0.13 MB (a broadcasting ufunc's internal buffers); when
    # each evaluation allocated its Gram, inverse and derivative arrays
    # they peaked at 1.19 MB, and glibc returned that heap to the system and
    # faulted it in again on every call (154 minor faults a call)
    objective = bench.random_tree_objective(3, 3, 2, 0)
    rng = np.random.default_rng(1)
    X = [
        linearize(objective.spec, *bench.sample_branch_walk(objective.spec, rng))
        for _ in range(150)
    ]
    data = gp.Dataset.create(X, rng.normal(size=150), noise=1e-8)
    kern = bench.BoConfig().kernel(objective.spec)
    evaluate = gp._negative_evidence(kern, data)
    vec = kern.get_log_params()
    evaluate(vec)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate(vec + 0.1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 0.25 * 2**20


def test_fit_hyperparameters_raises_when_every_restart_fails(jenatton):
    # three identical points and zero noise: no hyperparameters factorize
    p = linearize(jenatton.spec, 0, [0.3, 0.7])
    data = gp.Dataset.create([p, p, p], [1.0, 1.0, 1.0], noise=0.0)
    kern = bench.BoConfig().kernel(jenatton.spec)
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
    _, X = random_points(jenatton.spec, rng, 12)
    data = gp.Dataset.create(X, rng.normal(size=12), noise=1e-2)
    kern = bench.BoConfig().kernel(jenatton.spec)
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
    _, X = random_points(jenatton.spec, rng, 15)
    data = gp.Dataset.create(X, rng.normal(size=15), noise=1e-2)
    kern = bench.BoConfig().kernel(jenatton.spec)
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


def test_lapack_helpers_match_scipy_lapack_bitwise():
    # gp loads scipy's compiled LAPACK module by file: its routines must be
    # the ones scipy.linalg.lapack exposes, with the same bits
    routines = ("dpotrf", "dpotri", "dpotrs", "dtrtrs")
    assert all(getattr(gp.lapack, f) is getattr(lapack, f) for f in routines)
    rng = np.random.default_rng(6)
    for n in range(1, 101):
        A = rng.normal(size=(n, n))
        S = A @ A.T + n * np.eye(n)
        L, info = gp._cholesky(S)
        assert info == 0 and L.flags.f_contiguous
        np.testing.assert_array_equal(L, lapack.dpotrf(S, lower=1)[0])
        np.testing.assert_array_equal(L, np.tril(L))
        # in place on a Fortran-ordered copy, and the same bits
        F = np.asfortranarray(S)
        in_place, _ = gp._cholesky(F, overwrite=True)
        assert np.shares_memory(in_place, F)
        np.testing.assert_array_equal(in_place, L)
        B = rng.normal(size=(n, 3))
        np.testing.assert_array_equal(gp._forward_solve(L, B), lapack.dtrtrs(L, B, lower=1)[0])
        b = B[:, 0]
        np.testing.assert_array_equal(gp._solve_lower(L, b), lapack.dpotrs(L, b, lower=1)[0])
    # a matrix that is not positive definite: info names the failing column
    assert gp._cholesky(np.diag([1.0, -1.0]))[1] == 2


def test_scipy_extension_loader_names_what_is_missing(tmp_path, monkeypatch):
    directory = str(Path(gp.scipy.__file__).parent / "linalg")
    with pytest.raises(ImportError, match="scipy.linalg._no_such_module") as info:
        gp._scipy_extension("linalg", "_no_such_module")
    assert directory in str(info.value)
    assert "scipy.linalg._no_such_module" not in sys.modules
    # a directory of that name is no extension module either
    monkeypatch.setattr(gp.scipy, "__file__", str(tmp_path / "__init__.py"))
    (tmp_path / "optimize" / "_lbfgsb_dir").mkdir(parents=True)
    with pytest.raises(ImportError, match="scipy.optimize._lbfgsb_dir") as info:
        gp._scipy_extension("optimize", "_lbfgsb_dir")
    assert str(tmp_path / "optimize") in str(info.value)


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
        spec, kern, data, _ = random_gp_instance(
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
        spec, kern, data, _ = random_gp_instance(seed, n=8, noise=0.0)
        data = gp.Dataset.create(
            np.vstack([data.X, data.X[:1]]), np.append(data.targets, data.targets[0])
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
        spec, kern, data, _ = random_gp_instance(seed, n=12, noise=1e-3)
        lo, hi = _log_box(kern)
        _, res = _lbfgsb_matches_scipy(kern, data, np.random.default_rng(seed).uniform(lo, hi))
        assert res.nit == 2 and "ITERATIONS REACHED LIMIT" in res.message


def test_fit_hyperparameters_recovers_lengthscale():
    # data drawn from a known single-vertex SE kernel; median recovery +-30%
    spec = chain_space((1,))
    true_ls = 0.5
    errors = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=200)
        pts = [linearize(spec, 0, [x]) for x in X]
        true = AddTreeKernel.default(spec, lengthscale=true_ls)
        K = true.gram_matrix(np.array(pts)) + 1e-6 * np.eye(200)
        y = np.linalg.cholesky(K) @ rng.normal(size=200)
        data = gp.Dataset.create(pts, y, noise=1e-6)
        start = AddTreeKernel.default(spec, lengthscale=1.0)
        result = gp.fit_hyperparameters(start, data, restarts=2, rng=rng)
        errors.append(result.kernel.to_config()["params"]["c0"]["lengthscales"][0] / true_ls)
    median_ratio = float(np.median(errors))
    assert 0.7 <= median_ratio <= 1.3


def test_sign_of_the_targets_changes_no_fitted_bit():
    # why a minimizing loop can keep -y as its one dataset: the evidence,
    # its gradient and so the fitted kernel are bitwise those of y, and
    # alpha = K_y^{-1} y only changes sign
    for seed in range(4):
        spec, kern, data, _ = random_gp_instance(seed, n=12, noise=1e-3)
        flipped = replace(data, targets=-data.targets)
        a, b = (
            gp.fit_hyperparameters(kern, d, restarts=3, rng=np.random.default_rng(seed))
            for d in (data, flipped)
        )
        assert a.kernel.theta == b.kernel.theta
        assert a.log_evidence == b.log_evidence
        assert a.restart_evidences == b.restart_evidences
        assert a.evaluations == b.evaluations
        model, model_flipped = gp.fit(a.kernel, data), gp.fit(b.kernel, flipped)
        assert model_flipped.alpha.tobytes() == (-model.alpha).tobytes()


def test_fit_hyperparameters_never_worse_than_start():
    spec, kern, data, _ = random_gp_instance(5, n=10, noise=1e-2)
    start_lml = oracles.log_evidence(gp.fit(kern, data))
    result = gp.fit_hyperparameters(kern, data, restarts=1)
    assert result.log_evidence >= start_lml - 1e-9


def test_fit_hyperparameters_requires_data(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    with pytest.raises(ValueError, match="at least one observation"):
        gp.fit_hyperparameters(kern, gp.Dataset.create(no_rows(spec), []))
    with pytest.raises(ValueError, match="restarts"):
        gp.fit_hyperparameters(kern, gp.Dataset.create(no_rows(spec), []), restarts=0)


def _cap_instance():
    """c0 follows sin(8 x) and fits below a cap of 0.5 (g(t) = 2 at
    theta0 = 1); c1 is nearly linear and fits above it."""
    spec = chain_space((1, 1))
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(30, 2))
    pts = [linearize(spec, 0, x) for x in X]
    data = gp.Dataset.create(pts, np.sin(8 * X[:, 0]) + 0.2 * X[:, 1], noise=1e-4)
    return AddTreeKernel.default(spec), data


def _lengthscales(kernel):
    return [x for x, nm in zip(kernel.theta, kernel.param_names()) if not nm.endswith("::scale")]


def test_lengthscale_cap_bounds_the_search():
    # the cap is the top of the lengthscale box, so the fit returns the best
    # kernel in it: c1 ends at the cap, the reported evidence is that
    # kernel's, and it is no lower than the evidence of the uncapped optimum
    # with its lengthscales clipped to the cap
    kern, data = _cap_instance()
    free, capped = (
        gp.fit_hyperparameters(
            kern, data, restarts=2, rng=np.random.default_rng(1), lengthscale_cap=cap
        )
        for cap in (None, 0.5)
    )
    assert kern.param_names() == ["c0::ls0", "c0::scale", "c1::ls0", "c1::scale"]
    assert free.kernel.theta[0] < 0.5 < free.kernel.theta[2]
    assert max(_lengthscales(capped.kernel)) <= 0.5
    assert capped.kernel.theta[2] == pytest.approx(0.5, rel=1e-12)
    returned = oracles.log_evidence(gp.fit(capped.kernel, data))
    assert capped.log_evidence == pytest.approx(returned, rel=1e-9)
    clipped = replace(free.kernel, theta=np.minimum(free.kernel.theta, (0.5, np.inf, 0.5, np.inf)))
    assert returned >= oracles.log_evidence(gp.fit(clipped, data))


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_capped_fit_reports_the_evidence_of_the_kernel_it_returns(kind):
    # under a binding cap no fitted lengthscale exceeds it, and the reported
    # evidence is the returned kernel's, not that of an optimum beyond the cap
    for seed in (0, 1, 2, 4):  # seed 3's tree has no continuous variable
        _, kern, data, _ = random_gp_instance(seed, n=12, noise=1e-3, kind=kind)
        free = gp.fit_hyperparameters(kern, data, restarts=2, rng=np.random.default_rng(seed))
        cap = 0.5 * min(_lengthscales(free.kernel))
        result = gp.fit_hyperparameters(
            kern, data, restarts=2, rng=np.random.default_rng(seed), lengthscale_cap=cap
        )
        top = max(_lengthscales(result.kernel))
        assert top <= cap
        assert top == pytest.approx(cap, rel=1e-12)  # the cap binds
        assert result.log_evidence == pytest.approx(
            oracles.log_evidence(gp.fit(result.kernel, data)), rel=1e-9
        )


def test_cap_below_the_box_fixes_every_lengthscale_at_the_cap():
    kern, data = _cap_instance()
    assert 0.01 < gp.LENGTHSCALE_BOUNDS[0]
    result = gp.fit_hyperparameters(
        kern, data, restarts=3, rng=np.random.default_rng(0), lengthscale_cap=0.01
    )
    assert _lengthscales(result.kernel) == pytest.approx([0.01, 0.01], rel=1e-12)
    assert result.log_evidence == pytest.approx(
        oracles.log_evidence(gp.fit(result.kernel, data)), rel=1e-9
    )


@pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
def test_bad_lengthscale_cap_is_rejected_before_any_evaluation(monkeypatch, cap):
    kern, data = _cap_instance()
    built = []
    monkeypatch.setattr(gp, "_negative_evidence", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="lengthscale_cap must be positive"):
        gp.fit_hyperparameters(kern, data, restarts=2, lengthscale_cap=cap)
    assert built == []
