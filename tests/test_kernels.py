import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_kernel, random_points
from oracles import random_tree_spec
from treebo import bench
from treebo.kernels import AddTreeKernel, stack_points
from treebo.tree_space import VertexSpec, build_path_index, linearize, make_tree_spec


def k(kern, x, y):
    """The kernel between two linearized points."""
    return float(kern.gram_matrix(stack_points([x]), stack_points([y]))[0, 0])


def one_vertex(dim):
    spec = make_tree_spec([VertexSpec("v", dim, ((-100.0, 100.0),) * dim)], [])
    return spec, build_path_index(spec)


def vertex_kernel(kind, lengthscales, scale, a, b):
    """One vertex's base kernel between two value vectors: the add-tree
    kernel of a one-vertex tree."""
    spec, index = one_vertex(len(lengthscales))
    kern = AddTreeKernel(spec, index, (*lengthscales, scale), kind)
    return k(kern, linearize(spec, index, 0, a), linearize(spec, index, 0, b))


def test_base_kernel_identical_inputs_return_scale():
    assert vertex_kernel("se", (1.0,), 1.0, [0.3], [0.3]) == 1.0
    assert vertex_kernel("se", (1.0,), 2.5, [0.3], [0.3]) == 2.5


def test_base_kernel_se_closed_form():
    # independent scalar evaluation: exp(-0.5 * (2/1)^2) = exp(-2)
    expected = math.exp(-0.5 * ((0.0 - 2.0) / 1.0) ** 2)
    assert vertex_kernel("se", (1.0,), 1.0, [0.0], [2.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.1353352832366127, rel=1e-12)


def test_base_kernel_matern_at_zero_distance():
    for kind in ("matern32", "matern52"):
        assert vertex_kernel(kind, (1.0,), 1.0, [0.0], [0.0]) == 1.0


def test_base_kernel_matern_closed_forms():
    # scalar formulas written out independently of the vectorized path
    r = abs(0.7 - 0.1) / 0.5
    m32 = (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    m52 = (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
    assert vertex_kernel("matern32", (0.5,), 2.0, [0.7], [0.1]) == pytest.approx(2 * m32, rel=1e-12)
    assert vertex_kernel("matern52", (0.5,), 2.0, [0.7], [0.1]) == pytest.approx(2 * m52, rel=1e-12)


def test_base_kernel_dimension_mismatch(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    X = stack_points([linearize(spec, index, 0, [0.0, 0.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match="expects 2-dim values, got 1"):
        kern.component_cross("root", [[0.0]], X)


def test_base_kernel_correlation_in_unit_interval():
    rng = np.random.default_rng(0)
    for kind in ("se", "matern32", "matern52"):
        for _ in range(100):
            a, b = rng.normal(size=2, scale=3), rng.normal(size=2, scale=3)
            v = vertex_kernel(kind, (0.7, 1.3), 1.0, a, b)
            assert 0.0 < v <= 1.0
            assert v == pytest.approx(
                oracles.base_kernel(kind, (0.7, 1.3), 1.0, a, b), rel=1e-12
            )


def test_params_validation():
    spec, index = one_vertex(1)
    for theta in ((0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            AddTreeKernel(spec, index, theta)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        AddTreeKernel(spec, index, (1.0, 1.0), "cubic")
    with pytest.raises(ValueError, match="zero_dim"):
        AddTreeKernel(spec, index, (1.0, 1.0), zero_dim="bogus")
    for theta in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="expected 2 hyperparameters"):
            AddTreeKernel(spec, index, theta)


@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-5, 5),
    st.sampled_from(["se", "matern32", "matern52"]),
)
@settings(max_examples=80, deadline=None)
def test_base_kernel_stationary_and_symmetric(a, b, shift, kind):
    k0 = vertex_kernel(kind, (0.8,), 1.4, [a], [b])
    assert vertex_kernel(kind, (0.8,), 1.4, [b], [a]) == k0
    assert vertex_kernel(kind, (0.8,), 1.4, [a + shift], [b + shift]) == pytest.approx(
        k0, rel=1e-9
    )


# -- delta kernel ------------------------------------------------------------


def test_delta_shared_root(two_leaf):
    # a vertex's component covaries with exactly the rows whose path holds it
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    pts = [
        linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4]),
        linearize(spec, index, 1, [0.5, 0.6, 0.7, 0.8, 0.9]),
    ]
    X = stack_points(pts)
    rows = {
        vid: np.flatnonzero(kern.component_cross(vid, np.zeros(spec.vertex(vid).dim), X)[0])
        for vid in index.bfs_order
    }
    assert {vid: r.tolist() for vid, r in rows.items()} == {
        "root": [0, 1], "left": [0], "right": [1]
    }


# -- tree kernel -------------------------------------------------------------


def test_add_tree_same_leaf_sums_root_and_leaf(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 0, [-0.3, 0.0, 0.8, -0.2])
    expected = sum(
        oracles.base_kernel(
            *oracles.vertex_params(kern, vid),
            oracles.restrict(index, x, vid),
            oracles.restrict(index, y, vid),
        )
        for vid in ("root", "left")
    )
    assert k(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_cross_leaf_root_only(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    expected = oracles.base_kernel(
        *oracles.vertex_params(kern, "root"),
        oracles.restrict(index, x, "root"),
        oracles.restrict(index, y, "root"),
    )
    assert k(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_identical_point_counts_path_scales(binary_depth3):
    spec, index = binary_depth3
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 2, [0.5, 0.25])
    # path has 3 vertices, each with unit output scale
    assert k(kern, x, x) == pytest.approx(3.0, rel=1e-12)


def test_add_tree_symmetry_exact():
    rng = np.random.default_rng(3)
    for seed in range(10):
        spec = random_tree_spec(seed)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng)
        pts = random_points(spec, index, rng, 6)
        for x in pts:
            for y in pts:
                assert k(kern, x, y) == k(kern, y, x)


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_add_tree_matches_vertex_sum_oracle(zero_dim):
    # brute force over every tree vertex, for each kernel kind: the base
    # kernel on the restrictions wherever the vertex is on both leaf paths
    rng = np.random.default_rng(11)
    for seed in range(15):
        spec = random_tree_spec(seed)
        index = build_path_index(spec)
        for kind in ("se", "matern32", "matern52"):
            kern = random_kernel(spec, index, rng, zero_dim=zero_dim, kind=kind)
            pts = random_points(spec, index, rng, 5)
            expected = [[oracles.add_tree(kern, x, y) for y in pts] for x in pts]
            np.testing.assert_allclose(
                kern.gram_matrix(stack_points(pts)), expected, rtol=0, atol=1e-12
            )


def test_gram_block_structure(two_leaf):
    # two-leaf tree: Gram == root-only Gram + blockdiag(leaf Grams)
    spec, index = two_leaf
    rng = np.random.default_rng(5)
    kern = random_kernel(spec, index, rng)
    pts = []
    for leaf in (0, 0, 1, 1):
        bounds = index.leaf_bounds(leaf)
        vals = [rng.uniform(lo, hi) for lo, hi in bounds]
        pts.append(linearize(spec, index, leaf, vals))
    K = kern.gram_matrix(stack_points(pts))

    def term(vid, i, j):
        return oracles.base_kernel(
            *oracles.vertex_params(kern, vid),
            oracles.restrict(index, pts[i], vid),
            oracles.restrict(index, pts[j], vid),
        )

    n = len(pts)
    root_block = np.zeros((n, n))
    leaf_block = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            root_block[i, j] = term("root", i, j)
            if pts[i].active_leaf == pts[j].active_leaf:
                leaf_block[i, j] = term(index.leaf_ids[pts[i].active_leaf], i, j)
    expected = root_block + leaf_block
    np.testing.assert_allclose(K, expected, rtol=1e-12)


def test_gram_single_point_is_summed_scales(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, output_scale=1.5)
    p = linearize(spec, index, 0, [0, 0, 0, 0])
    K = kern.gram_matrix(stack_points([p]))
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_gram_psd_on_random_trees():
    rng = np.random.default_rng(7)
    for seed in range(20):
        spec = random_tree_spec(seed, max_depth=3, max_fanout=3)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng)
        pts = random_points(spec, index, rng, 50)
        K = kern.gram_matrix(stack_points(pts))
        np.testing.assert_allclose(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs[0] >= -1e-8 * max(eigs[-1], 1.0)


def test_zero_dim_policy_changes_cross_leaf_covariance():
    spec = bench.jenatton_objective().spec
    index = build_path_index(spec)
    x = linearize(spec, index, 0, [0.5, 0.0])
    y = linearize(spec, index, 2, [0.5, 0.0])  # other branch: shares only the root
    const = AddTreeKernel.default(spec, index, zero_dim="constant")
    zero = AddTreeKernel.default(spec, index, zero_dim="zero")
    assert k(const, x, y) == pytest.approx(1.0)  # root output scale
    assert k(zero, x, y) == 0.0
    # diagonal: constant counts the root, zero does not
    assert k(const, x, x) == pytest.approx(3.0)
    assert k(zero, x, x) == pytest.approx(2.0)


def test_stationarity_per_vertex(two_leaf):
    # translating both restrictions at one vertex leaves its contribution fixed
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, lengthscale=0.9)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 0, [-0.1, 0.0, 0.5, 0.1])
    shift = 0.37
    xs = linearize(spec, index, 0, [0.1 + shift, 0.2, 0.3, 0.4])
    ys = linearize(spec, index, 0, [-0.1 + shift, 0.0, 0.5, 0.1])
    assert k(kern, xs, ys) == pytest.approx(k(kern, x, y), rel=1e-12)


def test_log_param_round_trip(two_leaf):
    spec, index = two_leaf
    rng = np.random.default_rng(9)
    kern = random_kernel(spec, index, rng)
    vec = kern.get_log_params()
    back = kern.with_log_params(vec)
    np.testing.assert_allclose(back.get_log_params(), vec, rtol=1e-12)
    assert back.kind == kern.kind
    np.testing.assert_allclose(back.theta, kern.theta, rtol=1e-12)


def test_config_round_trip(two_leaf, jenatton):
    # Jenatton's root has no variables, so zero_dim changes its parameters
    # random tree 3 is one dim-0 vertex: under "zero" nothing contributes
    # and there is no shared scale to tie
    rng = np.random.default_rng(10)
    lone = random_tree_spec(3, max_dim=2)
    for spec, index in (two_leaf, (jenatton.spec, jenatton.index), (lone, build_path_index(lone))):
        for zero_dim in ("constant", "zero"):
            for tied in (False, True):
                kern = random_kernel(spec, index, rng, zero_dim=zero_dim, tied_scales=tied)
                record = json.loads(json.dumps(kern.to_config()))
                back = AddTreeKernel.from_config(spec, index, record)
                assert back == kern
                assert back.param_names() == kern.param_names()
                np.testing.assert_array_equal(back.get_log_params(), kern.get_log_params())
                X = stack_points(random_points(spec, index, rng, 4))
                np.testing.assert_array_equal(back.gram_matrix(X), kern.gram_matrix(X))

    # records that do not fit the kernel: Jenatton has 7 vertices, all of
    # them contributing under "constant"
    spec, index = jenatton.spec, jenatton.index
    record = AddTreeKernel.default(spec, index, tied_scales=True).to_config()
    ghost = json.loads(json.dumps(record))
    ghost["params"]["ghost"] = {"lengthscales": [], "output_scale": 1.0}
    missing = json.loads(json.dumps(record))
    del missing["params"]["leaf00"]
    for bad in (ghost, missing, dict(record, zero_dim="zero")):
        with pytest.raises(ValueError, match="contributing vertices"):
            AddTreeKernel.from_config(spec, index, bad)
    count = json.loads(json.dumps(record))
    count["params"]["leaf00"]["lengthscales"] = [1.0, 1.0]
    with pytest.raises(ValueError, match="'leaf00': 2 lengthscales for dim 1"):
        AddTreeKernel.from_config(spec, index, count)
    unequal = json.loads(json.dumps(record))
    unequal["params"]["leaf00"]["output_scale"] = 2.0
    with pytest.raises(ValueError, match="tied output scales differ"):
        AddTreeKernel.from_config(spec, index, unequal)
    AddTreeKernel.from_config(spec, index, dict(unequal, tied_scales=False))


def test_gram_grads_match_finite_differences():
    # The block engine against a dense oracle, for every kind x zero_dim x
    # tied: K bitwise against gram_matrix on the reordered rows of the
    # kernel the same log vector builds (as a fit does), each derivative
    # block scattered into an n x n matrix against central differences of
    # gram_matrix.  The depth-4 trees have
    # leaves at three depths, and BFS leaf order splits one of their
    # subtrees; trees 9, 11 and 32 have contributing dim-0 vertices.
    def bfs_splits_a_subtree(index):
        for vid in index.bfs_order:
            leaves = [i for i, path in enumerate(index.leaf_paths) if vid in path]
            if leaves[-1] - leaves[0] + 1 != len(leaves):
                return True
        return False

    rng = np.random.default_rng(13)
    saw_dim0 = False
    for seed, depth in ((0, 3), (4, 3), (9, 3), (11, 4), (32, 4)):
        spec = random_tree_spec(seed, max_depth=depth, max_dim=2)
        index = build_path_index(spec)
        assert bfs_splits_a_subtree(index) == (depth == 4)
        for kind, zero_dim, tied in itertools.product(
            ("se", "matern32", "matern52"), ("constant", "zero"), (False, True)
        ):
            start = AddTreeKernel.default(
                spec, index, kind=kind, zero_dim=zero_dim, tied_scales=tied
            )
            vec = rng.uniform(-1.0, 1.0, len(start.param_names()))
            kern = start.with_log_params(vec)
            X = stack_points(random_points(spec, index, rng, 12))
            blocks = kern.vertex_blocks(X)
            X = X[blocks.order]
            for vid, s in zip(blocks.vertices, blocks.slices):  # R_v is the slice
                on = X[:, index.offsets[vid][0]] >= 0
                np.testing.assert_array_equal(np.flatnonzero(on), np.arange(X.shape[0])[s])
            saw_dim0 |= any(spec.vertex(vid).dim == 0 for vid in blocks.vertices)
            K, grads = kern.gram_and_grads(blocks, vec)
            np.testing.assert_array_equal(K, kern.gram_matrix(X))
            # a kernel at its own log vector: bitwise where exp(log(x)) is x,
            # as for the start's ones, else to that round trip's round-off
            np.testing.assert_array_equal(
                start.gram_and_grads(blocks, start.get_log_params())[0], start.gram_matrix(X)
            )
            np.testing.assert_allclose(
                kern.gram_and_grads(blocks, kern.get_log_params())[0], K, rtol=1e-12, atol=0
            )
            assert len(grads) == len(blocks.param_slices) == len(vec)
            h = 1e-6
            for k, (s, G) in enumerate(zip(blocks.param_slices, grads)):
                full = np.zeros_like(K)
                full[s, s] = G
                up, dn = vec.copy(), vec.copy()
                up[k] += h
                dn[k] -= h
                fd = (
                    kern.with_log_params(up).gram_matrix(X)
                    - kern.with_log_params(dn).gram_matrix(X)
                ) / (2 * h)
                np.testing.assert_allclose(full, fd, atol=1e-6)
    assert saw_dim0


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_diag_and_component_cross_agree_with_gram(zero_dim):
    rng = np.random.default_rng(19)
    for seed in range(10):
        spec = random_tree_spec(seed)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng, zero_dim=zero_dim)
        X = stack_points(random_points(spec, index, rng, 8))
        np.testing.assert_array_equal(kern.diag(X), np.diag(kern.gram_matrix(X)))
        for q in random_points(spec, index, rng, 3):
            total = sum(
                kern.component_cross(vid, oracles.restrict(index, q, vid), X)[0]
                for vid in index.leaf_paths[q.active_leaf]
            )
            expected = kern.gram_matrix(q.slots[None, :], X)[0]
            np.testing.assert_allclose(total, expected, rtol=1e-13, atol=0)
