import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel, random_points
from treebo import bench
from treebo.kernels import (
    AddTreeKernel,
    BaseKernelParams,
    add_tree_eval,
    base_kernel_eval,
    delta_eval,
    gram,
    stack_points,
)
from treebo.tree_space import build_path_index, linearize, restrict


def se(ls=1.0, scale=1.0, dim=1):
    return BaseKernelParams("se", tuple([ls] * dim), scale)


def test_base_kernel_identical_inputs_return_scale():
    assert base_kernel_eval(se(), [0.3], [0.3]) == 1.0
    assert base_kernel_eval(se(scale=2.5), [0.3], [0.3]) == 2.5


def test_base_kernel_se_closed_form():
    # independent scalar evaluation: exp(-0.5 * (2/1)^2) = exp(-2)
    expected = math.exp(-0.5 * ((0.0 - 2.0) / 1.0) ** 2)
    assert base_kernel_eval(se(), [0.0], [2.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.1353352832366127, rel=1e-12)


def test_base_kernel_matern_at_zero_distance():
    for kind in ("matern32", "matern52"):
        p = BaseKernelParams(kind, (1.0,), 1.0)
        assert base_kernel_eval(p, [0.0], [0.0]) == 1.0


def test_base_kernel_matern_closed_forms():
    # scalar formulas written out independently of the vectorized path
    r = abs(0.7 - 0.1) / 0.5
    m32 = (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    m52 = (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
    p32 = BaseKernelParams("matern32", (0.5,), 2.0)
    p52 = BaseKernelParams("matern52", (0.5,), 2.0)
    assert base_kernel_eval(p32, [0.7], [0.1]) == pytest.approx(2 * m32, rel=1e-12)
    assert base_kernel_eval(p52, [0.7], [0.1]) == pytest.approx(2 * m52, rel=1e-12)


def test_base_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="length 1"):
        base_kernel_eval(se(), [0.0, 1.0], [0.0])


def test_base_kernel_correlation_in_unit_interval():
    rng = np.random.default_rng(0)
    for kind in ("se", "matern32", "matern52"):
        p = BaseKernelParams(kind, (0.7, 1.3), 1.0)
        for _ in range(100):
            a, b = rng.normal(size=2, scale=3), rng.normal(size=2, scale=3)
            v = base_kernel_eval(p, a, b)
            assert 0.0 < v <= 1.0


def test_params_validation():
    with pytest.raises(ValueError, match="positive"):
        BaseKernelParams("se", (0.0,), 1.0)
    with pytest.raises(ValueError, match="positive"):
        BaseKernelParams("se", (1.0,), -1.0)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        BaseKernelParams("cubic", (1.0,), 1.0)


@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-5, 5),
    st.sampled_from(["se", "matern32", "matern52"]),
)
@settings(max_examples=80, deadline=None)
def test_base_kernel_stationary_and_symmetric(a, b, shift, kind):
    p = BaseKernelParams(kind, (0.8,), 1.4)
    k0 = base_kernel_eval(p, [a], [b])
    assert base_kernel_eval(p, [b], [a]) == k0
    assert base_kernel_eval(p, [a + shift], [b + shift]) == pytest.approx(k0, rel=1e-9)


# -- delta kernel ------------------------------------------------------------


def test_delta_shared_root(two_leaf):
    spec, index = two_leaf
    pa = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    pb = linearize(spec, index, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    assert delta_eval(index, "root", pa, pb) == 1
    assert delta_eval(index, "left", pa, pb) == 0
    assert delta_eval(index, "right", pa, pb) == 0
    for vid in ("root", "left"):
        assert delta_eval(index, vid, pa, pa) == 1


def test_delta_unknown_vertex(two_leaf):
    spec, index = two_leaf
    p = linearize(spec, index, 0, [0, 0, 0, 0])
    with pytest.raises(KeyError):
        delta_eval(index, "nope", p, p)


# -- tree kernel -------------------------------------------------------------


def test_add_tree_same_leaf_sums_root_and_leaf(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 0, [-0.3, 0.0, 0.8, -0.2])
    expected = base_kernel_eval(
        kern.params["root"], restrict(index, x, "root"), restrict(index, y, "root")
    ) + base_kernel_eval(
        kern.params["left"], restrict(index, x, "left"), restrict(index, y, "left")
    )
    assert add_tree_eval(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_cross_leaf_root_only(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    expected = base_kernel_eval(
        kern.params["root"], restrict(index, x, "root"), restrict(index, y, "root")
    )
    assert add_tree_eval(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_identical_point_counts_path_scales(binary_depth3):
    spec, index = binary_depth3
    kern = AddTreeKernel.default(spec, index)
    x = linearize(spec, index, 2, [0.5, 0.25])
    # path has 3 vertices, each with unit output scale
    assert add_tree_eval(kern, x, x) == pytest.approx(3.0, rel=1e-12)


def test_add_tree_symmetry_exact():
    rng = np.random.default_rng(3)
    for seed in range(10):
        spec = bench.random_tree_spec(seed)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng)
        pts = random_points(spec, index, rng, 6)
        for x in pts:
            for y in pts:
                assert add_tree_eval(kern, x, y) == add_tree_eval(kern, y, x)


@pytest.mark.parametrize("zero_dim", ["constant", "zero"])
def test_add_tree_matches_vertex_sum_oracle(zero_dim):
    # brute force over every tree vertex: delta times base kernel on restrictions
    rng = np.random.default_rng(11)
    for seed in range(15):
        spec = bench.random_tree_spec(seed)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng, zero_dim=zero_dim)
        pts = random_points(spec, index, rng, 5)
        for x in pts:
            for y in pts:
                total = 0.0
                for v in spec.vertices:
                    if zero_dim == "zero" and v.dim == 0:
                        continue
                    if delta_eval(index, v.id, x, y):
                        total += base_kernel_eval(
                            kern.params[v.id],
                            restrict(index, x, v.id),
                            restrict(index, y, v.id),
                        )
                assert add_tree_eval(kern, x, y) == pytest.approx(total, abs=1e-12)


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
    K = gram(kern, pts)

    n = len(pts)
    root_block = np.zeros((n, n))
    leaf_block = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            root_block[i, j] = base_kernel_eval(
                kern.params["root"],
                restrict(index, pts[i], "root"),
                restrict(index, pts[j], "root"),
            )
            if pts[i].active_leaf == pts[j].active_leaf:
                vid = index.leaf_ids[pts[i].active_leaf]
                leaf_block[i, j] = base_kernel_eval(
                    kern.params[vid],
                    restrict(index, pts[i], vid),
                    restrict(index, pts[j], vid),
                )
    expected = root_block + leaf_block
    np.testing.assert_allclose(K, expected, rtol=1e-12)


def test_gram_single_point_is_summed_scales(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, output_scale=1.5)
    p = linearize(spec, index, 0, [0, 0, 0, 0])
    K = gram(kern, [p])
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_gram_empty_list_rejected(two_leaf):
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index)
    with pytest.raises(ValueError):
        gram(kern, [])


def test_gram_psd_on_random_trees():
    rng = np.random.default_rng(7)
    for seed in range(20):
        spec = bench.random_tree_spec(seed, max_depth=3, max_fanout=3)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng)
        pts = random_points(spec, index, rng, 50)
        K = gram(kern, pts)
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
    assert add_tree_eval(const, x, y) == pytest.approx(1.0)  # root output scale
    assert add_tree_eval(zero, x, y) == 0.0
    # diagonal: constant counts the root, zero does not
    assert add_tree_eval(const, x, x) == pytest.approx(3.0)
    assert add_tree_eval(zero, x, x) == pytest.approx(2.0)


def test_stationarity_per_vertex(two_leaf):
    # translating both restrictions at one vertex leaves its contribution fixed
    spec, index = two_leaf
    kern = AddTreeKernel.default(spec, index, lengthscale=0.9)
    x = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, index, 0, [-0.1, 0.0, 0.5, 0.1])
    shift = 0.37
    xs = linearize(spec, index, 0, [0.1 + shift, 0.2, 0.3, 0.4])
    ys = linearize(spec, index, 0, [-0.1 + shift, 0.0, 0.5, 0.1])
    assert add_tree_eval(kern, xs, ys) == pytest.approx(
        add_tree_eval(kern, x, y), rel=1e-12
    )


def test_log_param_round_trip(two_leaf):
    spec, index = two_leaf
    rng = np.random.default_rng(9)
    kern = random_kernel(spec, index, rng)
    vec = kern.get_log_params()
    back = kern.with_log_params(vec)
    np.testing.assert_allclose(back.get_log_params(), vec, rtol=1e-12)
    for vid in index.bfs_order:
        assert back.params[vid].kind == kern.params[vid].kind
        np.testing.assert_allclose(
            back.params[vid].lengthscales, kern.params[vid].lengthscales, rtol=1e-12
        )


def test_config_round_trip(two_leaf, jenatton):
    # Jenatton's root has no variables, so zero_dim changes its parameters
    # random tree 3 is one dim-0 vertex: under "zero" nothing contributes
    # and there is no shared scale to tie
    rng = np.random.default_rng(10)
    lone = bench.random_tree_spec(3, max_dim=2)
    for spec, index in (two_leaf, (jenatton.spec, jenatton.index), (lone, build_path_index(lone))):
        for zero_dim in ("constant", "zero"):
            for tied in (False, True):
                kern = random_kernel(spec, index, rng, zero_dim=zero_dim)
                kern = replace(kern, tied_scales=tied)
                record = json.loads(json.dumps(kern.to_config()))
                back = AddTreeKernel.from_config(spec, index, record)
                assert back.param_names() == kern.param_names()
                np.testing.assert_array_equal(back.get_log_params(), kern.get_log_params())
                pts = random_points(spec, index, rng, 4)
                np.testing.assert_array_equal(back.gram(pts), kern.gram(pts))


def test_gram_grads_match_finite_differences():
    # The block engine against a dense oracle: K bitwise against gram_matrix
    # on the reordered rows of the kernel the same log vector builds (as a
    # fit does), each derivative block scattered into an n x n matrix
    # against central differences of gram_matrix.  The depth-4 trees have
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
        spec = bench.random_tree_spec(seed, max_depth=depth, max_dim=2)
        index = build_path_index(spec)
        assert bfs_splits_a_subtree(index) == (depth == 4)
        for kind, zero_dim, tied in itertools.product(
            ("se", "matern32", "matern52", "mixed"), ("constant", "zero"), (False, True)
        ):
            if kind == "mixed":
                kern = random_kernel(spec, index, rng, zero_dim=zero_dim)
            else:
                kern = AddTreeKernel.default(spec, index, kind=kind, zero_dim=zero_dim)
            kern = replace(kern, tied_scales=tied)
            vec = rng.uniform(-1.0, 1.0, len(kern.param_names()))
            kern = kern.with_log_params(vec)
            X = stack_points(random_points(spec, index, rng, 12))
            blocks = kern.vertex_blocks(X)
            X = X[blocks.order]
            for vid, s in zip(blocks.vertices, blocks.slices):  # R_v is the slice
                on = X[:, index.offsets[vid][0]] >= 0
                np.testing.assert_array_equal(np.flatnonzero(on), np.arange(X.shape[0])[s])
            saw_dim0 |= any(spec.vertex(vid).dim == 0 for vid in blocks.vertices)
            K, grads = kern.gram_and_grads(blocks, vec)
            np.testing.assert_array_equal(K, kern.gram_matrix(X))
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
        spec = bench.random_tree_spec(seed)
        index = build_path_index(spec)
        kern = random_kernel(spec, index, rng, zero_dim=zero_dim)
        X = stack_points(random_points(spec, index, rng, 8))
        np.testing.assert_array_equal(kern.diag(X), np.diag(kern.gram_matrix(X)))
        for q in random_points(spec, index, rng, 3):
            total = sum(
                kern.component_cross(vid, restrict(index, q, vid), X)[0]
                for vid in index.leaf_paths[q.active_leaf]
            )
            expected = kern.gram_matrix(q.slots[None, :], X)[0]
            np.testing.assert_allclose(total, expected, rtol=1e-13, atol=0)
