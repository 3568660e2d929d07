import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_kernel, random_points
from oracles import random_tree_spec
from treebo import bench
from treebo.kernels import AddTreeKernel
from treebo.tree_space import VertexSpec, linearize, make_tree_spec


def k(kern, x, y):
    """The kernel between two slot rows."""
    return float(kern.gram_matrix(x[None], y[None])[0, 0])


def one_vertex(dim):
    return make_tree_spec([VertexSpec("v", dim, ((-100.0, 100.0),) * dim)], [])


def vertex_kernel(kind, lengthscales, scale, a, b):
    """One vertex's base kernel between two value vectors: the add-tree
    kernel of a one-vertex tree."""
    spec = one_vertex(len(lengthscales))
    kern = AddTreeKernel(spec, (*lengthscales, scale), kind)
    return k(kern, linearize(spec, 0, a), linearize(spec, 0, b))


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
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    X = linearize(spec, 0, [0.0, 0.0, 0.0, 0.0])[None]
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
    spec = one_vertex(1)
    for theta in ((0.0, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            AddTreeKernel(spec, theta)
    with pytest.raises(ValueError, match="unknown kernel kind"):
        AddTreeKernel(spec, (1.0, 1.0), "cubic")
    for theta in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="expected 2 hyperparameters"):
            AddTreeKernel(spec, theta)


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
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    X = np.array([
        linearize(spec, 0, [0.1, 0.2, 0.3, 0.4]),
        linearize(spec, 1, [0.5, 0.6, 0.7, 0.8, 0.9]),
    ])
    rows = {
        vid: np.flatnonzero(kern.component_cross(vid, np.zeros(spec.vertex(vid).dim), X)[0])
        for vid in spec.bfs_order
    }
    assert {vid: r.tolist() for vid, r in rows.items()} == {
        "root": [0, 1], "left": [0], "right": [1]
    }


# -- tree kernel -------------------------------------------------------------


def test_add_tree_same_leaf_sums_root_and_leaf(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    x = linearize(spec, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, 0, [-0.3, 0.0, 0.8, -0.2])
    expected = sum(
        oracles.base_kernel(
            *oracles.vertex_params(kern, vid),
            oracles.restrict(spec, 0, x, vid),
            oracles.restrict(spec, 0, y, vid),
        )
        for vid in ("root", "left")
    )
    assert k(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_cross_leaf_root_only(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec)
    x = linearize(spec, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    expected = oracles.base_kernel(
        *oracles.vertex_params(kern, "root"),
        oracles.restrict(spec, 0, x, "root"),
        oracles.restrict(spec, 1, y, "root"),
    )
    assert k(kern, x, y) == pytest.approx(expected, rel=1e-12)


def test_add_tree_identical_point_counts_path_scales(binary_depth3):
    spec = binary_depth3
    kern = AddTreeKernel.default(spec)
    x = linearize(spec, 2, [0.5, 0.25])
    # path has 3 vertices, each with unit output scale
    assert k(kern, x, x) == pytest.approx(3.0, rel=1e-12)


def test_add_tree_symmetry_exact():
    rng = np.random.default_rng(3)
    for seed in range(10):
        spec = random_tree_spec(seed)
        kern = random_kernel(spec, rng)
        _, X = random_points(spec, rng, 6)
        for x in X:
            for y in X:
                assert k(kern, x, y) == k(kern, y, x)


def test_add_tree_matches_vertex_sum_oracle():
    # brute force over every tree vertex, for each kernel kind: the base
    # kernel on the restrictions wherever the vertex is on both leaf paths
    rng = np.random.default_rng(11)
    for seed in range(15):
        spec = random_tree_spec(seed)
        for kind in ("se", "matern32", "matern52"):
            kern = random_kernel(spec, rng, kind=kind)
            leaves, X = random_points(spec, rng, 5)
            pts = list(zip(leaves, X))
            expected = [[oracles.add_tree(kern, *x, *y) for y in pts] for x in pts]
            np.testing.assert_allclose(kern.gram_matrix(X), expected, rtol=0, atol=1e-12)


def test_gram_block_structure(two_leaf):
    # two-leaf tree: Gram == root-only Gram + blockdiag(leaf Grams)
    spec = two_leaf
    rng = np.random.default_rng(5)
    kern = random_kernel(spec, rng)
    leaves = (0, 0, 1, 1)
    rows = []
    for leaf in leaves:
        bounds = spec.leaf_bounds(leaf)
        vals = [rng.uniform(lo, hi) for lo, hi in bounds]
        rows.append(linearize(spec, leaf, vals))
    X = np.array(rows)
    K = kern.gram_matrix(X)

    def term(vid, i, j):
        return oracles.base_kernel(
            *oracles.vertex_params(kern, vid),
            oracles.restrict(spec, leaves[i], X[i], vid),
            oracles.restrict(spec, leaves[j], X[j], vid),
        )

    n = len(leaves)
    root_block = np.zeros((n, n))
    leaf_block = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            root_block[i, j] = term("root", i, j)
            if leaves[i] == leaves[j]:
                leaf_block[i, j] = term(spec.leaf_ids[leaves[i]], i, j)
    expected = root_block + leaf_block
    np.testing.assert_allclose(K, expected, rtol=1e-12)


def test_gram_single_point_is_summed_scales(two_leaf):
    spec = two_leaf
    kern = AddTreeKernel.default(spec, output_scale=1.5)
    p = linearize(spec, 0, [0, 0, 0, 0])
    K = kern.gram_matrix(p[None])
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(3.0, rel=1e-12)


def test_gram_psd_on_random_trees():
    rng = np.random.default_rng(7)
    for seed in range(20):
        spec = random_tree_spec(seed, max_depth=3, max_fanout=3)
        kern = random_kernel(spec, rng)
        _, X = random_points(spec, rng, 50)
        K = kern.gram_matrix(X)
        np.testing.assert_allclose(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs[0] >= -1e-8 * max(eigs[-1], 1.0)


@pytest.mark.parametrize("tied", [False, True])
def test_gram_of_one_row_set_equals_the_gram_against_its_copy(tied):
    # with B omitted the kernel reads each vertex's block of A once and uses
    # it for both sides; the result is the same bits as against a copy of A
    rng = np.random.default_rng(17)
    for seed in range(12):
        spec = random_tree_spec(seed, max_depth=3, max_fanout=3)
        for kind in ("se", "matern32", "matern52"):
            kern = random_kernel(spec, rng, kind=kind, tied_scales=tied)
            _, X = random_points(spec, rng, 30)
            K = kern.gram_matrix(X)
            assert K.tobytes() == kern.gram_matrix(X, X.copy()).tobytes()
    assert AddTreeKernel.default(spec).gram_matrix(X[:0]).shape == (0, 0)


def test_stationarity_per_vertex(two_leaf):
    # translating both restrictions at one vertex leaves its contribution fixed
    spec = two_leaf
    kern = AddTreeKernel.default(spec, lengthscale=0.9)
    x = linearize(spec, 0, [0.1, 0.2, 0.3, 0.4])
    y = linearize(spec, 0, [-0.1, 0.0, 0.5, 0.1])
    shift = 0.37
    xs = linearize(spec, 0, [0.1 + shift, 0.2, 0.3, 0.4])
    ys = linearize(spec, 0, [-0.1 + shift, 0.0, 0.5, 0.1])
    assert k(kern, xs, ys) == pytest.approx(k(kern, x, y), rel=1e-12)


def test_log_param_round_trip(two_leaf):
    spec = two_leaf
    rng = np.random.default_rng(9)
    kern = random_kernel(spec, rng)
    vec = kern.get_log_params()
    back = replace(kern, theta=np.exp(vec))
    np.testing.assert_allclose(back.get_log_params(), vec, rtol=1e-12)
    assert back.kind == kern.kind
    np.testing.assert_allclose(back.theta, kern.theta, rtol=1e-12)


def test_config_round_trip(two_leaf, jenatton):
    # Jenatton's root has no variables and random tree 3 is one dim-0
    # vertex; each still has its scale.  After a JSON round trip the record
    # holds every vertex's theta entries as param_names() names them.
    rng = np.random.default_rng(10)
    lone = random_tree_spec(3, max_dim=2)
    for spec in (two_leaf, jenatton.spec, lone):
        for tied in (False, True):
            kern = random_kernel(spec, rng, tied_scales=tied)
            record = json.loads(json.dumps(kern.to_config()))
            assert (record["kind"], record["tied_scales"]) == (kern.kind, tied)
            theta = dict(zip(kern.param_names(), kern.theta))
            assert list(record["params"]) == list(spec.bfs_order)
            for vid in spec.bfs_order:
                assert record["params"][vid] == {
                    "lengthscales": [
                        theta[f"{vid}::ls{d}"] for d in range(spec.vertex(vid).dim)
                    ],
                    "output_scale": theta["shared::scale" if tied else f"{vid}::scale"],
                }


def test_gram_grads_match_finite_differences():
    # The packed engine against a dense oracle, for every kind x tied: each
    # vertex's entries are exactly the lower triangle (i >= j) of R_v x R_v,
    # K is bitwise gram_matrix of the kernel the same log vector builds (as
    # a fit does), and each parameter's per-entry derivatives, scattered
    # into an n x n matrix and mirrored, match central differences of
    # gram_matrix.  Trees 9, 11 and 32 have dim-0 vertices; every tree has
    # 2-dim vertices.
    rng = np.random.default_rng(13)
    saw_dim0 = False
    for seed, depth in ((0, 3), (4, 3), (9, 3), (11, 4), (32, 4)):
        spec = random_tree_spec(seed, max_depth=depth, max_dim=2)
        for kind, tied in itertools.product(("se", "matern32", "matern52"), (False, True)):
            start = AddTreeKernel.default(spec, kind=kind, tied_scales=tied)
            vec = rng.uniform(-1.0, 1.0, len(start.param_names()))
            kern = replace(start, theta=np.exp(vec))
            leaves, X = random_points(spec, rng, 12)
            n = X.shape[0]
            blocks = kern.vertex_blocks(X)
            pos, starts = 0, []  # entries vertex after vertex
            for vid in spec.bfs_order:
                saw_dim0 |= spec.vertex(vid).dim == 0
                R = np.array([i for i, lf in enumerate(leaves) if oracles.on_path(spec, vid, lf)])
                if R.size:  # a vertex on no row's path has no block
                    starts.append(pos)
                    lower = [i + j * n for i in R for j in R if i >= j]  # column-major
                    np.testing.assert_array_equal(blocks.flat[pos : pos + len(lower)], lower)
                    pos += len(lower)
            np.testing.assert_array_equal(blocks.starts, starts)
            assert blocks.flat.size == pos
            # copies: every call returns the blocks' own buffers
            # the lower triangle, zeros above
            K, dK = (out.copy() for out in kern.gram_and_grads(blocks, vec))
            np.testing.assert_array_equal(K, np.tril(kern.gram_matrix(X)))
            # a kernel at its own log vector: bitwise where exp(log(x)) is x,
            # as for the start's ones, else to that round trip's round-off
            np.testing.assert_array_equal(
                start.gram_and_grads(blocks, start.get_log_params())[0],
                np.tril(start.gram_matrix(X)),
            )
            np.testing.assert_allclose(
                kern.gram_and_grads(blocks, kern.get_log_params())[0], K, rtol=1e-12, atol=0
            )
            sizes = np.diff(blocks.starts, append=blocks.flat.size)
            param_index = np.repeat(blocks.param_index, sizes, axis=1)
            assert dK.shape == param_index.shape
            assert not dK[param_index == len(vec)].any()  # padding slots
            flat = np.broadcast_to(blocks.flat, dK.shape)
            h = 1e-6
            for k in range(len(vec)):
                mine = param_index == k
                full = np.bincount(flat[mine], dK[mine], minlength=n * n).reshape(
                    n, n, order="F"
                )
                full += np.tril(full, -1).T
                up, dn = vec.copy(), vec.copy()
                up[k] += h
                dn[k] -= h
                fd = (
                    replace(kern, theta=np.exp(up)).gram_matrix(X)
                    - replace(kern, theta=np.exp(dn)).gram_matrix(X)
                ) / (2 * h)
                np.testing.assert_allclose(full, fd, atol=1e-6)
    assert saw_dim0



def test_gram_and_grads_temporaries_stay_near_its_output():
    # glibc gives the free top of its heap back to the system, and faults it
    # in again on the next call, once it passes a trim threshold of about
    # 0.5 MB in a process that has freed no larger block.  gram_and_grads
    # writes only into the blocks' buffers, so on the 26-d tree at n = 100
    # its temporaries peak at 0.02x its output (np.add.at's own); building
    # the output afresh they peaked at 1.6x it, and at 2.7x before that
    objective = bench.random_tree_objective(3, 3, 2, 0)
    rng = np.random.default_rng(1)
    X = np.array([
        linearize(objective.spec, *bench.sample_branch_walk(objective.spec, rng))
        for _ in range(100)
    ])
    kern = AddTreeKernel.default(objective.spec, "se")
    blocks = kern.vertex_blocks(X)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        K, dK = kern.gram_and_grads(blocks, kern.get_log_params())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 0.1 * (K.nbytes + dK.nbytes)

def test_component_prior_variance_rejects_an_unknown_vertex(jenatton):
    kern = AddTreeKernel.default(jenatton.spec, output_scale=0.7)
    assert kern.component_prior_variance("root") == 0.7  # dim-0: its scale
    with pytest.raises(KeyError, match="'nO'"):
        kern.component_prior_variance("nO")  # a typo of "n0"


def test_diag_and_component_cross_agree_with_gram():
    rng = np.random.default_rng(19)
    for seed in range(10):
        spec = random_tree_spec(seed)
        kern = random_kernel(spec, rng)
        _, X = random_points(spec, rng, 8)
        np.testing.assert_array_equal(kern.diag(X), np.diag(kern.gram_matrix(X)))
        for leaf, q in zip(*random_points(spec, rng, 3)):
            total = sum(
                kern.component_cross(vid, oracles.restrict(spec, leaf, q, vid), X)[0]
                for vid in spec.leaf_paths[leaf]
            )
            expected = kern.gram_matrix(q[None, :], X)[0]
            np.testing.assert_allclose(total, expected, rtol=1e-13, atol=0)
