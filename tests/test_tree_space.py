import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_tree_spec, restrict
from treebo import bench
from treebo.tree_space import (
    TreeSpecError,
    VertexSpec,
    build_path_index,
    linearize,
    make_tree_spec,
    parse_tree_spec,
)


def test_parse_two_leaf(two_leaf):
    spec, index = two_leaf
    assert spec.root_id == "root"
    assert spec.total_dimension == 8
    assert index.n_leaves == 2
    assert index.effective_dims == (4, 5)
    assert index.width == 10  # 3 tags + 7 value slots


def test_parse_single_vertex():
    spec = parse_tree_spec("vertex only 1 0 1\n")
    index = build_path_index(spec)
    assert spec.root_id == "only"
    assert index.leaf_ids == ("only",)
    assert index.leaf_paths == (("only",),)
    assert index.effective_dims == (1,)


def test_parse_rejects_duplicate_branch_label():
    text = """
    vertex a 1 0 1
    vertex b 1 0 1
    vertex c 1 0 1
    edge a 0 b
    edge a 0 c
    """
    with pytest.raises(TreeSpecError, match="'a'.*duplicate branch label 0"):
        parse_tree_spec(text)


def test_parse_rejects_inverted_bounds():
    with pytest.raises(TreeSpecError, match="'a'"):
        parse_tree_spec("vertex a 1 1 0\n")


def test_parse_rejects_noncontiguous_labels():
    text = "vertex a 0\nvertex b 0\nedge a 1 b\n"
    with pytest.raises(TreeSpecError, match="not contiguous"):
        parse_tree_spec(text)


def test_parse_rejects_two_parents():
    text = """
    vertex a 0
    vertex b 0
    vertex c 0
    edge a 0 b
    edge a 1 c
    edge b 0 c
    """
    with pytest.raises(TreeSpecError, match="'c' has more than one parent"):
        parse_tree_spec(text)


def test_parse_rejects_cycle():
    text = "vertex a 0\nvertex b 0\nedge a 0 b\nedge b 0 a\n"
    with pytest.raises(TreeSpecError):
        parse_tree_spec(text)


def test_parse_rejects_unknown_edge_endpoint():
    with pytest.raises(TreeSpecError, match="unknown child 'ghost'"):
        parse_tree_spec("vertex a 0\nedge a 0 ghost\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TreeSpecError, match="line 1"):
        parse_tree_spec("vertex a one 0 1\n")


def test_parse_rejects_negative_dim_before_counting_bounds():
    # not "needs -2 bound values, got 0"
    for text, message in [
        ("vertex a -1\n", "line 1: vertex 'a' has negative dim -1$"),
        (
            "vertex r 0\nvertex a -2 0 1 0 1\nedge r 0 a\n",
            "line 2: vertex 'a' has negative dim -2$",
        ),
    ]:
        with pytest.raises(TreeSpecError, match=message):
            parse_tree_spec(text)


def test_vertex_rejects_negative_dim():
    with pytest.raises(TreeSpecError, match="dim must be >= 0"):
        VertexSpec("v", -1, ())


def test_tags_follow_sibling_rank(two_leaf):
    spec, _ = two_leaf
    assert spec.vertex("root").tag == 0
    assert spec.vertex("left").tag == 0
    assert spec.vertex("right").tag == 1


def test_effective_dims_depth3(binary_depth3):
    _, index = binary_depth3
    assert index.n_leaves == 4
    assert index.effective_dims == (2, 2, 2, 2)


def test_perfect_binary_depth3_dimensions():
    vertices = [VertexSpec(f"v{i}", 1, ((0.0, 1.0),)) for i in range(7)]
    edges = []
    for i in range(3):  # internal vertices 0..2
        edges.append((f"v{i}", 0, f"v{2 * i + 1}"))
        edges.append((f"v{i}", 1, f"v{2 * i + 2}"))
    spec = make_tree_spec(vertices, edges)
    index = build_path_index(spec)
    assert all(d == 3 for d in index.effective_dims)
    assert spec.total_dimension == 3 * 2 ** 2 - 2 == 10


def test_linearize_layout_first_leaf(two_leaf):
    spec, index = two_leaf
    p = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    assert isinstance(p, np.ndarray) and p.shape == (index.width,)
    assert p[0] == 0.0
    np.testing.assert_array_equal(p[1:3], [0.1, 0.2])
    assert p[3] == 0.0
    np.testing.assert_array_equal(p[4:6], [0.3, 0.4])
    assert p[6] < 0  # off-path tag for the inactive leaf
    np.testing.assert_array_equal(p[7:10], [0.0, 0.0, 0.0])


def test_linearize_layout_second_leaf(two_leaf):
    spec, index = two_leaf
    p = linearize(spec, index, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    assert p[0] == 0.0
    np.testing.assert_array_equal(p[1:3], [0.5, 0.6])
    assert p[3] < 0
    assert p[6] == 1.0
    np.testing.assert_array_equal(p[7:10], [0.7, 0.8, 0.9])


def test_linearize_single_vertex():
    spec = parse_tree_spec("vertex only 1 0 1\n")
    index = build_path_index(spec)
    p = linearize(spec, index, 0, [0.5])
    np.testing.assert_array_equal(p, [0.0, 0.5])


def test_linearize_rejects_out_of_bounds(two_leaf):
    spec, index = two_leaf
    with pytest.raises(ValueError, match="dimension 1"):
        linearize(spec, index, 0, [0.0, 5.0, 0.0, 0.0])


def test_linearize_rejects_wrong_count(two_leaf):
    spec, index = two_leaf
    with pytest.raises(ValueError, match="expects 4 values"):
        linearize(spec, index, 0, [0.0, 0.0])


def test_restrict_active_and_inactive(two_leaf):
    spec, index = two_leaf
    p = linearize(spec, index, 0, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(restrict(index, 0, p, "root"), [0.1, 0.2])
    np.testing.assert_array_equal(restrict(index, 0, p, "left"), [0.3, 0.4])
    assert restrict(index, 0, p, "right").size == 0


def test_restrict_unknown_vertex(two_leaf):
    _, index = two_leaf
    p = linearize(index.spec, index, 0, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(KeyError, match="ghost"):
        restrict(index, 0, p, "ghost")


def test_dim0_vertex_empty_restriction_but_matching_tag():
    # a dim-0 root on the active path: empty restriction, tag slot still real
    spec = make_tree_spec(
        [
            VertexSpec("r", 0, ()),
            VertexSpec("a", 1, ((0.0, 1.0),)),
            VertexSpec("b", 1, ((0.0, 1.0),)),
        ],
        [("r", 0, "a"), ("r", 1, "b")],
    )
    index = build_path_index(spec)
    pa = linearize(spec, index, 0, [0.5])
    pb = linearize(spec, index, 1, [0.5])
    assert restrict(index, 0, pa, "r").size == 0
    assert restrict(index, 0, pa, "b").size == 0  # off path: also empty
    tag_pos = index.offsets["r"][0]
    assert pa[tag_pos] == pb[tag_pos] == 0.0  # on-path: tags match
    apos = index.offsets["a"][0]
    assert pa[apos] == 0.0 and pb[apos] < 0  # off-path: negative tag


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_restrict_on_random_trees(seed):
    # empty exactly off the active leaf's path, the value slots on it
    spec = random_tree_spec(seed)
    index = build_path_index(spec)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        leaf, values = bench.sample_uniform_point(index, rng)
        p = linearize(spec, index, leaf, values)
        for vid in index.bfs_order:
            got = restrict(index, leaf, p, vid)
            if vid in index.leaf_paths[leaf]:
                _, vs, ve = index.offsets[vid]
                np.testing.assert_array_equal(got, p[vs:ve])
                assert got.size == spec.vertex(vid).dim
            else:
                assert got.size == 0


def test_effective_dim_bounded_by_total_dimension():
    for seed in range(40):
        spec = random_tree_spec(seed)
        index = build_path_index(spec)
        single_path = all(len(spec.children(v.id)) <= 1 for v in spec.vertices)
        for d in index.effective_dims:
            if single_path:
                assert d == spec.total_dimension
            else:
                assert d <= spec.total_dimension


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_restriction_round_trip(two_leaf, data):
    spec, index = two_leaf
    leaf = data.draw(st.integers(0, index.n_leaves - 1))
    bounds = index.leaf_bounds(leaf)
    values = np.array(
        [data.draw(st.floats(lo, hi, allow_nan=False)) for lo, hi in bounds]
    )
    p = linearize(spec, index, leaf, values)
    chunks = [restrict(index, leaf, p, vid) for vid in index.leaf_paths[leaf]]
    np.testing.assert_array_equal(np.concatenate(chunks), values)


def test_tag_slots_mark_path_membership(two_leaf):
    spec, index = two_leaf
    rank = {spec.root_id: 0}
    for vid in index.bfs_order:
        for k, (_, child) in enumerate(spec.children(vid)):
            rank[child] = k
    rng = np.random.default_rng(0)
    for _ in range(200):
        leaf, values = bench.sample_uniform_point(index, rng)
        p = linearize(spec, index, leaf, values)
        on_path = set(index.leaf_paths[leaf])
        for vid in index.bfs_order:
            tag = p[index.offsets[vid][0]]
            if vid in on_path:
                assert tag == rank[vid]
            else:
                assert tag < 0
        # linearize is pure: a second call gives a bit-identical row
        again = linearize(spec, index, leaf, values)
        assert again.tobytes() == p.tobytes()
