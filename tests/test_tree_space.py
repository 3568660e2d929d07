import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_tree_spec, restrict
from treebo import bench
from treebo.tree_space import (
    TreeSpec,
    TreeSpecError,
    VertexSpec,
    linearize,
    make_tree_spec,
    parse_tree_spec,
)


def test_parse_two_leaf(two_leaf):
    spec = two_leaf
    assert spec.root_id == "root"
    assert spec.total_dimension == 8
    assert spec.n_leaves == 2
    assert spec.effective_dims == (4, 5)
    assert spec.width == 10  # 3 tags + 7 value slots


def test_parse_single_vertex():
    spec = parse_tree_spec("vertex only 1 0 1\n")
    assert spec.root_id == "only"
    assert spec.leaf_ids == ("only",)
    assert spec.leaf_paths == (("only",),)
    assert spec.effective_dims == (1,)


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


def test_tree_spec_built_directly_rejects_a_cycle_from_the_root():
    # TreeSpec walks the tree when it is built; a cycle must not hang it
    a, b = VertexSpec("a", 0, ()), VertexSpec("b", 0, ())
    with pytest.raises(TreeSpecError, match="'a' is reached twice"):
        TreeSpec((a, b), "a", (("a", 0, "b"), ("b", 0, "a")))


def test_tree_spec_built_directly_is_validated():
    # TreeSpec validates itself; make_tree_spec only finds the root
    r, b, c = (VertexSpec(vid, 0, ()) for vid in "rbc")
    for edges, message in [
        ((("r", 0, "ghost"),), "unknown child 'ghost'"),
        ((("ghost", 0, "b"),), "unknown parent 'ghost'"),
        ((("r", 0, "b"), ("r", 0, "c")), "'r': duplicate branch label 0"),
        ((("r", -1, "b"), ("r", 0, "c")), r"'r': branch labels \[-1, 0\] are not contiguous"),
        ((("r", 0, "b"), ("r", 1, "c"), ("b", 0, "c")), "'c' has more than one parent"),
    ]:
        with pytest.raises(TreeSpecError, match=message):
            TreeSpec((r, b, c), "r", edges)
    with pytest.raises(TreeSpecError, match="duplicate vertex id 'b'"):
        TreeSpec((r, b, b), "r", (("r", 0, "b"),))
    with pytest.raises(TreeSpecError, match="duplicate vertex id 'b'"):
        make_tree_spec([r, b, b], [("r", 0, "b")])
    with pytest.raises(TreeSpecError, match="unknown root 'x'"):
        TreeSpec((r,), "x", ())


def test_parse_rejects_cycle_beside_the_root():
    # one root, and a cycle that no path from it reaches
    text = "vertex r 0\nvertex a 0\nvertex b 0\nedge a 0 b\nedge b 0 a\n"
    with pytest.raises(TreeSpecError, match=r"unreachable from root 'r': \['a', 'b'\]"):
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
    assert two_leaf.tags == {"root": 0, "left": 0, "right": 1}


def test_effective_dims_depth3(binary_depth3):
    assert binary_depth3.n_leaves == 4
    assert binary_depth3.effective_dims == (2, 2, 2, 2)


def test_perfect_binary_depth3_dimensions():
    vertices = [VertexSpec(f"v{i}", 1, ((0.0, 1.0),)) for i in range(7)]
    edges = []
    for i in range(3):  # internal vertices 0..2
        edges.append((f"v{i}", 0, f"v{2 * i + 1}"))
        edges.append((f"v{i}", 1, f"v{2 * i + 2}"))
    spec = make_tree_spec(vertices, edges)
    assert all(d == 3 for d in spec.effective_dims)
    assert spec.total_dimension == 3 * 2 ** 2 - 2 == 10


def test_linearize_layout_first_leaf(two_leaf):
    spec = two_leaf
    p = linearize(spec, 0, [0.1, 0.2, 0.3, 0.4])
    assert isinstance(p, np.ndarray) and p.shape == (spec.width,)
    assert p[0] == 0.0
    np.testing.assert_array_equal(p[1:3], [0.1, 0.2])
    assert p[3] == 0.0
    np.testing.assert_array_equal(p[4:6], [0.3, 0.4])
    assert p[6] < 0  # off-path tag for the inactive leaf
    np.testing.assert_array_equal(p[7:10], [0.0, 0.0, 0.0])


def test_linearize_layout_second_leaf(two_leaf):
    spec = two_leaf
    p = linearize(spec, 1, [0.5, 0.6, 0.7, 0.8, 0.9])
    assert p[0] == 0.0
    np.testing.assert_array_equal(p[1:3], [0.5, 0.6])
    assert p[3] < 0
    assert p[6] == 1.0
    np.testing.assert_array_equal(p[7:10], [0.7, 0.8, 0.9])


def test_linearize_single_vertex():
    spec = parse_tree_spec("vertex only 1 0 1\n")
    p = linearize(spec, 0, [0.5])
    np.testing.assert_array_equal(p, [0.0, 0.5])


def test_linearize_rejects_out_of_bounds(two_leaf):
    spec = two_leaf
    with pytest.raises(ValueError, match="dimension 1"):
        linearize(spec, 0, [0.0, 5.0, 0.0, 0.0])


def test_linearize_rejects_wrong_count(two_leaf):
    spec = two_leaf
    with pytest.raises(ValueError, match="expects 4 values"):
        linearize(spec, 0, [0.0, 0.0])


def test_restrict_active_and_inactive(two_leaf):
    spec = two_leaf
    p = linearize(spec, 0, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(restrict(spec, 0, p, "root"), [0.1, 0.2])
    np.testing.assert_array_equal(restrict(spec, 0, p, "left"), [0.3, 0.4])
    assert restrict(spec, 0, p, "right").size == 0


def test_restrict_unknown_vertex(two_leaf):
    spec = two_leaf
    p = linearize(spec, 0, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(KeyError, match="ghost"):
        restrict(spec, 0, p, "ghost")


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
    pa = linearize(spec, 0, [0.5])
    pb = linearize(spec, 1, [0.5])
    assert restrict(spec, 0, pa, "r").size == 0
    assert restrict(spec, 0, pa, "b").size == 0  # off path: also empty
    tag_pos = spec.offsets["r"][0]
    assert pa[tag_pos] == pb[tag_pos] == 0.0  # on-path: tags match
    apos = spec.offsets["a"][0]
    assert pa[apos] == 0.0 and pb[apos] < 0  # off-path: negative tag


@given(st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_restrict_on_random_trees(seed):
    # empty exactly off the active leaf's path, the value slots on it
    spec = random_tree_spec(seed)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        leaf, values = bench.sample_uniform_point(spec, rng)
        p = linearize(spec, leaf, values)
        for vid in spec.bfs_order:
            got = restrict(spec, leaf, p, vid)
            if vid in spec.leaf_paths[leaf]:
                _, vs, ve = spec.offsets[vid]
                np.testing.assert_array_equal(got, p[vs:ve])
                assert got.size == spec.vertex(vid).dim
            else:
                assert got.size == 0


def test_path_structure_on_random_trees():
    # from the definitions: BFS with children in label order, 1 + dim slots
    # per vertex, leaves in BFS order with their paths up the parent edges,
    # and each tag the label of the incoming edge
    for seed in range(40):
        spec = random_tree_spec(seed)
        parent = {child: (par, lab) for par, lab, child in spec.edges}
        order, queue = [], [spec.root_id]
        while queue:
            order.append(queue.pop(0))
            queue += [child for _, child in sorted(
                (lab, child) for par, lab, child in spec.edges if par == order[-1]
            )]
        assert spec.bfs_order == tuple(order)
        dims = [spec.vertex(vid).dim for vid in order]
        starts = np.cumsum([0] + [1 + d for d in dims])
        assert spec.offsets == {
            vid: (int(a), int(a) + 1, int(b)) for vid, a, b in zip(order, starts, starts[1:])
        }
        assert spec.width == starts[-1]
        assert spec.leaf_ids == tuple(vid for vid in order if not spec.children(vid))
        for leaf, path in zip(spec.leaf_ids, spec.leaf_paths):
            up = [leaf]
            while up[-1] in parent:
                up.append(parent[up[-1]][0])
            assert path == tuple(reversed(up)) and path[0] == spec.root_id
        assert spec.effective_dims == tuple(
            sum(spec.vertex(vid).dim for vid in path) for path in spec.leaf_paths
        )
        assert spec.tags == {vid: parent[vid][1] if vid in parent else 0 for vid in order}


def test_effective_dim_bounded_by_total_dimension():
    for seed in range(40):
        spec = random_tree_spec(seed)
        single_path = all(len(spec.children(v.id)) <= 1 for v in spec.vertices)
        for d in spec.effective_dims:
            if single_path:
                assert d == spec.total_dimension
            else:
                assert d <= spec.total_dimension


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_restriction_round_trip(two_leaf, data):
    spec = two_leaf
    leaf = data.draw(st.integers(0, spec.n_leaves - 1))
    bounds = spec.leaf_bounds(leaf)
    values = np.array(
        [data.draw(st.floats(lo, hi, allow_nan=False)) for lo, hi in bounds]
    )
    p = linearize(spec, leaf, values)
    chunks = [restrict(spec, leaf, p, vid) for vid in spec.leaf_paths[leaf]]
    np.testing.assert_array_equal(np.concatenate(chunks), values)


def test_tag_slots_mark_path_membership(two_leaf):
    spec = two_leaf
    rank = {spec.root_id: 0}
    for vid in spec.bfs_order:
        for k, (_, child) in enumerate(spec.children(vid)):
            rank[child] = k
    rng = np.random.default_rng(0)
    for _ in range(200):
        leaf, values = bench.sample_uniform_point(spec, rng)
        p = linearize(spec, leaf, values)
        on_path = set(spec.leaf_paths[leaf])
        for vid in spec.bfs_order:
            tag = p[spec.offsets[vid][0]]
            if vid in on_path:
                assert tag == rank[vid]
            else:
                assert tag < 0
        # linearize is pure: a second call gives a bit-identical row
        again = linearize(spec, leaf, values)
        assert again.tobytes() == p.tobytes()
