"""Tree-structured conditional parameter spaces.

A search space is a rooted tree.  Every vertex carries zero or more bounded
continuous variables; the outgoing edges of a vertex represent the settings
of one categorical variable (edge labels are the contiguous integers
``0 .. fanout-1``).  A configuration picks one root-to-leaf path and assigns
values to the continuous variables along it; variables off the active path do
not exist as far as the objective is concerned.

Configurations are stored in a fixed-width *linear layout*: the vertices are
laid out in breadth-first order and each vertex occupies ``1 + dim`` slots --
one *tag* slot followed by its value slots.  The tag of a vertex is its
branch label (root has tag 0), so every real tag is >= 0.  When a
configuration is linearized, vertices on the active path keep their tag and
receive their values; every vertex off the path gets the tag ``OFF_PATH``
(-1).  A non-negative tag slot therefore decides "is this vertex on the
point's active path?" without consulting the tree, and a vertex lies on two
points' paths exactly when both tag slots are non-negative; that is the one
membership rule the kernels rely on.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "TreeSpecError",
    "VertexSpec",
    "TreeSpec",
    "PathIndex",
    "LinearizedPoint",
    "make_tree_spec",
    "parse_tree_spec",
    "build_path_index",
    "linearize",
    "restrict",
    "lca_path",
    "OFF_PATH",
]

OFF_PATH = -1.0
"""Tag-slot value of every vertex off a linearized point's active path."""


class TreeSpecError(ValueError):
    """Raised for malformed tree-spec documents or invalid tree structure."""


@dataclass(frozen=True)
class VertexSpec:
    """One vertex of the space.

    ``dim`` may be zero: the vertex then carries no continuous variable and
    contributes only structure.  ``tag`` is the sibling rank assigned during
    validation (its incoming branch label, 0 at the root); it is -1 until the
    vertex is part of a validated tree.
    """

    id: str
    dim: int
    bounds: tuple[tuple[float, float], ...]
    tag: int = -1

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise TreeSpecError(f"vertex {self.id!r}: dim must be >= 0, got {self.dim}")
        if len(self.bounds) != self.dim:
            raise TreeSpecError(
                f"vertex {self.id!r}: {len(self.bounds)} bound pairs for dim {self.dim}"
            )
        for k, (lo, hi) in enumerate(self.bounds):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise TreeSpecError(f"vertex {self.id!r}: bound {k} is not finite")
            if not lo < hi:
                raise TreeSpecError(
                    f"vertex {self.id!r}: bound {k} has lower {lo} >= upper {hi}"
                )


@dataclass(frozen=True)
class TreeSpec:
    """A validated rooted tree with branch-labelled edges.

    ``edges`` maps ``(parent_id, branch_label)`` to the child id.  Instances
    should be built through :func:`make_tree_spec` or :func:`parse_tree_spec`,
    which validate the structure and assign sibling-rank tags.  A TreeSpec is
    immutable and safe to share across threads.
    """

    vertices: tuple[VertexSpec, ...]
    root_id: str
    edges: tuple[tuple[str, int, str], ...]
    _by_id: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        children: dict[str, list[tuple[int, str]]] = {}
        for par, lab, child in self.edges:
            children.setdefault(par, []).append((lab, child))
        object.__setattr__(self, "_by_id", {v.id: v for v in self.vertices})
        object.__setattr__(
            self, "_children", {par: tuple(sorted(out)) for par, out in children.items()}
        )

    def vertex(self, vertex_id: str) -> VertexSpec:
        try:
            return self._by_id[vertex_id]
        except KeyError:
            raise KeyError(f"unknown vertex id {vertex_id!r}") from None

    def children(self, vertex_id: str) -> list[tuple[int, str]]:
        """Outgoing edges of a vertex as (label, child_id), label-ascending."""
        return list(self._children.get(vertex_id, ()))

    @property
    def total_dimension(self) -> int:
        """Continuous dimensions plus one categorical per branching vertex.

        A vertex with a single child poses no choice, so it contributes no
        categorical dimension; a chain's total dimension is its effective
        dimension.
        """
        cont = sum(v.dim for v in self.vertices)
        fanout: dict[str, int] = {}
        for par, _, _ in self.edges:
            fanout[par] = fanout.get(par, 0) + 1
        cat = sum(1 for n in fanout.values() if n >= 2)
        return cont + cat

    @property
    def continuous_dimension(self) -> int:
        return sum(v.dim for v in self.vertices)


def make_tree_spec(
    vertices: list[VertexSpec] | tuple[VertexSpec, ...],
    edges: list[tuple[str, int, str]],
) -> TreeSpec:
    """Validate raw vertices/edges and return a TreeSpec with tags assigned.

    Checks: unique vertex ids, edges reference known vertices, branch labels
    of each vertex unique and contiguous from 0, exactly one root, every
    non-root vertex has exactly one parent, and all vertices are reachable
    from the root (no cycles, single component).
    """
    ids = [v.id for v in vertices]
    if len(ids) != len(set(ids)):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise TreeSpecError(f"duplicate vertex id {dup!r}")
    known = set(ids)

    parents: dict[str, str] = {}
    out_edges: dict[str, list[tuple[int, str]]] = {}
    for par, lab, child in edges:
        if par not in known:
            raise TreeSpecError(f"edge ({par!r}, {lab}, {child!r}): unknown parent {par!r}")
        if child not in known:
            raise TreeSpecError(f"edge ({par!r}, {lab}, {child!r}): unknown child {child!r}")
        if lab < 0:
            raise TreeSpecError(f"edge ({par!r}, {lab}, {child!r}): negative branch label")
        if child in parents:
            raise TreeSpecError(f"vertex {child!r} has more than one parent")
        parents[child] = par
        out_edges.setdefault(par, []).append((lab, child))

    for par, out in out_edges.items():
        labels = [lab for lab, _ in out]
        if len(labels) != len(set(labels)):
            dup_lab = next(l for l in labels if labels.count(l) > 1)
            raise TreeSpecError(f"vertex {par!r}: duplicate branch label {dup_lab}")
        if sorted(labels) != list(range(len(labels))):
            raise TreeSpecError(
                f"vertex {par!r}: branch labels {sorted(labels)} are not contiguous from 0"
            )

    roots = [i for i in ids if i not in parents]
    if len(roots) != 1:
        raise TreeSpecError(f"expected exactly one root, found {roots!r}")
    root = roots[0]

    # Reachability from the root covers every vertex iff there is no cycle
    # and no disconnected component (each non-root has exactly one parent).
    seen = {root}
    queue = deque([root])
    while queue:
        for _, child in out_edges.get(queue.popleft(), ()):
            seen.add(child)
            queue.append(child)
    if seen != known:
        stranded = sorted(known - seen)
        raise TreeSpecError(f"vertices unreachable from root {root!r}: {stranded}")

    # Labels are contiguous from 0, so a vertex's sibling rank is its label.
    tags = {root: 0}
    for _, lab, child in edges:
        tags[child] = lab

    tagged = tuple(replace(v, tag=tags[v.id]) for v in vertices)
    return TreeSpec(vertices=tagged, root_id=root, edges=tuple(edges))


def parse_tree_spec(text: str) -> TreeSpec:
    """Parse the tree-spec text format into a validated TreeSpec.

    Grammar (one directive per line, ``#`` starts a comment)::

        vertex <id> <dim> <lo> <hi> ... <lo> <hi>   # dim pairs of bounds
        edge <parent> <label> <child>               # label: small integer

    The root is the unique vertex that never appears as a child.
    """
    vertices: list[VertexSpec] = []
    edges: list[tuple[str, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "vertex":
            if len(toks) < 3:
                raise TreeSpecError(f"line {lineno}: vertex needs an id and a dim")
            vid = toks[1]
            try:
                dim = int(toks[2])
            except ValueError:
                raise TreeSpecError(f"line {lineno}: vertex {vid!r} has non-integer dim") from None
            nums = toks[3:]
            if len(nums) != 2 * dim:
                raise TreeSpecError(
                    f"line {lineno}: vertex {vid!r} needs {2 * dim} bound values, got {len(nums)}"
                )
            try:
                vals = [float(x) for x in nums]
            except ValueError:
                raise TreeSpecError(f"line {lineno}: vertex {vid!r} has non-numeric bounds") from None
            bounds = tuple((vals[2 * k], vals[2 * k + 1]) for k in range(dim))
            vertices.append(VertexSpec(id=vid, dim=dim, bounds=bounds))
        elif kind == "edge":
            if len(toks) != 4:
                raise TreeSpecError(f"line {lineno}: edge needs parent, label, child")
            par, lab_s, child = toks[1], toks[2], toks[3]
            try:
                lab = int(lab_s)
            except ValueError:
                raise TreeSpecError(
                    f"line {lineno}: edge ({par!r}, {lab_s!r}, {child!r}) has non-integer label"
                ) from None
            edges.append((par, lab, child))
        else:
            raise TreeSpecError(f"line {lineno}: unknown directive {kind!r}")
    if not vertices:
        raise TreeSpecError("no vertices declared")
    return make_tree_spec(vertices, edges)


@dataclass(frozen=True)
class PathIndex:
    """Precomputed path structure of a TreeSpec.

    Everything downstream (linearization, kernels, inference) works off this
    index rather than re-walking the tree.  Vertices appear in deterministic
    BFS order with children visited in ascending branch-label order; leaves
    are numbered by their position in that order.

    Attributes
    ----------
    bfs_order : vertex ids in BFS order.
    offsets : per vertex id, ``(tag_slot, value_start, value_end)`` in the
        linear layout.  Layout width is ``sum(1 + dim)`` over vertices.
    leaf_ids / leaf_paths : leaves and their root-to-leaf vertex-id paths;
        two leaves' common ancestors are the common prefix of their paths.
    effective_dims : per leaf, the sum of dims along its path.
    """

    spec: TreeSpec
    bfs_order: tuple[str, ...]
    offsets: dict
    width: int
    leaf_ids: tuple[str, ...]
    leaf_paths: tuple[tuple[str, ...], ...]
    effective_dims: tuple[int, ...]

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def leaf_bounds(self, leaf: int) -> list[tuple[float, float]]:
        """Bounds of the path-ordered continuous vector at a leaf."""
        out: list[tuple[float, float]] = []
        for vid in self.leaf_paths[leaf]:
            out.extend(self.spec.vertex(vid).bounds)
        return out


def build_path_index(spec: TreeSpec) -> PathIndex:
    """Walk the tree once and derive the full PathIndex."""
    order: list[str] = []
    parent: dict[str, str] = {}
    queue = deque([spec.root_id])
    while queue:
        cur = queue.popleft()
        order.append(cur)
        for _, child in spec.children(cur):
            parent[child] = cur
            queue.append(child)

    offsets: dict[str, tuple[int, int, int]] = {}
    pos = 0
    for vid in order:
        dim = spec.vertex(vid).dim
        offsets[vid] = (pos, pos + 1, pos + 1 + dim)
        pos += 1 + dim
    width = pos

    leaf_ids = tuple(v for v in order if not spec.children(v))
    leaf_paths = []
    for leaf in leaf_ids:
        path = [leaf]
        while path[-1] != spec.root_id:
            path.append(parent[path[-1]])
        leaf_paths.append(tuple(reversed(path)))
    leaf_paths = tuple(leaf_paths)

    effective_dims = tuple(
        sum(spec.vertex(vid).dim for vid in path) for path in leaf_paths
    )

    return PathIndex(
        spec=spec,
        bfs_order=tuple(order),
        offsets=offsets,
        width=width,
        leaf_ids=leaf_ids,
        leaf_paths=leaf_paths,
        effective_dims=effective_dims,
    )


@dataclass(frozen=True)
class LinearizedPoint:
    """One configuration in the fixed-width linear layout.

    ``slots`` holds tags and values; ``active_leaf`` is the leaf index of the
    active path.  Off-path tag slots hold ``OFF_PATH`` (real tags are >= 0),
    and off-path value slots are zero-filled and ignored by every consumer.
    """

    slots: np.ndarray
    active_leaf: int


def linearize(
    spec: TreeSpec,
    index: PathIndex,
    leaf: int,
    values: np.ndarray | list[float],
) -> LinearizedPoint:
    """Encode (leaf, path-ordered values) into the linear layout.

    ``values`` concatenates the continuous variables of the vertices on the
    leaf's path in root-to-leaf order and must respect the declared bounds.
    Pure: equal arguments give bit-identical slots.
    """
    if not 0 <= leaf < index.n_leaves:
        raise ValueError(f"leaf index {leaf} out of range (space has {index.n_leaves} leaves)")
    values = np.asarray(values, dtype=float).ravel()
    need = index.effective_dims[leaf]
    if values.size != need:
        raise ValueError(
            f"leaf {leaf} expects {need} values ({index.leaf_ids[leaf]!r} path), got {values.size}"
        )

    slots = np.zeros(index.width)
    on_path = set(index.leaf_paths[leaf])
    taken = 0
    for vid in index.bfs_order:
        tag_pos = index.offsets[vid][0]
        slots[tag_pos] = float(spec.vertex(vid).tag) if vid in on_path else OFF_PATH
    for vid in index.leaf_paths[leaf]:
        v = spec.vertex(vid)
        _, vs, ve = index.offsets[vid]
        chunk = values[taken : taken + v.dim]
        for k, (lo, hi) in enumerate(v.bounds):
            if not lo <= chunk[k] <= hi:
                raise ValueError(
                    f"value {chunk[k]} for vertex {vid!r} dimension {k} "
                    f"outside bounds [{lo}, {hi}]"
                )
        slots[vs:ve] = chunk
        taken += v.dim
    return LinearizedPoint(slots=slots, active_leaf=leaf)


def restrict(index: PathIndex, point: LinearizedPoint, vertex_id: str) -> np.ndarray:
    """Continuous values of ``point`` at one vertex.

    Returns the vertex's value slots when the vertex lies on the point's
    active path (its tag slot is non-negative) and an empty vector otherwise.
    A dim-0 vertex on the path also yields an empty vector.
    """
    try:
        tag_pos, vs, ve = index.offsets[vertex_id]
    except KeyError:
        raise KeyError(f"unknown vertex id {vertex_id!r}") from None
    if point.slots[tag_pos] < 0:
        return np.empty(0)
    return point.slots[vs:ve].copy()


def lca_path(index: PathIndex, leaf_i: int, leaf_j: int) -> tuple[str, ...]:
    """Vertex ids from the root down to the lowest common ancestor, inclusive:
    the common prefix of the two leaf paths.

    For ``leaf_i == leaf_j`` this is the full leaf path.
    """
    for leaf in (leaf_i, leaf_j):
        if not 0 <= leaf < index.n_leaves:
            raise ValueError(f"leaf index {leaf} out of range")
    path_j = index.leaf_paths[leaf_j]
    # root paths in a tree share a vertex iff they share all its ancestors
    return tuple(vid for vid in index.leaf_paths[leaf_i] if vid in path_j)
