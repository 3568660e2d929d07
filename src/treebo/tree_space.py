"""Tree-structured conditional parameter spaces.

A search space is a rooted tree, one :class:`TreeSpec`.  Every vertex carries
zero or more bounded continuous variables; the outgoing edges of a vertex
represent the settings of one categorical variable (edge labels are the
contiguous integers ``0 .. fanout-1``).  A configuration picks one
root-to-leaf path and assigns values to the continuous variables along it;
variables off the active path do not exist as far as the objective is
concerned.

A TreeSpec also holds the tree's path structure, derived in one walk when
it is built; everything downstream (linearization, kernels, inference)
reads it rather than re-walking the tree.  Vertices appear in deterministic
BFS order with children visited in ascending branch-label order; leaves are
numbered by their position in that order.

* ``bfs_order``: vertex ids in BFS order.
* ``offsets``: per vertex id, ``(tag_slot, value_start, value_end)`` in the
  linear layout; ``width``, the layout's width, is ``sum(1 + dim)`` over
  vertices.
* ``leaf_ids`` / ``leaf_paths``: leaves and their root-to-leaf vertex-id
  paths; two leaves' common ancestors are the common prefix of their paths.
* ``effective_dims``: per leaf, the sum of dims along its path.
* ``tags``: per vertex id, its tag, the label of its incoming branch (0 at
  the root).

A configuration is one *slot row*: a float vector of ``width`` floats in the
*linear layout*, written by :func:`linearize`.  The vertices are laid out in
BFS order and each vertex occupies ``1 + dim`` slots -- one *tag* slot
followed by its value slots.  Every real tag is >= 0.  In a row, vertices on
the active path keep their tag and receive their values; every vertex off
the path gets the tag ``OFF_PATH`` (-1).  A non-negative tag slot therefore
decides "is this vertex on the row's active path?" without consulting the
tree, and a vertex lies on two rows' paths exactly when both tag slots are
non-negative; that is the one membership rule the kernels rely on.  A set of
configurations is the matrix of their rows, one row each.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TreeSpecError",
    "VertexSpec",
    "TreeSpec",
    "make_tree_spec",
    "parse_tree_spec",
    "linearize",
    "OFF_PATH",
]

OFF_PATH = -1.0
"""Tag-slot value of every vertex off a slot row's active path."""


class TreeSpecError(ValueError):
    """Raised for malformed tree-spec documents or invalid tree structure."""


@dataclass(frozen=True)
class VertexSpec:
    """One vertex of the space.

    ``dim`` may be zero: the vertex then carries no continuous variable and
    contributes only structure.
    """

    id: str
    dim: int
    bounds: tuple[tuple[float, float], ...]

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
    """A validated rooted tree with branch-labelled edges, and its path
    structure.

    ``edges`` maps ``(parent_id, branch_label)`` to the child id.  Building
    one validates it, raising :class:`TreeSpecError` unless the vertex ids
    are unique, every edge joins known vertices, each vertex's branch labels
    are unique and contiguous from 0, no vertex has two parents, and every
    vertex is reachable from the root (no cycle, one component).
    :func:`make_tree_spec` finds the root for you.  A TreeSpec is immutable
    and safe to share across threads.

    The path structure is derived from the other fields by one BFS walk
    when the spec is built (children in ascending label order; leaves
    numbered by their position in that order):

    bfs_order : vertex ids in BFS order.
    offsets : per vertex id, ``(tag_slot, value_start, value_end)`` in the
        linear layout.  ``width`` is ``sum(1 + dim)`` over vertices.
    leaf_ids / leaf_paths : leaves and their root-to-leaf vertex-id paths;
        two leaves' common ancestors are the common prefix of their paths.
    effective_dims : per leaf, the sum of dims along its path.
    tags : per vertex id, its incoming branch label, 0 at the root.
    """

    vertices: tuple[VertexSpec, ...]
    root_id: str
    edges: tuple[tuple[str, int, str], ...]
    _by_id: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    bfs_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    offsets: dict = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)
    leaf_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    leaf_paths: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    effective_dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    tags: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, VertexSpec] = {}
        for v in self.vertices:
            if v.id in by_id:
                raise TreeSpecError(f"duplicate vertex id {v.id!r}")
            by_id[v.id] = v
        if self.root_id not in by_id:
            raise TreeSpecError(f"unknown root {self.root_id!r}")
        children: dict[str, list[tuple[int, str]]] = {}
        has_parent: set[str] = set()
        for par, lab, child in self.edges:
            for end, role in ((par, "parent"), (child, "child")):
                if end not in by_id:
                    raise TreeSpecError(f"edge ({par!r}, {lab}, {child!r}): unknown {role} {end!r}")
            if child in has_parent:
                raise TreeSpecError(f"vertex {child!r} has more than one parent")
            has_parent.add(child)
            children.setdefault(par, []).append((lab, child))
        children = {par: tuple(sorted(out)) for par, out in children.items()}
        for par, out in children.items():
            labels = [lab for lab, _ in out]
            if labels != list(range(len(labels))):
                dup = [a for a, b in zip(labels, labels[1:]) if a == b]
                raise TreeSpecError(
                    f"vertex {par!r}: duplicate branch label {dup[0]}" if dup else
                    f"vertex {par!r}: branch labels {labels} are not contiguous from 0"
                )

        order: list[str] = []
        offsets: dict[str, tuple[int, int, int]] = {}
        tags, paths = {self.root_id: 0}, {self.root_id: (self.root_id,)}
        pos = 0
        queue = deque([self.root_id])
        while queue:
            vid = queue.popleft()
            order.append(vid)
            offsets[vid] = (pos, pos + 1, pos + 1 + by_id[vid].dim)
            pos = offsets[vid][2]
            for lab, child in children.get(vid, ()):
                if child in tags:  # a cycle: the walk would never end
                    raise TreeSpecError(f"vertex {child!r} is reached twice from the root")
                tags[child] = lab
                paths[child] = paths[vid] + (child,)
                queue.append(child)
        # Each non-root vertex has one parent, so the walk covers every
        # vertex iff there is no cycle and no disconnected component.
        if len(order) != len(by_id):
            stranded = sorted(by_id.keys() - offsets.keys())
            raise TreeSpecError(f"vertices unreachable from root {self.root_id!r}: {stranded}")
        leaf_ids = tuple(vid for vid in order if vid not in children)
        leaf_paths = tuple(paths[leaf] for leaf in leaf_ids)

        derived = dict(
            _by_id=by_id,
            _children=children,
            bfs_order=tuple(order),
            offsets=offsets,
            width=pos,
            leaf_ids=leaf_ids,
            leaf_paths=leaf_paths,
            effective_dims=tuple(sum(by_id[vid].dim for vid in path) for path in leaf_paths),
            tags=tags,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def vertex(self, vertex_id: str) -> VertexSpec:
        try:
            return self._by_id[vertex_id]
        except KeyError:
            raise KeyError(f"unknown vertex id {vertex_id!r}") from None

    def children(self, vertex_id: str) -> list[tuple[int, str]]:
        """Outgoing edges of a vertex as (label, child_id), label-ascending."""
        return list(self._children.get(vertex_id, ()))

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    def leaf_bounds(self, leaf: int) -> list[tuple[float, float]]:
        """Bounds of the path-ordered continuous vector at a leaf."""
        return [b for vid in self.leaf_paths[leaf] for b in self._by_id[vid].bounds]

    @property
    def total_dimension(self) -> int:
        """Continuous dimensions plus one categorical per branching vertex.

        A vertex with a single child poses no choice, so it contributes no
        categorical dimension; a chain's total dimension is its effective
        dimension.
        """
        return self.continuous_dimension + sum(len(out) >= 2 for out in self._children.values())

    @property
    def continuous_dimension(self) -> int:
        return sum(v.dim for v in self.vertices)


def make_tree_spec(
    vertices: list[VertexSpec] | tuple[VertexSpec, ...],
    edges: list[tuple[str, int, str]],
) -> TreeSpec:
    """The TreeSpec of raw vertices/edges, rooted at the one vertex that is
    no edge's child; :class:`TreeSpec` validates the rest."""
    children = {child for _, _, child in edges}
    roots = list(dict.fromkeys(v.id for v in vertices if v.id not in children))
    if len(roots) != 1:
        raise TreeSpecError(f"expected exactly one root, found {roots!r}")
    return TreeSpec(vertices=tuple(vertices), root_id=roots[0], edges=tuple(edges))


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
            if dim < 0:
                raise TreeSpecError(f"line {lineno}: vertex {vid!r} has negative dim {dim}")
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


def linearize(spec: TreeSpec, leaf: int, values: np.ndarray | list[float]) -> np.ndarray:
    """The slot row of (leaf, path-ordered values): a vector of
    ``spec.width`` floats in the linear layout.

    ``values`` concatenates the continuous variables of the vertices on the
    leaf's path in root-to-leaf order and must respect the declared bounds.
    Off-path tag slots hold ``OFF_PATH`` and off-path value slots 0, which no
    consumer reads.  Pure: equal arguments give bit-identical rows.
    """
    if not 0 <= leaf < spec.n_leaves:
        raise ValueError(f"leaf index {leaf} out of range (space has {spec.n_leaves} leaves)")
    values = np.asarray(values, dtype=float).ravel()
    need = spec.effective_dims[leaf]
    if values.size != need:
        raise ValueError(
            f"leaf {leaf} expects {need} values ({spec.leaf_ids[leaf]!r} path), got {values.size}"
        )

    slots = np.zeros(spec.width)
    on_path = set(spec.leaf_paths[leaf])
    taken = 0
    for vid in spec.bfs_order:
        tag_pos = spec.offsets[vid][0]
        slots[tag_pos] = float(spec.tags[vid]) if vid in on_path else OFF_PATH
    for vid in spec.leaf_paths[leaf]:
        v = spec.vertex(vid)
        _, vs, ve = spec.offsets[vid]
        chunk = values[taken : taken + v.dim]
        for k, (lo, hi) in enumerate(v.bounds):
            if not lo <= chunk[k] <= hi:
                raise ValueError(
                    f"value {chunk[k]} for vertex {vid!r} dimension {k} "
                    f"outside bounds [{lo}, {hi}]"
                )
        slots[vs:ve] = chunk
        taken += v.dim
    return slots
