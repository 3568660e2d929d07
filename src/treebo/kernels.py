"""Covariance functions over tree-structured spaces.

Each vertex carries a stationary base kernel on its continuous variables
(squared exponential or Matern with nu in {3/2, 5/2}, ARD lengthscales,
per-vertex output scale).  The tree kernel between two configurations is the
sum of the base kernels over the vertices shared by both active paths, i.e.
over the path from the root to the leaves' lowest common ancestor; each term
is evaluated on the two points' restrictions to that vertex.  Vertex
membership is decided by the sign of the vertex's tag slot in the linear
layout (non-negative on the active path), so the whole kernel evaluates on
fixed-width vectors without consulting the tree.

A vertex with no continuous variables contributes its output scale as a
constant whenever it is shared (``zero_dim="constant"``, the default), which
keeps an information channel open through shared structural vertices.  The
alternative ``zero_dim="zero"`` drops such vertices from the sum entirely;
under that policy points whose paths only share dim-0 vertices have exactly
zero covariance.

Every method evaluates a vertex's term only on its block: the rows whose path
contains the vertex (:meth:`AddTreeKernel._block`), through one helper,
``_term``, on the raw per-dimension squared differences.  For hyperparameter
fitting, :meth:`AddTreeKernel.vertex_blocks` does the hyperparameter-free
work once: it orders the rows by the depth-first rank of their leaf, so each
vertex's rows R_v are one contiguous slice, and keeps per block the squared
differences, the kind and where the block's lengthscales and scale sit in the
flat log vector (laid out by :meth:`AddTreeKernel._layout` alone).
:meth:`AddTreeKernel.gram_and_grads` reads exp(log vector) there, scales the
squared differences by 1/lengthscale², adds each term into its block of the
Gram matrix (a dim-0 block is its constant scale), and returns every
log-parameter derivative as the dense block it is non-zero on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tree_space import LinearizedPoint, PathIndex, TreeSpec

__all__ = [
    "BaseKernelParams",
    "AddTreeKernel",
    "VertexBlocks",
    "base_kernel_eval",
    "delta_eval",
    "add_tree_eval",
    "gram",
]

KERNEL_KINDS = ("se", "matern32", "matern52")

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class BaseKernelParams:
    """Stationary kernel parameters for one vertex.

    ``lengthscales`` has one positive entry per continuous dimension of the
    vertex (empty for dim-0 vertices, where the kernel degenerates to the
    constant ``output_scale``).
    """

    kind: str
    lengthscales: tuple[float, ...]
    output_scale: float

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        if any(not (ls > 0 and math.isfinite(ls)) for ls in self.lengthscales):
            raise ValueError(f"lengthscales must be positive and finite, got {self.lengthscales}")
        if not (self.output_scale > 0 and math.isfinite(self.output_scale)):
            raise ValueError(f"output_scale must be positive and finite, got {self.output_scale}")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)


def _sq_diffs(Va: np.ndarray, Vb: np.ndarray) -> np.ndarray:
    """Raw per-dimension squared differences between row sets, shape (d, m, n)."""
    D = Va.T[:, :, None] - Vb.T[:, None, :]
    return D * D


def _corr_from_r2(kind: str, r2: np.ndarray) -> np.ndarray:
    """Correlation (value at unit output scale) from scaled squared distance."""
    if kind == "se":
        return np.exp(-0.5 * r2)
    r = np.sqrt(r2)
    if kind == "matern32":
        return (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)
    return (1.0 + _SQRT5 * r + (5.0 / 3.0) * r2) * np.exp(-_SQRT5 * r)


def _lengthscale_grad_weight(kind: str, r2: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """w such that d corr / d log(ls_d) = w * scaled_sq_dist_d.

    The expressions are singularity-free at r = 0 for every supported kind.
    """
    if kind == "se":
        return corr
    r = np.sqrt(r2)
    if kind == "matern32":
        return 3.0 * np.exp(-_SQRT3 * r)
    return (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)


def _term(kind: str, lengthscales, scale: float, sq: np.ndarray):
    """One vertex's base-kernel values from raw squared differences.

    ``sq`` is (d, m, n) as from :func:`_sq_diffs`.  Returns the (m, n) values
    together with the scaled squared distance r² and the correlation, which
    the lengthscale derivatives reuse.  A dim-0 vertex has r² = 0 and
    correlation exactly 1, so its term is the constant output scale.
    """
    d, m, n = sq.shape
    r2 = (1.0 / np.square(lengthscales) @ sq.reshape(d, m * n)).reshape(m, n)
    corr = _corr_from_r2(kind, r2)
    return scale * corr, r2, corr


def base_kernel_eval(params: BaseKernelParams, a, b) -> float:
    """Evaluate one vertex's base kernel between two value vectors.

    Both vectors must match the vertex's dimension (both empty for a dim-0
    vertex, in which case the result is the constant output scale).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != params.dim or b.size != params.dim:
        raise ValueError(
            f"expected vectors of length {params.dim}, got {a.size} and {b.size}"
        )
    sq = _sq_diffs(a[None, :], b[None, :])
    return float(_term(params.kind, params.lengthscales, params.output_scale, sq)[0][0, 0])


def delta_eval(index: PathIndex, vertex_id: str, x: LinearizedPoint, y: LinearizedPoint) -> int:
    """1 iff the vertex lies on both points' active paths, else 0.

    Decided by the tag slots alone: a vertex's tag is non-negative exactly
    on the points whose active path contains it.
    """
    if vertex_id not in index.offsets:
        raise KeyError(f"unknown vertex id {vertex_id!r}")
    tag_pos = index.offsets[vertex_id][0]
    return int(x.slots[tag_pos] >= 0 and y.slots[tag_pos] >= 0)


def stack_points(points: list[LinearizedPoint]) -> np.ndarray:
    """Stack linearized points into a slots matrix, one row per point."""
    if not points:
        return np.empty((0, 0))
    return np.stack([p.slots for p in points])


@dataclass(frozen=True)
class VertexBlocks:
    """The hyperparameter-free part of a kernel's Gram matrix over fixed rows.

    Built by :meth:`AddTreeKernel.vertex_blocks` once per hyperparameter fit.
    The rows are reordered (``order`` indexes the original rows) by the
    depth-first rank of their leaf, so each contributing vertex's rows -- the
    rows whose path contains it, i.e. the leaves of its subtree -- form one
    contiguous slice.  Per contributing vertex in BFS order, ``vertices``,
    ``kinds``, ``slices`` and ``sq`` hold its id, kernel kind, slice and the
    raw squared differences of its values on that slice, (d, |R_v|, |R_v|);
    ``lengthscales`` and ``scales`` hold the index range of its lengthscales
    and the index of its scale in the log vector (one index for tied
    scales).  ``param_slices`` gives, per log-parameter, the diagonal block
    of the Gram matrix its derivative lives on.
    """

    order: np.ndarray
    vertices: tuple[str, ...]
    kinds: tuple[str, ...]
    slices: tuple[slice, ...]
    sq: tuple[np.ndarray, ...]
    lengthscales: tuple[slice, ...]
    scales: tuple[int, ...]
    param_slices: tuple[slice, ...]


@dataclass(frozen=True)
class AddTreeKernel:
    """Additive path kernel: per-vertex base kernels summed over shared paths.

    ``params`` maps every vertex id to its BaseKernelParams.  With
    ``tied_scales`` the output scales form a single shared hyperparameter
    during fitting instead of one per vertex; evidence maximization then
    cannot silence a rarely-visited branch by collapsing its amplitude.
    Instances are immutable value objects and evaluation is pure.
    """

    spec: TreeSpec
    index: PathIndex
    params: dict = field(default_factory=dict)
    zero_dim: str = "constant"
    tied_scales: bool = False

    def __post_init__(self) -> None:
        if self.zero_dim not in ("constant", "zero"):
            raise ValueError(f"zero_dim must be 'constant' or 'zero', got {self.zero_dim!r}")
        missing = [vid for vid in self.index.bfs_order if vid not in self.params]
        if missing:
            raise ValueError(f"missing kernel parameters for vertices {missing}")
        for vid in self.index.bfs_order:
            want = self.spec.vertex(vid).dim
            got = self.params[vid].dim
            if want != got:
                raise ValueError(
                    f"vertex {vid!r}: kernel has {got} lengthscales for dim {want}"
                )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def default(
        cls,
        spec: TreeSpec,
        index: PathIndex,
        kind: str = "se",
        lengthscale: float = 1.0,
        output_scale: float = 1.0,
        zero_dim: str = "constant",
        tied_scales: bool = False,
    ) -> "AddTreeKernel":
        """Uniform parameters across vertices; the usual fitting start."""
        params = {
            v.id: BaseKernelParams(
                kind=kind,
                lengthscales=tuple([lengthscale] * v.dim),
                output_scale=output_scale,
            )
            for v in spec.vertices
        }
        return cls(
            spec=spec, index=index, params=params,
            zero_dim=zero_dim, tied_scales=tied_scales,
        )

    def _contributes(self, vid: str) -> bool:
        return self.spec.vertex(vid).dim > 0 or self.zero_dim == "constant"

    def _contributing(self) -> list[str]:
        return [vid for vid in self.index.bfs_order if self._contributes(vid)]

    def _block(self, vid: str, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One vertex's rows in stacked slots and their value columns.

        This is the one membership rule: a row has the vertex on its active
        path iff the vertex's tag slot is non-negative.
        """
        tag_pos, vs, ve = self.index.offsets[vid]
        rows = (A[:, tag_pos] >= 0).nonzero()[0]
        return rows, A[rows, vs:ve]

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: LinearizedPoint, y: LinearizedPoint) -> float:
        Xa = stack_points([x])
        Xb = stack_points([y])
        return float(self.gram_matrix(Xa, Xb)[0, 0])

    def gram_matrix(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between stacked slot arrays (B defaults to A)."""
        if B is None:
            B = A
        K = np.zeros((A.shape[0], B.shape[0]))
        if K.size == 0:
            return K
        for vid in self._contributing():
            rows_a, Va = self._block(vid, A)
            if rows_a.size:
                rows_b, Vb = self._block(vid, B)
                p = self.params[vid]
                sq = _sq_diffs(Va, Vb)
                K[rows_a[:, None], rows_b] += _term(p.kind, p.lengthscales, p.output_scale, sq)[0]
        return K

    def gram(self, points: list[LinearizedPoint]) -> np.ndarray:
        X = stack_points(points)
        return self.gram_matrix(X)

    def diag(self, A: np.ndarray) -> np.ndarray:
        """k(x, x) for each stacked row: summed contributing output scales
        on its path (each vertex term at zero distance)."""
        out = np.zeros(A.shape[0])
        for vid in self._contributing():
            rows, _ = self._block(vid, A)
            out[rows] += self.params[vid].output_scale
        return out

    def component_cross(
        self, vertex_id: str, V: np.ndarray, A: np.ndarray, with_grad: bool = False
    ):
        """Cross-covariance of one vertex's component against stacked rows.

        ``V`` is (m, dim) query values for the vertex (m x 0 for dim-0).
        Entry (q, i) is the vertex's base kernel between V[q] and row i's
        restriction when the vertex is on row i's path, else 0.

        With ``with_grad`` also returns the derivative with respect to the
        query values, shape (dim, m, n): for every kind the radial
        derivative d k / d V[q, d] = -s * w * (V[q, d] - x_d) / ls_d², with
        w from :func:`_lengthscale_grad_weight`.
        """
        p = self.params[vertex_id]
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(1, -1) if p.dim else V.reshape(1, 0)
        if V.shape[1] != p.dim:
            raise ValueError(
                f"vertex {vertex_id!r} expects {p.dim}-dim values, got {V.shape[1]}"
            )
        out = np.zeros((V.shape[0], A.shape[0]))
        grad = np.zeros((p.dim, *out.shape)) if with_grad else None
        if A.shape[0] and self._contributes(vertex_id):
            rows, VA = self._block(vertex_id, A)
            D = V.T[:, :, None] - VA.T[:, None, :]
            term, r2, corr = _term(p.kind, p.lengthscales, p.output_scale, D * D)
            out[:, rows] = term
            if with_grad:
                w = p.output_scale * _lengthscale_grad_weight(p.kind, r2, corr)
                grad[:, :, rows] = -w * D / np.square(p.lengthscales)[:, None, None]
        return (out, grad) if with_grad else out

    def component_prior_variance(self, vertex_id: str) -> float:
        if not self._contributes(vertex_id):
            return 0.0
        return self.params[vertex_id].output_scale

    # -- hyperparameter plumbing ----------------------------------------------

    def _layout(self) -> tuple[list[tuple[str, slice, int]], int]:
        """The log vector's length and, per contributing BFS vertex, its id,
        the index range of its ``dim`` lengthscales and the index of its
        scale, which follows them unless scales are tied: tied scales share
        one trailing entry.  Under the 'zero' policy dim-0 vertices have no
        entries (the kernel never uses them, so they are unidentifiable)."""
        entries, pos = [], 0
        for vid in self._contributing():
            entries.append((vid, slice(pos, pos + self.params[vid].dim)))
            pos += self.params[vid].dim + (not self.tied_scales)
        if not self.tied_scales:
            return [(vid, ls, ls.stop) for vid, ls in entries], pos
        return [(vid, ls, pos) for vid, ls in entries], pos + bool(entries)

    def param_names(self) -> list[str]:
        """Canonical order of free log-parameters for fitting (see
        :meth:`_layout`); a tied scale is named ``shared::scale``."""
        layout, size = self._layout()
        names = [""] * size
        for vid, ls, scale in layout:
            names[ls] = [f"{vid}::ls{d}" for d in range(ls.stop - ls.start)]
            names[scale] = "shared::scale" if self.tied_scales else f"{vid}::scale"
        return names

    def get_log_params(self) -> np.ndarray:
        """Current values in :meth:`param_names` order, as logarithms (a
        tied scale is the first contributing vertex's)."""
        layout, size = self._layout()
        vec = np.empty(size)
        for vid, ls, scale in reversed(layout):
            vec[ls] = self.params[vid].lengthscales
            vec[scale] = self.params[vid].output_scale
        return np.log(vec)

    def with_log_params(self, vec: np.ndarray) -> "AddTreeKernel":
        """The kernel with the :meth:`param_names` values exp(vec); a tied
        scale becomes every contributing vertex's output scale."""
        layout, size = self._layout()
        values = np.exp(np.asarray(vec, dtype=float)).tolist()
        if len(values) != size:
            raise ValueError(f"expected {size} log-parameters, got {len(values)}")
        params = dict(self.params)
        for vid, ls, scale in layout:
            params[vid] = BaseKernelParams(params[vid].kind, tuple(values[ls]), values[scale])
        return replace(self, params=params)

    def vertex_blocks(self, A: np.ndarray) -> VertexBlocks:
        """The hyperparameter-free block data of stacked rows ``A``; it
        depends on the kernel's structure only (contributing vertices, kinds,
        tied scales), so it serves every log vector of the layout."""
        index = self.index
        # Leaves sorted by their paths' BFS positions come in depth-first
        # order, where the leaves of every subtree are adjacent.
        bfs_pos = {vid: i for i, vid in enumerate(index.bfs_order)}
        dfs = sorted(
            range(index.n_leaves), key=lambda i: [bfs_pos[v] for v in index.leaf_paths[i]]
        )
        dfs_rank = np.empty(index.n_leaves, dtype=int)
        dfs_rank[dfs] = np.arange(index.n_leaves)
        leaf_tags = [index.offsets[leaf][0] for leaf in index.leaf_ids]
        leaf = np.argmax(A[:, leaf_tags] >= 0, axis=1)
        order = np.argsort(dfs_rank[leaf], kind="stable")
        A = A[order]

        layout, size = self._layout()
        param_slices = [slice(0, order.size)] * size  # a tied scale's block is all of K
        slices, sq = [], []
        for vid, ls, scale in layout:
            rows, V = self._block(vid, A)
            s = slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)
            slices.append(s)
            sq.append(_sq_diffs(V, V))
            param_slices[ls] = [s] * (ls.stop - ls.start)
            if not self.tied_scales:
                param_slices[scale] = s
        vertices, lengthscales, scales = zip(*layout) if layout else ((), (), ())
        kinds = tuple(self.params[vid].kind for vid in vertices)
        return VertexBlocks(order, vertices, kinds, tuple(slices), tuple(sq),
                            lengthscales, scales, tuple(param_slices))

    def gram_and_grads(
        self, blocks: VertexBlocks, log_params: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Gram matrix of the blocks' rows (in ``blocks.order``) and dK/d(log
        param) in param_names() order at ``log_params`` (the kernel's own
        values are not read).  Derivative k is the dense diagonal block
        ``blocks.param_slices[k]`` of the full derivative, zero elsewhere.  A
        dim-0 block is its constant scale, so also its scale derivative; a
        tied scale's derivative is K itself (the same array)."""
        values = np.exp(log_params)
        K = np.zeros((blocks.order.size, blocks.order.size))
        grads: list[np.ndarray] = []
        for kind, s, sq, ls, scale in zip(
            blocks.kinds, blocks.slices, blocks.sq, blocks.lengthscales, blocks.scales
        ):
            if ls.stop == ls.start:  # r² = 0 and correlation exactly 1
                term = np.full(sq.shape[1:], values[scale])
            else:
                # d term / d log ls_d = w * sq_d / ls_d^2
                term, r2, corr = _term(kind, values[ls], values[scale], sq)
                w = values[scale] * _lengthscale_grad_weight(kind, r2, corr)
                inv_ls2 = 1.0 / np.square(values[ls])
                grads.extend(sq * inv_ls2[:, None, None] * w)
            K[s, s] += term
            if not self.tied_scales:
                grads.append(term)  # d/dlog scale
        if self.tied_scales and blocks.vertices:
            grads.append(K)
        return K, grads

    # -- serialization ---------------------------------------------------------

    def to_config(self) -> dict:
        """Named-parameter record: the zero-dim policy, whether scales are
        tied, and per vertex id its kind/lengthscales/scale."""
        return {
            "zero_dim": self.zero_dim,
            "tied_scales": self.tied_scales,
            "params": {
                vid: {
                    "kind": p.kind,
                    "lengthscales": list(p.lengthscales),
                    "output_scale": p.output_scale,
                }
                for vid, p in ((v, self.params[v]) for v in self.index.bfs_order)
            },
        }

    @classmethod
    def from_config(cls, spec: TreeSpec, index: PathIndex, record: dict) -> "AddTreeKernel":
        """The kernel a :meth:`to_config` record describes."""
        params = {
            vid: BaseKernelParams(
                kind=entry["kind"],
                lengthscales=tuple(float(x) for x in entry["lengthscales"]),
                output_scale=float(entry["output_scale"]),
            )
            for vid, entry in record["params"].items()
        }
        return cls(
            spec=spec, index=index, params=params,
            zero_dim=record["zero_dim"], tied_scales=record["tied_scales"],
        )


def add_tree_eval(kernel: AddTreeKernel, x: LinearizedPoint, y: LinearizedPoint) -> float:
    """Tree-kernel value between two linearized points."""
    return kernel(x, y)


def gram(kernel: AddTreeKernel, points: list[LinearizedPoint]) -> np.ndarray:
    """Symmetric kernel matrix over a point list."""
    if not points:
        raise ValueError("gram() needs at least one point")
    return kernel.gram(points)
