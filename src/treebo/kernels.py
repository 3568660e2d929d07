"""Covariance functions over tree-structured spaces.

Each vertex carries a stationary base kernel on its continuous variables,
of the one kind the kernel has (squared exponential or Matern with nu in
{3/2, 5/2}), with ARD lengthscales and an output scale.  The tree kernel
between two configurations is the sum of the base kernels over the vertices
shared by both active paths, i.e. over the path from the root to the
leaves' lowest common ancestor; each term is evaluated on the two points'
restrictions to that vertex.  Vertex membership is decided by the sign of
the vertex's tag slot in the linear layout (non-negative on the active
path), so the whole kernel evaluates on fixed-width vectors without
consulting the tree.

A vertex with no continuous variables contributes its output scale as a
constant whenever it is shared (``zero_dim="constant"``, the default), which
keeps an information channel open through shared structural vertices.  The
alternative ``zero_dim="zero"`` drops such vertices from the sum entirely;
under that policy points whose paths only share dim-0 vertices have exactly
zero covariance.

The positive hyperparameters are stored once, as the flat vector
``AddTreeKernel.theta``; the kernel's layout (built once per kernel) maps each
contributing vertex to the index range of its lengthscales and the index of
its scale there, and every method reads them through it.  Every method
evaluates a vertex's term only on its block: the rows whose path contains
the vertex (:meth:`AddTreeKernel._block`), through one helper, ``_term``, on
the raw per-dimension squared differences.  For hyperparameter fitting,
:meth:`AddTreeKernel.vertex_blocks` does the hyperparameter-free work once:
it orders the rows by the depth-first rank of their leaf, so each vertex's
rows R_v are one contiguous slice, and keeps per block the squared
differences and where the block's lengthscales and scale sit in the vector.
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
    "AddTreeKernel",
    "VertexBlocks",
]

KERNEL_KINDS = ("se", "matern32", "matern52")
ZERO_DIM_POLICIES = ("constant", "zero")

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


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
    ``slices`` and ``sq`` hold its id, slice and the raw squared differences
    of its values on that slice, (d, |R_v|, |R_v|); ``lengthscales`` and
    ``scales`` hold the index range of its lengthscales and the index of its
    scale in the log vector (one index for tied scales).  ``param_slices``
    gives, per log-parameter, the diagonal block of the Gram matrix its
    derivative lives on.
    """

    order: np.ndarray
    vertices: tuple[str, ...]
    slices: tuple[slice, ...]
    sq: tuple[np.ndarray, ...]
    lengthscales: tuple[slice, ...]
    scales: tuple[int, ...]
    param_slices: tuple[slice, ...]


def _param_layout(
    spec: TreeSpec, index: PathIndex, zero_dim: str, tied_scales: bool
) -> tuple[dict[str, tuple[slice, int]], int]:
    """The hyperparameter vector's length and, per contributing BFS vertex,
    the index range of its ``dim`` lengthscales and the index of its scale,
    which follows them unless scales are tied: tied scales share one trailing
    entry.  Under the 'zero' policy dim-0 vertices have no entries (the
    kernel never uses them, so they are unidentifiable)."""
    layout, pos = {}, 0
    for vid in index.bfs_order:
        dim = spec.vertex(vid).dim
        if dim or zero_dim == "constant":
            layout[vid] = (slice(pos, pos + dim), pos + dim)
            pos += dim + (not tied_scales)
    if not tied_scales:
        return layout, pos
    return {vid: (ls, pos) for vid, (ls, _) in layout.items()}, pos + bool(layout)


@dataclass(frozen=True)
class AddTreeKernel:
    """Additive path kernel: per-vertex base kernels summed over shared paths.

    ``theta`` holds the positive hyperparameters, one flat vector in
    :meth:`param_names` order (any sequence, stored as a tuple of floats):
    per contributing vertex its lengthscales and output scale.  Every vertex's base kernel is of the one ``kind``.  With
    ``tied_scales`` all vertices share a single output scale (the vector's
    last entry); evidence maximization then cannot silence a rarely-visited
    branch by collapsing its amplitude.  Instances are immutable value
    objects and evaluation is pure.
    """

    spec: TreeSpec
    index: PathIndex
    theta: tuple[float, ...]
    kind: str = "se"
    zero_dim: str = "constant"
    tied_scales: bool = False
    _layout: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        if self.zero_dim not in ZERO_DIM_POLICIES:
            raise ValueError(f"zero_dim must be 'constant' or 'zero', got {self.zero_dim!r}")
        layout, size = _param_layout(self.spec, self.index, self.zero_dim, self.tied_scales)
        theta = tuple(map(float, self.theta))
        if len(theta) != size:
            raise ValueError(f"expected {size} hyperparameters, got {len(theta)}")
        if not all(x > 0 and math.isfinite(x) for x in theta):
            raise ValueError(f"hyperparameters must be positive and finite, got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_layout", layout)

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
        layout, size = _param_layout(spec, index, zero_dim, tied_scales)
        theta = [lengthscale] * size
        for _, scale in layout.values():
            theta[scale] = output_scale
        return cls(spec, index, tuple(theta), kind, zero_dim, tied_scales)

    def _block(self, vid: str, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One vertex's rows in stacked slots and their value columns.

        This is the one membership rule: a row has the vertex on its active
        path iff the vertex's tag slot is non-negative.
        """
        tag_pos, vs, ve = self.index.offsets[vid]
        rows = (A[:, tag_pos] >= 0).nonzero()[0]
        return rows, A[rows, vs:ve]

    # -- evaluation ----------------------------------------------------------

    def gram_matrix(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between stacked slot arrays (B defaults to A)."""
        if B is None:
            B = A
        K = np.zeros((A.shape[0], B.shape[0]))
        if K.size == 0:
            return K
        for vid, (ls, scale) in self._layout.items():
            rows_a, Va = self._block(vid, A)
            if rows_a.size:
                rows_b, Vb = self._block(vid, B)
                sq = _sq_diffs(Va, Vb)
                K[rows_a[:, None], rows_b] += _term(
                    self.kind, self.theta[ls], self.theta[scale], sq
                )[0]
        return K

    def diag(self, A: np.ndarray) -> np.ndarray:
        """k(x, x) for each stacked row: summed contributing output scales
        on its path (each vertex term at zero distance)."""
        out = np.zeros(A.shape[0])
        for vid, (_, scale) in self._layout.items():
            rows, _ = self._block(vid, A)
            out[rows] += self.theta[scale]
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
        dim = self.spec.vertex(vertex_id).dim
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(1, -1) if dim else V.reshape(1, 0)
        if V.shape[1] != dim:
            raise ValueError(
                f"vertex {vertex_id!r} expects {dim}-dim values, got {V.shape[1]}"
            )
        out = np.zeros((V.shape[0], A.shape[0]))
        grad = np.zeros((dim, *out.shape)) if with_grad else None
        if A.shape[0] and vertex_id in self._layout:
            ls, scale = self._layout[vertex_id]
            lengthscales, s = self.theta[ls], self.theta[scale]
            rows, VA = self._block(vertex_id, A)
            D = V.T[:, :, None] - VA.T[:, None, :]
            term, r2, corr = _term(self.kind, lengthscales, s, D * D)
            out[:, rows] = term
            if with_grad:
                w = s * _lengthscale_grad_weight(self.kind, r2, corr)
                grad[:, :, rows] = -w * D / np.square(lengthscales)[:, None, None]
        return (out, grad) if with_grad else out

    def component_prior_variance(self, vertex_id: str) -> float:
        if vertex_id not in self._layout:
            return 0.0
        return self.theta[self._layout[vertex_id][1]]

    # -- hyperparameter plumbing ----------------------------------------------

    def param_names(self) -> list[str]:
        """Names of the ``theta`` entries (see :func:`_param_layout`); a tied
        scale is named ``shared::scale``."""
        names = [""] * len(self.theta)
        for vid, (ls, scale) in self._layout.items():
            names[ls] = [f"{vid}::ls{d}" for d in range(ls.stop - ls.start)]
            names[scale] = "shared::scale" if self.tied_scales else f"{vid}::scale"
        return names

    def get_log_params(self) -> np.ndarray:
        """log(theta), the vector hyperparameter fitting works on."""
        return np.log(self.theta)

    def with_log_params(self, vec: np.ndarray) -> "AddTreeKernel":
        """The kernel with theta = exp(vec)."""
        return replace(self, theta=np.exp(vec))

    def vertex_blocks(self, A: np.ndarray) -> VertexBlocks:
        """The hyperparameter-free block data of stacked rows ``A``; it
        depends on the kernel's structure only (contributing vertices and
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

        param_slices = [slice(0, order.size)] * len(self.theta)  # a tied scale's block is all of K
        slices, sq = [], []
        for vid, (ls, scale) in self._layout.items():
            rows, V = self._block(vid, A)
            s = slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)
            slices.append(s)
            sq.append(_sq_diffs(V, V))
            param_slices[ls] = [s] * (ls.stop - ls.start)
            if not self.tied_scales:
                param_slices[scale] = s
        lengthscales, scales = zip(*self._layout.values()) if self._layout else ((), ())
        return VertexBlocks(order, tuple(self._layout), tuple(slices), tuple(sq),
                            lengthscales, scales, tuple(param_slices))

    def gram_and_grads(
        self, blocks: VertexBlocks, log_params: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Gram matrix of the blocks' rows (in ``blocks.order``) and dK/d(log
        param) in param_names() order at ``log_params`` (the kernel's own
        theta is not read).  Derivative k is the dense diagonal block
        ``blocks.param_slices[k]`` of the full derivative, zero elsewhere.  A
        dim-0 block is its constant scale, so also its scale derivative; a
        tied scale's derivative is K itself (the same array)."""
        values = np.exp(log_params)
        K = np.zeros((blocks.order.size, blocks.order.size))
        grads: list[np.ndarray] = []
        for s, sq, ls, scale in zip(blocks.slices, blocks.sq, blocks.lengthscales, blocks.scales):
            if ls.stop == ls.start:  # r² = 0 and correlation exactly 1
                term = np.full(sq.shape[1:], values[scale])
            else:
                # d term / d log ls_d = w * sq_d / ls_d^2
                term, r2, corr = _term(self.kind, values[ls], values[scale], sq)
                w = values[scale] * _lengthscale_grad_weight(self.kind, r2, corr)
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
        """Named-parameter record: the kind, the zero-dim policy, whether
        scales are tied, and per contributing vertex id its lengthscales and
        output scale."""
        return {
            "kind": self.kind,
            "zero_dim": self.zero_dim,
            "tied_scales": self.tied_scales,
            "params": {
                vid: {"lengthscales": list(self.theta[ls]), "output_scale": self.theta[scale]}
                for vid, (ls, scale) in self._layout.items()
            },
        }

    @classmethod
    def from_config(cls, spec: TreeSpec, index: PathIndex, record: dict) -> "AddTreeKernel":
        """The kernel a :meth:`to_config` record describes.  Raises
        :class:`ValueError` when the record's vertex ids are not the
        kernel's contributing vertices, a lengthscale count is not the
        vertex's dim, or tied scales differ."""
        zero_dim, tied = record["zero_dim"], record["tied_scales"]
        layout, size = _param_layout(spec, index, zero_dim, tied)
        params = record["params"]
        if set(params) != set(layout):
            raise ValueError(
                f"record has parameters for vertices {sorted(params)}, "
                f"the kernel's contributing vertices are {sorted(layout)}"
            )
        theta = [0.0] * size
        for vid, (ls, scale) in layout.items():
            lengthscales = [float(x) for x in params[vid]["lengthscales"]]
            if len(lengthscales) != ls.stop - ls.start:
                raise ValueError(
                    f"vertex {vid!r}: {len(lengthscales)} lengthscales for dim "
                    f"{ls.stop - ls.start}"
                )
            theta[ls] = lengthscales
            theta[scale] = float(params[vid]["output_scale"])
        if tied and len({float(params[vid]["output_scale"]) for vid in layout}) > 1:
            raise ValueError("tied output scales differ between vertices")
        return cls(spec, index, tuple(theta), record["kind"], zero_dim, tied)
