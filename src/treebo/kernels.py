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
the vertex (:meth:`AddTreeKernel._block`), from the raw per-dimension squared
differences and one helper for the scaled squared distance,
``_scaled_sq_dist``.  For hyperparameter fitting,
:meth:`AddTreeKernel.vertex_blocks` does the hyperparameter-free work once: it
packs the lower-triangle entries of every contributing vertex's block
R_v × R_v into flat arrays (vertex after vertex in BFS order), with each
entry's index in the Gram matrix, its squared differences zero-padded to the
largest vertex dimension, and the vector indices of its vertex's lengthscales
and scale.  :meth:`AddTreeKernel.gram_and_grads` evaluates every entry at once
from exp(log vector), sums the terms into the Gram matrix with one
``bincount``, mirrors it, and returns every entry's log-parameter
derivatives, so its numpy work does not grow with the number of vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _scaled_sq_dist(inv_ls2, sq: np.ndarray) -> np.ndarray:
    """r² = Σ_d inv_ls2[d] · sq[d], added up in dimension order from 0.

    Every Gram entry goes through here, so the packed fitting layout and the
    per-vertex blocks give the same bits; a matrix product may fuse the
    multiply-adds and would not.  Zero-padded dimensions add exactly 0.
    """
    if sq.shape[0] == 0:
        return np.zeros(sq.shape[1:])
    r2 = inv_ls2[0] * sq[0]  # equals 0 + this product: it is never -0
    for d in range(1, sq.shape[0]):
        r2 += inv_ls2[d] * sq[d]
    return r2


def _term(kind: str, lengthscales, scale: float, sq: np.ndarray) -> np.ndarray:
    """One vertex's base-kernel values from raw squared differences.

    ``sq`` is (d, m, n) as from :func:`_sq_diffs`; returns the (m, n) values.
    A dim-0 vertex has r² = 0 and correlation exactly 1, so its term is the
    constant output scale.
    """
    r2 = _scaled_sq_dist(1.0 / np.square(lengthscales), sq)
    return scale * _corr_from_r2(kind, r2)


def stack_points(points: list[LinearizedPoint]) -> np.ndarray:
    """Stack linearized points (at least one) into a slots matrix, row by row."""
    return np.stack([p.slots for p in points])


@dataclass(frozen=True)
class VertexBlocks:
    """The hyperparameter-free part of a kernel's Gram matrix over fixed rows,
    packed entry by entry.

    Built by :meth:`AddTreeKernel.vertex_blocks` once per hyperparameter fit.
    A block is the lower triangle, diagonal included, of a contributing
    vertex's R_v × R_v, R_v being the rows whose path contains the vertex
    (the upper triangle is its mirror image).  The blocks come in BFS order,
    empty ones left out, and their entries one after another, E =
    Σ_v |R_v|(|R_v| + 1)/2 of them.  Per entry (i, j), i >= j, ``flat`` (E,)
    holds i·n + j, its index into the flattened n × n Gram matrix, and
    ``sq`` (dmax, E) its raw squared differences, dmax being the largest
    vertex dimension, zero past its vertex's dimension.  Per block,
    ``starts`` and ``sizes`` hold the position of its first entry and its
    number of entries, and ``param_index``
    (dmax + 1, blocks) the log-vector indices of its lengthscales in rows
    0..dmax-1 (slots past the vertex's dimension hold the padding index, the
    vector's length) and of its scale in the last row.
    """

    n: int
    flat: np.ndarray
    sq: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    param_index: np.ndarray


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
                K[rows_a[:, None], rows_b] += _term(
                    self.kind, self.theta[ls], self.theta[scale], _sq_diffs(Va, Vb)
                )
        return K

    def diag(self, A: np.ndarray) -> np.ndarray:
        """k(x, x) for each stacked row: summed contributing output scales
        on its path (each vertex term at zero distance)."""
        out = np.zeros(A.shape[0])
        for vid, (_, scale) in self._layout.items():
            rows, _ = self._block(vid, A)
            out[rows] += self.theta[scale]
        return out

    def component_cross(self, vertex_id: str, V: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Cross-covariance of one vertex's component against stacked rows.

        ``V`` is (m, dim) query values for the vertex (m x 0 for dim-0).
        Entry (q, i) is the vertex's base kernel between V[q] and row i's
        restriction when the vertex is on row i's path, else 0.
        """
        dim = self.spec.vertex(vertex_id).dim
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(1, -1)
        if V.shape[1] != dim:
            raise ValueError(
                f"vertex {vertex_id!r} expects {dim}-dim values, got {V.shape[1]}"
            )
        out = np.zeros((V.shape[0], A.shape[0]))
        if A.shape[0] and vertex_id in self._layout:
            ls, scale = self._layout[vertex_id]
            rows, VA = self._block(vertex_id, A)
            out[:, rows] = _term(self.kind, self.theta[ls], self.theta[scale], _sq_diffs(V, VA))
        return out

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

    def vertex_blocks(self, A: np.ndarray) -> VertexBlocks:
        """The packed block entries of stacked rows ``A``; they depend on the
        kernel's structure only (contributing vertices and tied scales), so
        they serve every log vector of the layout."""
        n = A.shape[0]
        dmax = max((ls.stop - ls.start for ls, _ in self._layout.values()), default=0)
        flat, sq = [np.empty(0, dtype=np.intp)], [np.empty((dmax, 0))]
        sizes, index = [], []
        for vid, (ls, scale) in self._layout.items():
            rows, V = self._block(vid, A)
            if not rows.size:
                continue
            a, b = np.tril_indices(rows.size)  # K is symmetric: entries i >= j
            dim, size = V.shape[1], a.size
            flat.append(rows[a] * n + rows[b])
            block_sq = np.zeros((dmax, size))
            block_sq[:dim] = _sq_diffs(V, V)[:, a, b]
            sq.append(block_sq)
            sizes.append(size)
            index.append([*range(ls.start, ls.stop), *[len(self.theta)] * (dmax - dim), scale])
        sizes = np.array(sizes, dtype=np.intp)
        return VertexBlocks(
            n,
            np.concatenate(flat),
            np.concatenate(sq, axis=1),
            np.cumsum(sizes) - sizes,
            sizes,
            np.array(index, dtype=np.intp).reshape(-1, dmax + 1).T.copy(),
        )

    def gram_and_grads(
        self, blocks: VertexBlocks, log_params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix of the blocks' rows and every entry's dK/d(log param)
        at ``log_params`` (the kernel's own theta is not read).

        The derivatives come as one (dmax + 1, E) array, row d < dmax holding
        each entry's derivative in its vertex's d-th log lengthscale (0 in
        padded slots) and the last row the entry's term, its derivative in
        its vertex's log scale; ``blocks.param_index`` says which parameter
        each row of each block belongs to.  K adds the terms entry by entry in
        the packed order, which is the order and the arithmetic of
        :meth:`gram_matrix`, into its lower triangle and copies that to the
        upper one, so the two agree bitwise.
        """
        theta = np.exp(np.concatenate((log_params, [0.0])))  # the padding index reads 1
        per_block = theta[blocks.param_index]
        per_block[:-1] = 1.0 / np.square(per_block[:-1])
        per_entry = np.repeat(per_block, blocks.sizes, axis=1)
        inv_ls2, scale = per_entry[:-1], per_entry[-1]
        r2 = _scaled_sq_dist(inv_ls2, blocks.sq)
        corr = _corr_from_r2(self.kind, r2)
        dK = np.empty(per_entry.shape)
        term = np.multiply(scale, corr, out=dK[-1])
        # d term / d log ls_d = s * w * sq_d / ls_d^2
        np.multiply(blocks.sq, inv_ls2, out=dK[:-1])
        dK[:-1] *= scale * _lengthscale_grad_weight(self.kind, r2, corr)
        K = np.bincount(blocks.flat, term, minlength=blocks.n * blocks.n)
        # bincount gives integer zeros when there are no entries
        K = K.astype(float, copy=False).reshape(blocks.n, blocks.n)
        K = K + K.T  # mirror the lower triangle, doubling the diagonal exactly
        K.flat[:: blocks.n + 1] *= 0.5
        return K, dK

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
