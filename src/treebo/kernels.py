"""Covariance functions over tree-structured spaces.

Each vertex carries a stationary base kernel on its continuous variables,
of the one kind the kernel has (squared exponential or Matern with nu in
{3/2, 5/2}), with ARD lengthscales and an output scale.  The tree kernel
between two configurations is the sum of the base kernels over the vertices
shared by both active paths, i.e. over the path from the root to the
leaves' lowest common ancestor; each term is evaluated on the two points'
restrictions to that vertex.  Vertex membership is decided by the sign of
the vertex's tag slot in the linear layout (non-negative on the active
path), so the whole kernel evaluates on slot rows of ``spec.width`` floats
without walking the tree: it reads the tag and value slots of each vertex
at ``spec.offsets``.

Every vertex has an output scale.  A vertex with no continuous variables
contributes its scale as a constant whenever it is shared, which keeps an
information channel open through shared structural vertices: any two
points share at least the root, so their covariance is at least the root's
scale, and the hyperparameter vector is never empty.

The positive hyperparameters are stored once, as the flat vector
``AddTreeKernel.theta``; the kernel's layout (built once per kernel) maps each
vertex to the index range of its lengthscales and the index of its scale
there, and every method reads them through it.  Every method evaluates a
vertex's term only on its block: the rows whose path contains the vertex
(:meth:`AddTreeKernel._block`), from the raw per-dimension squared
differences, one helper for the scaled squared distance, ``_scaled_sq_dist``,
and one for the correlation and its lengthscale weight, ``_corr_and_weight``.
For hyperparameter fitting, :meth:`AddTreeKernel.vertex_blocks` does the
hyperparameter-free work once: it packs the lower-triangle entries of every
vertex's block R_v × R_v into flat arrays (vertex after vertex in BFS
order), with each entry's index in the column-major Gram matrix, its
squared differences zero-padded to the largest vertex dimension, and the
indices of its vertex's parameters, and it allocates the buffers every
evaluation writes.  :meth:`AddTreeKernel.gram_and_grads` evaluates every
entry at once from exp(log vector), in place in those buffers: it fills the
per-entry parameters with one ``take``, adds the terms into the Gram
matrix's lower triangle (all of it the Cholesky factorization reads) with
one ``np.add.at``, and returns every entry's log-parameter derivatives, so
its numpy work does not grow with the number of vertices and it allocates
nothing of the size of its output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .tree_space import TreeSpec

__all__ = [
    "AddTreeKernel",
    "VertexBlocks",
]

KERNEL_KINDS = ("se", "matern32", "matern52")

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


def _sq_diffs(Va: np.ndarray, Vb: np.ndarray) -> np.ndarray:
    """Raw per-dimension squared differences between row sets, shape (d, m, n)."""
    D = Va.T[:, :, None] - Vb.T[:, None, :]
    return D * D


# Per-entry scratch arrays _corr_and_weight needs besides r²: none for the
# squared exponential, whose weight is its correlation.
_SCRATCH_ROWS = {"se": 0, "matern32": 1, "matern52": 2}


def _corr_and_weight(
    kind: str, r2: np.ndarray, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The correlation (value at unit output scale) at scaled squared
    distances ``r2``, and w such that d corr / d log(ls_d) = w * scaled_sq_dist_d.

    Computed in place: ``r2`` is overwritten, and so is ``scratch``, which
    holds ``_SCRATCH_ROWS[kind]`` arrays of r2's shape (allocated when None);
    the two results are views of them, the same one twice for "se".  The
    expressions are singularity-free at r = 0, and every caller evaluates
    them here, with the same operations in the same order, so the packed
    fitting layout and the per-vertex blocks give the same bits.
    """
    if kind == "se":
        corr = np.exp(np.multiply(r2, -0.5, out=r2), out=r2)
        return corr, corr
    if scratch is None:
        scratch = np.empty((_SCRATCH_ROWS[kind],) + r2.shape)
    root = _SQRT3 if kind == "matern32" else _SQRT5
    cr = np.multiply(np.sqrt(r2, out=scratch[0]), root, out=scratch[0])
    if kind == "matern32":
        e = np.exp(np.negative(cr, out=r2), out=r2)
        corr = np.multiply(np.add(cr, 1.0, out=cr), e, out=cr)  # (1 + √3 r) e
        return corr, np.multiply(e, 3.0, out=e)  # 3 e
    e = np.exp(np.negative(cr, out=scratch[1]), out=scratch[1])
    np.add(cr, 1.0, out=cr)
    np.multiply(r2, 5.0 / 3.0, out=r2)
    corr = np.multiply(np.add(r2, cr, out=r2), e, out=r2)  # (1 + √5 r + 5/3 r²) e
    return corr, np.multiply(np.multiply(cr, 5.0 / 3.0, out=cr), e, out=cr)  # 5/3 (1 + √5 r) e


def _scaled_sq_dist(inv_ls2, sq: np.ndarray) -> np.ndarray:
    """r² = Σ_d inv_ls2[d] · sq[d], added up in dimension order from 0.

    :meth:`AddTreeKernel.gram_and_grads` adds the same products in the same
    order, so the packed fitting layout and the per-vertex blocks give the
    same bits; a matrix product may fuse the multiply-adds and would not.
    Zero-padded dimensions add exactly 0.
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
    return scale * _corr_and_weight(kind, r2)[0]


@functools.lru_cache(maxsize=256)
def _tril_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(m)``, read-only and computed once per size: building
    them is most of a small vertex's packing."""
    a, b = np.tril_indices(m)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@dataclass(frozen=True, eq=False)
class VertexBlocks:
    """The hyperparameter-free part of a kernel's Gram matrix over fixed rows,
    packed entry by entry, and the buffers every evaluation on them writes:
    the workspace of one hyperparameter fit.

    Built by :meth:`AddTreeKernel.vertex_blocks` once per hyperparameter fit.
    A block is the lower triangle, diagonal included, of a vertex's R_v ×
    R_v, R_v being the rows whose path contains the vertex (the upper
    triangle is its mirror image).  The blocks come in BFS order, empty ones
    left out, and their entries one after another, E = Σ_v |R_v|(|R_v| +
    1)/2 of them.  Per entry (i, j), i >= j, ``flat`` (E,)
    holds i + j·n, its index into the column-major flattening of the n × n
    Gram matrix (the lower triangle as LAPACK stores it), and ``sq``
    (dmax, E) its raw squared differences, dmax being the largest vertex
    dimension, zero past its vertex's dimension.  Per block, ``starts``
    holds the position of its first entry, and ``param_index``
    (dmax + 1, blocks) the log-vector indices
    of its lengthscales in rows 0..dmax-1 (slots past the vertex's dimension
    hold the padding index, the vector's length P) and of its scale in the
    last row.  ``entry_index`` (dmax + 1, E) is the same per entry, pointing
    into ``params``, the vector [1/θ², θ] of 2(P + 1) entries that
    :meth:`AddTreeKernel.gram_and_grads` fills (θ's padding entry is 1):
    row d < dmax into its first half, the scale row into its second.

    The rest are buffers, so that an evaluation allocates nothing of size E
    or n²: :meth:`AddTreeKernel.gram_and_grads` writes ``params``, ``dK``
    (dmax + 1, E), ``r2`` (E,), ``scratch`` (``_SCRATCH_ROWS[kind]``, E)
    and the Fortran-ordered n × n ``K``, and returns ``K`` and ``dK``
    themselves; the evidence (:func:`treebo.gp._evidence_and_grad`) writes
    the n × n ``inner``, ``sums`` (dmax + 1, blocks), and ``r2`` again,
    which no longer holds anything the Gram needs.
    """

    flat: np.ndarray
    sq: np.ndarray
    starts: np.ndarray
    param_index: np.ndarray
    entry_index: np.ndarray
    params: np.ndarray
    dK: np.ndarray
    r2: np.ndarray
    scratch: np.ndarray
    K: np.ndarray
    inner: np.ndarray
    sums: np.ndarray


def _param_layout(
    spec: TreeSpec, tied_scales: bool
) -> tuple[dict[str, tuple[slice, int]], int]:
    """The hyperparameter vector's length and, per BFS vertex, the index
    range of its ``dim`` lengthscales and the index of its scale, which
    follows them unless scales are tied: tied scales share one trailing
    entry."""
    layout, pos = {}, 0
    for vid in spec.bfs_order:
        dim = spec.vertex(vid).dim
        layout[vid] = (slice(pos, pos + dim), pos + dim)
        pos += dim + (not tied_scales)
    if not tied_scales:
        return layout, pos
    return {vid: (ls, pos) for vid, (ls, _) in layout.items()}, pos + 1


@dataclass(frozen=True)
class AddTreeKernel:
    """Additive path kernel: per-vertex base kernels summed over shared paths.

    ``theta`` holds the positive hyperparameters, one flat vector in
    :meth:`param_names` order (any sequence, stored as a tuple of floats):
    per vertex its lengthscales and output scale.  Every vertex's base
    kernel is of the one ``kind``.  With ``tied_scales`` all vertices share
    a single output scale (the vector's last entry); evidence maximization
    then cannot silence a rarely-visited branch by collapsing its
    amplitude.  Every method takes configurations as slot rows
    (:func:`~treebo.tree_space.linearize`), stacked into a matrix of
    ``spec.width`` columns.  Instances are immutable value objects and
    evaluation is pure.
    """

    spec: TreeSpec
    theta: tuple[float, ...]
    kind: str = "se"
    tied_scales: bool = False
    _layout: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        layout, size = _param_layout(self.spec, self.tied_scales)
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
        kind: str = "se",
        lengthscale: float = 1.0,
        output_scale: float = 1.0,
        tied_scales: bool = False,
    ) -> "AddTreeKernel":
        """Uniform parameters across vertices; the usual fitting start."""
        layout, size = _param_layout(spec, tied_scales)
        theta = [lengthscale] * size
        for _, scale in layout.values():
            theta[scale] = output_scale
        return cls(spec, tuple(theta), kind, tied_scales)

    def _block(self, vid: str, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One vertex's rows in stacked slots and their value columns.

        This is the one membership rule: a row has the vertex on its active
        path iff the vertex's tag slot is non-negative.
        """
        tag_pos, vs, ve = self.spec.offsets[vid]
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
        """k(x, x) for each stacked row: the summed output scales of the
        vertices on its path (each vertex term at zero distance)."""
        out = np.zeros(A.shape[0])
        for vid, (_, scale) in self._layout.items():
            rows, _ = self._block(vid, A)
            out[rows] += self.theta[scale]
        return out

    def component_cross(self, vertex_id: str, V: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Cross-covariance of one vertex's component against stacked rows.

        ``V`` is (m, dim) query values for the vertex (m x 0 for dim-0), or
        one row as a 1-D array.  Entry (q, i) is the vertex's base kernel
        between V[q] and row i's restriction when the vertex is on row i's
        path, else 0.  Raises ``KeyError`` for an id that is no vertex and
        ``ValueError`` for values of any other shape or not finite.
        """
        dim = self.spec.vertex(vertex_id).dim
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(1, -1)
        if V.ndim != 2:
            raise ValueError(f"vertex {vertex_id!r} expects (m, {dim}) values, got shape {V.shape}")
        if V.shape[1] != dim:
            raise ValueError(
                f"vertex {vertex_id!r} expects {dim}-dim values, got {V.shape[1]}"
            )
        if not np.isfinite(V).all():
            row, col = np.argwhere(~np.isfinite(V))[0]
            raise ValueError(
                f"vertex {vertex_id!r} value row {row} column {col} is not finite: {V[row, col]}"
            )
        ls, scale = self._layout[vertex_id]
        out = np.zeros((V.shape[0], A.shape[0]))
        rows, VA = self._block(vertex_id, A)
        out[:, rows] = _term(self.kind, self.theta[ls], self.theta[scale], _sq_diffs(V, VA))
        return out

    def component_prior_variance(self, vertex_id: str) -> float:
        """The prior variance of one vertex's component, its output scale;
        raises ``KeyError`` for an id that is no vertex."""
        try:
            return self.theta[self._layout[vertex_id][1]]
        except KeyError:
            raise KeyError(f"unknown vertex id {vertex_id!r}") from None

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
        """The packed block entries of stacked rows ``A`` and the buffers of
        their evaluations; they depend on the kernel's structure and kind
        only (the vertices' dimensions, tied scales), so they serve every log
        vector of the layout."""
        n, P = A.shape[0], len(self.theta)
        dmax = max(ls.stop - ls.start for ls, _ in self._layout.values())
        flat, sq = [np.empty(0, dtype=np.intp)], [np.empty((dmax, 0))]
        sizes, index = [], []
        for vid, (ls, scale) in self._layout.items():
            rows, V = self._block(vid, A)
            if not rows.size:
                continue
            a, b = _tril_indices(rows.size)  # K is symmetric: entries i >= j
            dim, size = V.shape[1], a.size
            flat.append(rows[a] + rows[b] * n)
            block_sq = np.zeros((dmax, size))
            D = V[a] - V[b]  # the differences _sq_diffs(V, V) has at (a, b)
            block_sq[:dim] = (D * D).T
            sq.append(block_sq)
            sizes.append(size)
            index.append([*range(ls.start, ls.stop), *[P] * (dmax - dim), scale])
        sizes = np.array(sizes, dtype=np.intp)
        flat = np.concatenate(flat)
        param_index = np.array(index, dtype=np.intp).reshape(-1, dmax + 1).T.copy()
        entry_index = param_index.copy()
        entry_index[-1] += P + 1  # scales read the second half of params
        params = np.empty(2 * (P + 1))
        params[-1] = 1.0  # θ's padding entry, so that 1/θ² reads 1 there
        return VertexBlocks(
            flat=flat,
            sq=np.concatenate(sq, axis=1),
            starts=np.cumsum(sizes) - sizes,
            param_index=param_index,
            entry_index=np.repeat(entry_index, sizes, axis=1),
            params=params,
            dK=np.empty((dmax + 1, flat.size)),
            r2=np.empty(flat.size),
            scratch=np.empty((_SCRATCH_ROWS[self.kind], flat.size)),
            K=np.empty((n, n), order="F"),
            inner=np.empty((n, n), order="F"),
            sums=np.empty((dmax + 1, sizes.size)),
        )

    def gram_and_grads(
        self, blocks: VertexBlocks, log_params: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrix of the blocks' rows and every entry's dK/d(log param)
        at ``log_params`` (the kernel's own theta is not read).

        K is the Gram matrix's lower triangle, diagonal included, with zeros
        above it: all of it that the Cholesky factorization reads.  It adds
        the terms entry by entry in the packed order, which is the order and
        the arithmetic of :meth:`gram_matrix`, so the two agree bitwise on
        that triangle.  The derivatives come as one (dmax + 1, E) array, row
        d < dmax holding each entry's derivative in its vertex's d-th log
        lengthscale (0 in padded slots) and the last row the entry's term,
        its derivative in its vertex's log scale; ``blocks.param_index``
        says which parameter each row of each block belongs to.  Both are the
        blocks' buffers ``K`` and ``dK``, overwritten by the next call; the
        call writes no other array than the blocks' buffers.
        """
        P, dK = log_params.size, blocks.dK
        inv_ls2, theta = blocks.params[: P + 1], blocks.params[P + 1 :]
        np.exp(log_params, out=theta[:P])
        np.divide(1.0, np.square(theta, out=inv_ls2), out=inv_ls2)
        # every entry's 1/ls² rows and scale; mode "clip" writes straight
        # into dK, where the default mode would buffer the output
        blocks.params.take(blocks.entry_index, out=dK, mode="clip")
        ls_rows, scale = dK[:-1], dK[-1]
        np.multiply(blocks.sq, ls_rows, out=ls_rows)  # sq_d / ls_d², the terms of r²
        r2 = blocks.r2  # the terms added in dimension order, as by _scaled_sq_dist
        r2[...] = ls_rows[0] if len(ls_rows) else 0.0
        for row in ls_rows[1:]:
            r2 += row
        corr, w = _corr_and_weight(self.kind, r2, blocks.scratch)
        if w is not corr:
            np.multiply(w, scale, out=w)
        term = np.multiply(scale, corr, out=scale)
        # d term / d log ls_d = s * w * sq_d / ls_d^2, and s * w is the term
        # itself for "se"
        ls_rows *= term if w is corr else w
        K = blocks.K
        K.fill(0.0)
        np.add.at(K.ravel(order="F"), blocks.flat, term)  # in the packed order
        return K, dK

    # -- serialization ---------------------------------------------------------

    def to_config(self) -> dict:
        """Named-parameter record: the kind, whether scales are tied, and per
        vertex id its lengthscales and output scale."""
        return {
            "kind": self.kind,
            "tied_scales": self.tied_scales,
            "params": {
                vid: {"lengthscales": list(self.theta[ls]), "output_scale": self.theta[scale]}
                for vid, (ls, scale) in self._layout.items()
            },
        }
