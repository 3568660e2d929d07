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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tree_space import LinearizedPoint, PathIndex, TreeSpec

__all__ = [
    "BaseKernelParams",
    "AddTreeKernel",
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
        if any(not (ls > 0 and np.isfinite(ls)) for ls in self.lengthscales):
            raise ValueError(f"lengthscales must be positive and finite, got {self.lengthscales}")
        if not (self.output_scale > 0 and np.isfinite(self.output_scale)):
            raise ValueError(f"output_scale must be positive and finite, got {self.output_scale}")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)


def _scaled_sq_dists(params: BaseKernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-dimension scaled squared differences, shape (m, n, d)."""
    ls = np.asarray(params.lengthscales)
    D = (A[:, None, :] - B[None, :, :]) / ls
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


def _pairwise(params: BaseKernelParams, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Base-kernel values between row sets, shape (m, n)."""
    if params.dim == 0:
        return np.full((A.shape[0], B.shape[0]), params.output_scale)
    r2 = _scaled_sq_dists(params, A, B).sum(axis=2)
    return params.output_scale * _corr_from_r2(params.kind, r2)


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
    return float(_pairwise(params, a[None, :], b[None, :])[0, 0])


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
        """One vertex's on-path flags and value columns in stacked rows.

        The flags are the one membership rule: a row has the vertex on its
        active path iff the vertex's tag slot is non-negative.  Value columns
        of off-path rows are zero-filled junk that callers mask out.
        """
        tag_pos, vs, ve = self.index.offsets[vid]
        return A[:, tag_pos] >= 0, A[:, vs:ve]

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x: LinearizedPoint, y: LinearizedPoint) -> float:
        Xa = stack_points([x])
        Xb = stack_points([y])
        return float(self.gram_matrix(Xa, Xb)[0, 0])

    def gram_matrix(self, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix between stacked slot arrays (B defaults to A)."""
        if B is None:
            B = A
        m, n = A.shape[0], B.shape[0]
        K = np.zeros((m, n))
        if m == 0 or n == 0:
            return K
        for vid in self._contributing():
            on_a, Va = self._block(vid, A)
            on_b, Vb = self._block(vid, B)
            mask = on_a[:, None] & on_b[None, :]
            K += np.where(mask, _pairwise(self.params[vid], Va, Vb), 0.0)
        return K

    def gram(self, points: list[LinearizedPoint]) -> np.ndarray:
        X = stack_points(points)
        return self.gram_matrix(X)

    def diag(self, A: np.ndarray) -> np.ndarray:
        """k(x, x) for each stacked row: summed contributing output scales
        on its path."""
        out = np.zeros(A.shape[0])
        for vid in self._contributing():
            on, _ = self._block(vid, A)
            out += np.where(on, self.params[vid].output_scale, 0.0)
        return out

    def component_cross(self, vertex_id: str, V: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Cross-covariance of one vertex's component against stacked rows.

        ``V`` is (m, dim) query values for the vertex (m x 0 for dim-0).
        Entry (q, i) is the vertex's base kernel between V[q] and row i's
        restriction when the vertex is on row i's path, else 0.
        """
        p = self.params[vertex_id]
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V.reshape(1, -1) if p.dim else V.reshape(1, 0)
        if V.shape[1] != p.dim:
            raise ValueError(
                f"vertex {vertex_id!r} expects {p.dim}-dim values, got {V.shape[1]}"
            )
        m, n = V.shape[0], A.shape[0]
        if n == 0 or not self._contributes(vertex_id):
            return np.zeros((m, n))
        on, VA = self._block(vertex_id, A)
        return np.where(on[None, :], _pairwise(p, V, VA), 0.0)

    def component_prior_variance(self, vertex_id: str) -> float:
        if not self._contributes(vertex_id):
            return 0.0
        return self.params[vertex_id].output_scale

    # -- hyperparameter plumbing ----------------------------------------------

    def param_names(self) -> list[str]:
        """Canonical order of free log-parameters for fitting.

        Per BFS vertex: one lengthscale per dimension, then the output scale
        (one trailing shared scale instead when scales are tied).  Dim-0
        output scales are skipped under the 'zero' policy (the kernel never
        uses them there, so they are unidentifiable).
        """
        names: list[str] = []
        for vid in self._contributing():
            names.extend(f"{vid}::ls{d}" for d in range(self.params[vid].dim))
            if not self.tied_scales:
                names.append(f"{vid}::scale")
        if self.tied_scales:
            names.append("shared::scale")
        return names

    def get_log_params(self) -> np.ndarray:
        vec: list[float] = []
        for name in self.param_names():
            vid, what = name.split("::")
            if vid == "shared":
                vid = self._contributing()[0]
            p = self.params[vid]
            if what == "scale":
                vec.append(np.log(p.output_scale))
            else:
                vec.append(np.log(p.lengthscales[int(what[2:])]))
        return np.array(vec)

    def with_log_params(self, vec: np.ndarray) -> "AddTreeKernel":
        names = self.param_names()
        if len(vec) != len(names):
            raise ValueError(f"expected {len(names)} log-parameters, got {len(vec)}")
        by_vertex: dict[str, dict] = {}
        shared_scale = None
        for name, val in zip(names, vec):
            vid, what = name.split("::")
            if vid == "shared":
                shared_scale = float(np.exp(val))
            else:
                by_vertex.setdefault(vid, {})[what] = float(np.exp(val))
        new_params = dict(self.params)
        for vid, p in self.params.items():
            upd = by_vertex.get(vid, {})
            ls = list(p.lengthscales)
            for what, val in upd.items():
                if what != "scale":
                    ls[int(what[2:])] = val
            scale = upd.get("scale", p.output_scale)
            if shared_scale is not None:
                scale = shared_scale
            if not upd and shared_scale is None:
                continue
            new_params[vid] = BaseKernelParams(
                kind=p.kind, lengthscales=tuple(ls), output_scale=scale
            )
        return replace(self, params=new_params)

    def gram_and_grads(self, A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Gram matrix plus dK/d(log param) in param_names() order.

        With tied scales every vertex term is proportional to the one shared
        scale, so that parameter's gradient is the Gram matrix itself.
        """
        n = A.shape[0]
        K = np.zeros((n, n))
        grads: list[np.ndarray] = []
        for vid in self._contributing():
            p = self.params[vid]
            on, V = self._block(vid, A)
            mask = on[:, None] & on[None, :]
            if p.dim == 0:
                term = np.where(mask, p.output_scale, 0.0)
                K += term
                if not self.tied_scales:
                    grads.append(term)  # d/dlog scale
                continue
            sq = _scaled_sq_dists(p, V, V)
            r2 = sq.sum(axis=2)
            corr = _corr_from_r2(p.kind, r2)
            term = np.where(mask, p.output_scale * corr, 0.0)
            K += term
            w = p.output_scale * _lengthscale_grad_weight(p.kind, r2, corr)
            for d in range(p.dim):
                grads.append(np.where(mask, w * sq[:, :, d], 0.0))
            if not self.tied_scales:
                grads.append(term)  # d/dlog scale
        if self.tied_scales:
            grads.append(K.copy())
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
