"""Exact GP regression with the additive tree kernel.

Inference follows the standard zero-mean GP equations on slot rows
(:func:`~treebo.tree_space.linearize`); a dataset keeps its rows as one
matrix, :attr:`Dataset.X`, and every entry point rejects rows of another width.

* **One batched prediction on the Cholesky factor.**  :func:`fit` keeps the
  lower Cholesky factor L of K_y and α = K_y^{-1} y.  For a query with
  cross-covariance c, μ = c^T α and σ² = k(x, x) − ‖L^{-1} c‖², one
  triangular solve (LAPACK ``dtrtrs``); :func:`posterior` evaluates them for
  many stacked query rows at once.  No row selection is needed: any two
  paths share the root, so every training row is correlated with every
  query.  The squared norm keeps its accuracy where K_y is nearly singular;
  the equal c^T K_y^{-1} c can be wrong by the whole prior there, as entries
  of K_y^{-1} grow like 1/noise near repeated observations.

* **Component posteriors.**  The kernel is a sum of per-vertex terms, so each
  vertex has its own latent component.  Its conditional mean/variance given
  all observations uses the same formula with c restricted to that vertex's
  term, masked by path membership: μ = c^T α and σ² = s_v − ‖L^{-1} c‖².
  Component means along a query's path sum exactly to the full posterior
  mean; variances do not add (the components are correlated a posteriori).

* **Component posteriors on R_v.**  A vertex's cross-covariance c is zero
  off R_v, the rows whose path contains the vertex, so ‖L^{-1} c‖² = ‖R c‖²
  for R the triangular factor of a QR decomposition of L^{-1}[:, R_v], with
  R^T R = (K_y^{-1})_{R_v R_v}.  :func:`component_stack` builds α_{R_v} and
  R once per fitted model for several vertices of one dimension, padded to
  the longest R_v, and :func:`stacked_component_posterior` evaluates means
  and variances for all of them and many query rows each in one batch,
  σ² = s_v − ‖R c‖², with the library's only query gradients: ∂μ = J^T α
  and ∂σ² = −2 J^T R^T R c, J = ∂c/∂v.

* **Evidence on packed vertex blocks.**  Hyperparameter fitting builds the
  kernel's :class:`~treebo.kernels.VertexBlocks` once per fit: the
  lower-triangle entries of every vertex's block, packed into flat arrays,
  and the buffers every evaluation writes.  Each evaluation
  goes from the optimizer's log vector straight to the Gram matrix's lower
  triangle and the per-entry derivatives (no kernel object is built; the
  fitted kernel is made once, from the winning vector).  It factors K_y in
  place with LAPACK ``dpotrf`` (:func:`_cholesky`, the library's one
  Cholesky), solves with ``dpotrs`` and overwrites the factor with K_y^{-1}
  (``dpotri``), all on the Fortran-ordered buffer itself, so no routine
  copies its input, and gathers ``αα^T − K_y^{-1}`` at the packed entries
  once.  Its products with the derivatives are summed per block
  (``np.add.reduceat``) and the block sums onto the parameters they belong
  to (one ``bincount``): ∂L/∂θ = ½ tr((αα^T − K_y^{-1}) ∂K/∂θ) (Rasmussen &
  Williams 2006, eq. 5.9), where an entry below the diagonal stands for its
  mirror image too.  A tied scale is one index shared by every block.
  Summing per block first keeps the scatter short: a ``bincount`` over
  every entry adds into one parameter many times in a row and is several
  times slower.  The buffers exist for the page faults: an evaluation
  that allocated its Gram, inverse and derivative arrays freed more than
  glibc's heap-trim threshold on every call once n passed about 100, and
  faulted the memory in again on the next (154 minor faults a call on the
  26-d tree at n = 150); with them it allocates nothing of size n² or E.

* **L-BFGS-B driven directly.**  Fitting calls L-BFGS-B's routine,
  ``scipy.optimize._lbfgsb.setulb``, in :func:`_lbfgsb`: the loop of
  ``scipy.optimize.minimize(method="L-BFGS-B")`` with its settings and
  stopping rules, so every iterate is bitwise the same, but the routine's
  requests for f and g go straight to the evidence objective, with no copy
  of x or g in between.  scipy's ``ScalarFunction`` and ``MemoizeJac``
  layers cost about as much as the evidence itself at Jenatton sizes.
  ``setulb`` and the LAPACK routines (``lapack``, scipy's ``_flapack``)
  are the same C functions scipy exposes, but :func:`_scipy_extension`
  loads their two compiled modules from their files in scipy's install
  directory: importing ``scipy.optimize`` and ``scipy.linalg`` would run
  their packages' ``__init__``, which pull in linprog, ``scipy.sparse``,
  ``scipy.special`` and more, about 0.3-0.5 s and 38 MB in every process
  that fits a GP.

The observation noise is one known variance shared by every observation
(:attr:`Dataset.noise`); the evidence is maximized over the kernel
hyperparameters only, conditioned on it.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .kernels import AddTreeKernel, VertexBlocks, _corr_and_weight

# the C routines behind np.einsum and np.clip, called without their Python wrappers
_core = np._core if hasattr(np, "_core") else np.core  # numpy >= 2, or older
einsum, clip = _core.multiarray.c_einsum, _core.umath.clip

__all__ = [
    "Dataset",
    "GpModel",
    "FactorizationError",
    "FitResult",
    "fit",
    "posterior",
    "fit_hyperparameters",
]

logger = logging.getLogger(__name__)


def _scipy_extension(package: str, name: str):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its file
    in scipy's install directory without running the package's
    ``__init__``, and registered under its own name so that a later import
    of the package reuses it.  Raises :class:`ImportError` naming the module
    and the directory when the file is not there."""
    fullname = f"scipy.{package}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    directory = Path(scipy.__file__).parent / package
    finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(fullname)
    if spec is None or spec.loader is None:  # no file; or a bare directory
        raise ImportError(f"no extension module {fullname} in {directory}", name=fullname)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


# The compiled routines: LAPACK's dpotrf, dpotri (for the evidence gradient),
# dpotrs and dtrtrs, and L-BFGS-B's setulb (see the module docstring).
lapack = _scipy_extension("linalg", "_flapack")
setulb = _scipy_extension("optimize", "_lbfgsb").setulb

JITTER_START = 1e-10
JITTER_MAX = 1e-4
LOG2PI = np.log(2.0 * np.pi)
# What the fitting objective reports where the Gram cannot be factorized.
FAILED_EVIDENCE = 1e25
# fit_hyperparameters: the box of every lengthscale and output scale, and the
# L-BFGS-B steps.  The box is tight on purpose: scales bounded away from zero
# keep an exploration bonus alive on unvisited branches.
LENGTHSCALE_BOUNDS = (0.05, 20.0)
SCALE_BOUNDS = (0.05, 50.0)
FIT_MAXITER = 200
# The rest of scipy.optimize.minimize's L-BFGS-B defaults: stored corrections,
# ftol / machine epsilon, projected-gradient tolerance, line-search steps and
# the evaluation limit.
LBFGSB_CORRECTIONS = 10
LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
LBFGSB_PGTOL = 1e-5
LBFGSB_MAXLS = 20
LBFGSB_MAXFUN = 15000


class FactorizationError(RuntimeError):
    """Gram factorization failed even after maximal jitter escalation."""


@dataclass
class Dataset:
    """Observations: ``X``, the (n, width) matrix of their slot rows, their
    targets, and the one noise variance of every observation.
    :meth:`create` validates; it takes a 2-D array or a list of rows, and an
    empty dataset as ``np.empty((0, width))``."""

    X: np.ndarray
    targets: np.ndarray
    noise: float

    @classmethod
    def create(cls, X, targets, noise: float = 0.0) -> "Dataset":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-D array of slot rows, got shape {X.shape}")
        targets = np.asarray(targets, dtype=float).ravel()
        n = len(X)
        if targets.size != n:
            raise ValueError(f"{n} rows but {targets.size} targets")
        bad = np.flatnonzero(~np.isfinite(targets))
        if bad.size:
            raise ValueError(f"target {bad[0]} is not finite: {targets[bad[0]]}")
        noise = float(noise)
        if not (noise >= 0 and np.isfinite(noise)):
            raise ValueError(f"noise variance must be non-negative and finite, got {noise}")
        return cls(X=X, targets=targets, noise=noise)

    def __len__(self) -> int:
        return len(self.X)

    def extended(self, row: np.ndarray, target: float) -> "Dataset":
        """This dataset and one more observation, validated by :meth:`create`."""
        return Dataset.create(
            np.vstack([self.X, row]), np.append(self.targets, target), self.noise
        )


def _check_width(kernel: AddTreeKernel, A: np.ndarray, what: str) -> None:
    """Reject ``A`` unless it is a matrix of finite rows of
    ``kernel.spec.width`` slots: the kernel would read another space's rows
    at the wrong slots, and a NaN slot would fail a fit or a posterior later."""
    if A.ndim != 2 or A.shape[1] != kernel.spec.width:
        raise ValueError(
            f"{what} of shape {A.shape} is not a matrix of "
            f"{kernel.spec.width}-slot rows, the kernel's layout"
        )
    if not np.isfinite(A).all():
        row, col = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"{what} row {row} slot {col} is not finite: {A[row, col]}")


def _cholesky(A: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, int]:
    """The library's one Cholesky factorization (LAPACK ``dpotrf``).

    Returns L, the lower factor of the symmetric ``A`` read from its lower
    triangle, Fortran-ordered with zeros above the diagonal, and LAPACK's
    ``info``, positive when ``A`` is not positive definite (L is then no
    factor).  With ``overwrite`` a Fortran-ordered ``A`` becomes L in
    place; otherwise, or for a C-ordered ``A``, L is a new array and ``A``
    is left as it was.
    """
    return lapack.dpotrf(A, lower=1, overwrite_a=overwrite)


def _cholesky_with_jitter(K_y: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter.

    Jitter starts at JITTER_START times the mean diagonal and escalates by
    decades up to JITTER_MAX times the mean diagonal before giving up.
    """
    n = K_y.shape[0]
    L, info = _cholesky(K_y)
    if not info:
        return L, 0.0
    mean_diag = float(np.mean(np.diag(K_y)))
    base = mean_diag if mean_diag > 0 else 1.0
    jitter = JITTER_START * base
    while jitter <= JITTER_MAX * base:
        L, info = _cholesky(K_y + jitter * np.eye(n))
        if not info:
            logger.debug("cholesky: n=%d jitter=%.3e", n, jitter)
            return L, jitter
        jitter *= 10.0
    raise FactorizationError(
        "Gram matrix not positive definite after jitter escalation; "
        "degenerate hyperparameters or duplicate points with zero noise"
    )


def _forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for a lower triangular ``L`` (LAPACK ``dtrtrs``).  Raises
    :class:`numpy.linalg.LinAlgError` when ``dtrtrs`` reports failure."""
    x, info = lapack.dtrtrs(L, B, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return x


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b from a lower Cholesky factor (LAPACK ``dpotrs``, the
    routine :func:`scipy.linalg.cho_solve` wraps, with its checks): raises
    :class:`ValueError` when ``L`` or ``b`` is not finite or ``dpotrs``
    reports failure."""
    if not (np.isfinite(L).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = lapack.dpotrs(L, b, lower=1)
    if info:
        raise ValueError(f"dpotrs failed with info={info}")
    return x


@dataclass
class GpModel:
    """A fitted GP: kernel, data and the factors every prediction reads.

    ``L`` is the lower Cholesky factor of K + σ²·I, K the Gram matrix of
    ``data.X`` and σ² = ``data.noise + jitter``, with ``jitter`` the
    diagonal jitter the factorization needed (0 when none): the one noise
    variance of the GP and of β.  It is Fortran-ordered as LAPACK reads it,
    and ``alpha`` is (K + σ²·I)^{-1} y.  Posterior means read ``alpha``;
    every variance and β's information gain come from ``L``.
    Treat instances as immutable after :func:`fit`, apart from
    ``clamp_count``: posterior queries add the number of numerically
    negative predictive variances they clamp to zero.
    """

    kernel: AddTreeKernel
    data: Dataset
    L: np.ndarray
    alpha: np.ndarray
    jitter: float
    clamp_count: int = 0

    @property
    def n(self) -> int:
        return len(self.data)


def fit(kernel: AddTreeKernel, data: Dataset) -> GpModel:
    """Factor the noisy Gram matrix and cache the dual weights.

    An empty dataset yields a prior-serving model.  Raises
    :class:`FactorizationError` when the matrix stays indefinite through the
    jitter schedule.
    """
    _check_width(kernel, data.X, "data")
    if len(data) == 0:  # LAPACK's dpotrs rejects 0 x 0 inputs
        return GpModel(kernel, data, np.empty((0, 0)), np.empty(0), jitter=0.0)
    K_y = kernel.gram_matrix(data.X)
    K_y.flat[:: len(data) + 1] += data.noise
    L, jitter = _cholesky_with_jitter(K_y)
    return GpModel(kernel, data, L, _solve_lower(L, data.targets), jitter)


def _predict(model: GpModel, C: np.ndarray, prior: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """Means C α and variances prior − ‖L^{-1} c‖² of the queries whose
    cross-covariances c with the training rows are the rows of ``C``.

    Negative variances (round-off where the variance is about 0) are
    clamped to 0 and counted on the model.
    """
    means = C @ model.alpha
    # a model with no data has no factor to solve with (dtrtrs rejects 0 x 0)
    W = _forward_solve(model.L, C.T) if model.n else C.T  # column q is L^{-1} c_q
    variances = prior - einsum("iq,iq->q", W, W)
    neg = variances < 0
    if neg.any():
        model.clamp_count += int(neg.sum())
        variances = np.where(neg, 0.0, variances)
    return means, variances


def posterior(model: GpModel, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances at query slot rows.

    ``Q`` is (m, width), one slot row per query.  Returns two length-m
    arrays, from one cross-covariance matrix against all training rows
    (exact, see the module docstring); each variance lies in
    ``[0, k(x, x)]``.  An empty model returns means 0 and variances k(x, x).
    """
    kernel = model.kernel
    _check_width(kernel, Q, "query")
    return _predict(model, kernel.gram_matrix(Q, model.data.X), kernel.diag(Q))


def component_posterior_batch(
    model: GpModel, vertex_id: str, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-vertex component posterior over query value rows.

    ``V`` is (m, dim) for the vertex (use shape (m, 0) when dim is 0), or one
    row as a 1-D array.  Returns per-row means and clamped variances of the
    vertex's additive latent component given all observations.
    """
    C = model.kernel.component_cross(vertex_id, V, model.data.X)  # (m, n)
    return _predict(model, C, model.kernel.component_prior_variance(vertex_id))


@dataclass(frozen=True)
class ComponentStack:
    """What the component posteriors of equal-dimension vertices read, padded
    to one shape.

    Built by :func:`component_stack`.  For the k-th vertex stacked:
    ``values[:, k]`` holds the vertex's values on R_v, the training rows whose
    path contains it, one row per dimension; ``alpha[k]`` is α on R_v and
    ``R[k]`` the upper triangular factor with R^T R = K_y^{-1} on R_v × R_v;
    ``lengthscales[k]`` and ``scales[k]`` are its hyperparameters.  Shorter
    row sets are padded to the longest with zero values, weights and factor
    columns, so a padded row adds nothing to any sum.
    """

    kind: str
    values: np.ndarray  # (dim, k, m)
    alpha: np.ndarray  # (k, m)
    R: np.ndarray  # (k, m, m)
    lengthscales: np.ndarray  # (k, dim)
    scales: np.ndarray  # (k,)

    @functools.cached_property
    def _views(self) -> tuple[np.ndarray, ...]:
        """The views of the arrays that :func:`stacked_component_posterior`
        broadcasts against, made once per stack."""
        return (
            self.values[:, :, None, :], self.lengthscales.T[:, :, None, None],
            self.lengthscales[:, None, :], self.scales[:, None, None], self.scales[:, None],
            self.alpha[:, None, :], self.R.transpose(0, 2, 1),
        )


def component_stack(model: GpModel, vertex_ids) -> ComponentStack:
    """The :class:`ComponentStack` of a fitted model's vertices, in the
    given order; they must all have the same dimension, at least 1."""
    kernel = model.kernel
    dims = {kernel.spec.vertex(vid).dim for vid in vertex_ids}
    if len(dims) != 1 or 0 in dims:
        raise ValueError(f"stacked vertices need one dimension >= 1, got {sorted(dims)}")
    (dim,) = dims
    blocks = [kernel._block(vid, model.data.X) for vid in vertex_ids]
    n, k, m = model.n, len(vertex_ids), max(rows.size for rows, _ in blocks)
    L_inv = _forward_solve(model.L, np.eye(n)) if n else model.L  # dtrtrs rejects 0 x 0
    values, alpha, W = np.zeros((dim, k, m)), np.zeros((k, m)), np.zeros((k, n, m))
    for i, (rows, V) in enumerate(blocks):
        r = rows.size
        values[:, i, :r] = V.T
        alpha[i, :r] = model.alpha[rows]
        W[i, :, :r] = L_inv[:, rows]
    # (k, m, m) as m <= n; Householder QR keeps W's zero padding zero in R
    R = np.linalg.qr(W, mode="r")
    theta = np.asarray(kernel.theta)
    layout = [kernel._layout[vid] for vid in vertex_ids]
    return ComponentStack(
        kind=kernel.kind,
        values=values,
        alpha=alpha,
        R=R,
        lengthscales=np.array([theta[ls] for ls, _ in layout]),
        scales=theta[[scale for _, scale in layout]],
    )


def stacked_component_posterior(
    stack: ComponentStack, V: np.ndarray, grad: bool = True
) -> tuple[np.ndarray, ...]:
    """Component posteriors of every stacked vertex at its own query rows.

    ``V`` is (k, q, dim): q query rows for each of the stack's k vertices.
    Returns the (k, q) means and clamped variances, which equal
    :func:`component_posterior_batch` vertex by vertex up to round-off, and,
    unless ``grad`` is False, their (k, q, dim) derivatives with respect to
    the query values (0 where the variance was clamped); the means and
    variances are the same bits either way.  A query is compared with R_v
    alone, so a vertex costs |R_v| and not n.  Pure: unlike
    :func:`component_posterior_batch` it counts no clamps on the model.
    """
    values, ls_dk, ls, scales, scales_k, alpha, RT = stack._views
    # (dim, k, q, m) scaled differences: the dimension axis first keeps the
    # long row axis contiguous
    Z = (V.transpose(2, 0, 1)[..., None] - values) / ls_dk
    r2 = einsum("dkqi,dkqi->kqi", Z, Z)
    corr, w = _corr_and_weight(stack.kind, r2)
    C = scales * corr  # (k, q, m)
    means = einsum("kqi,ki->kq", C, stack.alpha)
    RC = C @ RT  # row (k, q) is R c
    variances = scales_k - einsum("kqi,kqi->kq", RC, RC)
    neg = variances < 0
    variances = np.where(neg, 0.0, variances)
    if not grad:
        return means, variances
    # dc/dV_d = -w * (V_d - x_d) / ls_d^2 = -w * Z_d / ls_d; for "se" the
    # weight is the correlation, so s * w is C
    w = C if w is corr else scales * w
    dmeans = -einsum("kqi,dkqi->kqd", w * alpha, Z) / ls
    KC = RC @ stack.R  # row (k, q) is K_y^{-1} c restricted to R_v
    dvariances = 2.0 * einsum("kqi,dkqi->kqd", w * KC, Z) / ls
    np.copyto(dvariances, 0.0, where=neg[..., None])
    return means, variances, dmeans, dvariances


def _evidence_and_grad(
    kernel: AddTreeKernel,
    blocks: VertexBlocks,
    log_params: np.ndarray,
    y: np.ndarray,
    noise: float,
) -> tuple[float, np.ndarray] | None:
    """Log marginal likelihood and gradient w.r.t. log kernel params, or
    None where K_y is not positive definite.

    The kernel hyperparameters are exp(``log_params``); ``kernel`` supplies
    only the structure.  Every derivative is non-zero only on packed block
    entries and their mirror images, so ½ tr((αα^T − K^{-1}) ∂K/∂θ) is a sum
    over the packed entries.  Every array of size n² or E written is one of
    the blocks' buffers: K_y is factored and then inverted in the Gram
    matrix's own, and αα^T − K_y^{-1} is formed in ``blocks.inner`` and
    gathered into ``blocks.r2``.
    """
    n = y.size
    K, dK = kernel.gram_and_grads(blocks, log_params)
    diagonal = K.ravel(order="F")[:: n + 1]
    diagonal += noise
    L, info = _cholesky(K, overwrite=True)  # K is Fortran-ordered: in place
    if info:
        return None
    alpha, _ = lapack.dpotrs(L, y, lower=1)
    # the diagonal view now reads L's diagonal
    lml = -0.5 * float(y @ alpha) - float(np.log(diagonal).sum()) - 0.5 * n * LOG2PI
    _, info = lapack.dpotri(L, lower=1, overwrite_c=1)  # K_y^{-1}'s lower triangle
    if info:
        return None
    # ½ (αα^T − K_y^{-1}) on the packed entries, all at i >= j: the lower
    # triangle counts for both halves of the symmetric sum, the diagonal once
    half_inner = blocks.inner
    # symmetric, so written row by row through the C-ordered transpose
    np.multiply(alpha[:, None], alpha, out=half_inner.T)
    half_inner -= L
    packed = half_inner.ravel(order="F")
    packed[:: n + 1] *= 0.5
    # each block's sums of its products with dK, then onto the parameters
    dK *= packed.take(blocks.flat, out=blocks.r2, mode="clip")
    sums = np.add.reduceat(dK, blocks.starts, axis=1, out=blocks.sums)
    grad = np.bincount(
        blocks.param_index.ravel(), sums.ravel(), minlength=log_params.size + 1
    )
    return lml, grad[:-1]  # the last entry collects the padding


def _negative_evidence(kernel: AddTreeKernel, data: Dataset):
    """The minimization objective over log kernel params.

    Maps a vector to (-evidence, -gradient), or to ``(FAILED_EVIDENCE, 0)``
    where the Gram matrix cannot be factorized or the evidence is not
    finite.  The packed vertex blocks, with every buffer an evaluation
    writes, are built here, once, for every evaluation; an evaluation reads
    the kernel part of the vector directly and builds no kernel object.
    """
    blocks = kernel.vertex_blocks(data.X)
    y, noise = data.targets, data.noise

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        result = _evidence_and_grad(kernel, blocks, vec, y, noise)
        if result is None or not math.isfinite(result[0]):
            return FAILED_EVIDENCE, np.zeros_like(vec)
        return -result[0], -result[1]

    return objective


def _lbfgsb(objective, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Minimize ``objective`` over the box [lo, hi] from ``x0`` with L-BFGS-B.

    ``objective`` maps a vector, which it must not keep, to (value,
    float64 gradient).  This is the loop of
    ``scipy.optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
    bounds=..., options={"maxiter": FIT_MAXITER})`` around the same routine,
    ``setulb``, with the same settings and the same stopping rules, so it
    visits the same points and returns the same bits, without scipy's
    per-evaluation wrappers and copies.  Like scipy, it hands back the last
    values without evaluating again when the routine asks for the point it
    was just given (compared by its bytes).  Returns the final point, the
    objective's last value (scipy's ``fun``) and the number of evaluations
    (scipy's ``nfev``).
    """
    m = LBFGSB_CORRECTIONS
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    n = x.size
    nbd = np.full(n, 2, dtype=np.int32)  # every variable has both bounds
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    last_x = None
    evaluations = iterations = 0
    while True:
        # setulb reads g and never writes it, so the objective's own array
        # serves where scipy passes a float64 copy
        setulb(
            m, x, lo, hi, nbd, f, g, LBFGSB_FACTR, LBFGSB_PGTOL, wa, iwa, task,
            lsave, isave, dsave, LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # FG: f and g at x
            key = x.tobytes()
            if key != last_x:
                last_x = key
                f, g = objective(x)
                evaluations += 1
        elif task[0] == 1:  # NEW_X: an iteration ended
            iterations += 1
            if iterations >= FIT_MAXITER:
                task[:] = 5, 504  # STOP: iteration limit
            elif evaluations > LBFGSB_MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, f, evaluations


@dataclass
class FitResult:
    """The fitted kernel, its log evidence (that of the returned kernel, the
    best point of the search box), the best evidence each restart reached,
    and ``evaluations``: the objective evaluations summed over the
    restarts."""

    kernel: AddTreeKernel
    log_evidence: float
    restart_evidences: list[float]
    evaluations: int


def fit_hyperparameters(
    kernel: AddTreeKernel,
    data: Dataset,
    restarts: int = 10,
    rng: np.random.Generator | None = None,
    lengthscale_cap: float | None = None,
) -> FitResult:
    """Maximize the evidence over log-hyperparameters with multistarted L-BFGS-B.

    Every lengthscale lies in :data:`LENGTHSCALE_BOUNDS` and every output
    scale in :data:`SCALE_BOUNDS`; the dataset's noise variance is taken as
    given.  A ``lengthscale_cap``, which must be positive, bounds the
    search: every lengthscale's box becomes [min(0.05, cap), min(20, cap)],
    so a cap below the box fixes every lengthscale at the cap.  The first
    start is the passed kernel clipped into the box; the remaining
    ``restarts - 1`` starts are log-uniform draws in it.  The returned
    kernel is the best point found in the box, and ``log_evidence`` is its
    evidence.  Raises :class:`FactorizationError` when every restart ends
    where the Gram matrix cannot be factorized.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if lengthscale_cap is not None and not lengthscale_cap > 0:  # NaN fails too
        raise ValueError(f"lengthscale_cap must be positive, got {lengthscale_cap}")
    if len(data) == 0:
        raise ValueError("hyperparameter fitting needs at least one observation")
    _check_width(kernel, data.X, "data")
    rng = rng if rng is not None else np.random.default_rng(0)
    objective = _negative_evidence(kernel, data)
    is_scale = np.array([nm.endswith("::scale") for nm in kernel.param_names()])
    ls_lo, ls_hi = np.log(LENGTHSCALE_BOUNDS[0]), np.log(LENGTHSCALE_BOUNDS[1])
    if lengthscale_cap is not None:
        ls_hi = min(ls_hi, np.log(lengthscale_cap))
        ls_lo = min(ls_lo, ls_hi)
    lo = np.where(is_scale, np.log(SCALE_BOUNDS[0]), ls_lo)
    hi = np.where(is_scale, np.log(SCALE_BOUNDS[1]), ls_hi)

    starts = [np.clip(kernel.get_log_params(), lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_vec, best_val = None, np.inf
    evidences: list[float] = []
    evaluations = 0
    last_error: Exception | None = None
    for s in starts:
        try:
            x, value, nfev = _lbfgsb(objective, s, lo, hi)
        except Exception as exc:  # optimizer-internal failure
            last_error = exc
            continue
        evidences.append(-float(value))
        evaluations += nfev
        if value < best_val:
            best_val, best_vec = float(value), x
    if best_vec is None:
        raise last_error if last_error else RuntimeError("all restarts failed")
    if best_val >= FAILED_EVIDENCE:
        raise FactorizationError(
            f"all {len(evidences)} restarts ended on a Gram matrix that is not "
            "positive definite; duplicate points with zero noise?"
        )

    theta = np.exp(best_vec)
    if lengthscale_cap is not None:
        # the box ends at log(cap), and exp(log(cap)) can exceed cap by an ulp
        theta = np.where(is_scale, theta, np.minimum(theta, lengthscale_cap))
    logger.debug(
        "fit_hyperparameters: n=%d best evidence %.4f over %d restarts",
        len(data), -best_val, len(evidences),
    )
    return FitResult(
        kernel=replace(kernel, theta=theta),
        log_evidence=-best_val,
        restart_evidences=evidences,
        evaluations=evaluations,
    )
