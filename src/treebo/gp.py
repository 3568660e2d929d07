"""Exact GP regression with the additive tree kernel.

Inference follows the standard zero-mean GP equations on the linearized
points.  Two structural shortcuts come from the tree:

* **No row selection is needed.**  For a query, only training rows whose
  paths share a kernel-contributing vertex with the query path can have
  nonzero cross-covariance.  A row that shares none with the query path also
  shares none with any row that does (shared vertices form a root prefix, and
  of three leaves' lowest common ancestors the two shallowest coincide), so
  the Gram matrix is block-diagonal up to a row permutation and its Cholesky
  factor has no fill-in across blocks.  The posterior from the one full
  factorization therefore equals the posterior on the relevant rows alone.

* **Component posteriors.**  The kernel is a sum of per-vertex terms, so each
  vertex has its own latent component.  Its conditional mean/variance given
  all observations uses the cross-covariance c restricted to that vertex's
  term, masked by path membership: μ = c^T α and σ² = s_v − c^T K_y^{-1} c,
  with K_y^{-1} computed once per :func:`fit` from the Cholesky factor (LAPACK
  ``dpotri``) and kept on the model.  With J = ∂c/∂v from
  :meth:`~treebo.kernels.AddTreeKernel.component_cross`, the gradients in the
  query values are ∂μ = J^T α and ∂σ² = −2 J^T K_y^{-1} c.  Component means
  along a query's path sum exactly to the full posterior mean; variances do
  not add (components are correlated under the posterior).

* **Component posteriors on R_v.**  A vertex's cross-covariance is zero off
  R_v, the rows whose path contains the vertex, so its component posterior
  needs only α_{R_v} and (K_y^{-1})_{R_v R_v}.  :func:`component_stack`
  gathers them once per fitted model for several vertices of one dimension,
  padded to the longest R_v, and :func:`stacked_component_posterior`
  evaluates means, variances and query gradients for all of them and many
  query rows each in one batch.  It counts no clamps, so it leaves the model
  untouched.

* **Evidence on vertex blocks.**  Hyperparameter fitting computes the
  kernel's :class:`~treebo.kernels.VertexBlocks` once per fit and reorders
  the targets to match.  Each evaluation goes from the optimizer's log
  vector straight to the Gram matrix and the per-parameter derivative blocks
  (no kernel object is built; the fitted kernel is made once, from the
  winning vector), computes K_y^{-1} from the Cholesky factor (LAPACK
  ``dpotri``), and contracts each block of ``αα^T − K_y^{-1}`` with its
  derivative: ∂L/∂θ = ½ tr((αα^T − K_y^{-1}) ∂K/∂θ) (Rasmussen & Williams
  2006, eq. 5.9).  Evidence and gradient do not depend on the row order.

The observation noise is one known variance shared by every observation
(:attr:`Dataset.noise`); the evidence is maximized over the kernel
hyperparameters only, conditioned on it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize

from .kernels import (
    AddTreeKernel,
    VertexBlocks,
    _corr_from_r2,
    _lengthscale_grad_weight,
    stack_points,
)
from .tree_space import LinearizedPoint

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


class FactorizationError(RuntimeError):
    """Gram factorization failed even after maximal jitter escalation."""


@dataclass
class Dataset:
    """Observations: linearized points, their targets, and the one noise
    variance of every observation.  :meth:`create` validates."""

    points: list[LinearizedPoint]
    targets: np.ndarray
    noise: float

    @classmethod
    def create(cls, points, targets, noise: float = 0.0) -> "Dataset":
        targets = np.asarray(targets, dtype=float).ravel()
        n = len(points)
        if targets.size != n:
            raise ValueError(f"{n} points but {targets.size} targets")
        bad = np.flatnonzero(~np.isfinite(targets))
        if bad.size:
            raise ValueError(f"target {bad[0]} is not finite: {targets[bad[0]]}")
        noise = float(noise)
        if not (noise >= 0 and np.isfinite(noise)):
            raise ValueError(f"noise variance must be non-negative and finite, got {noise}")
        return cls(points=list(points), targets=targets, noise=noise)

    def __len__(self) -> int:
        return len(self.points)

    def extended(self, point: LinearizedPoint, target: float) -> "Dataset":
        return replace(
            self, points=self.points + [point], targets=np.append(self.targets, target)
        )


def _cholesky_with_jitter(K_y: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter.

    Jitter starts at JITTER_START times the mean diagonal and escalates by
    decades up to JITTER_MAX times the mean diagonal before giving up.
    """
    n = K_y.shape[0]
    if n == 0:
        return np.empty((0, 0)), 0.0
    try:
        return np.linalg.cholesky(K_y), 0.0
    except np.linalg.LinAlgError:
        pass
    mean_diag = float(np.mean(np.diag(K_y)))
    base = mean_diag if mean_diag > 0 else 1.0
    jitter = JITTER_START * base
    while jitter <= JITTER_MAX * base:
        try:
            L = np.linalg.cholesky(K_y + jitter * np.eye(n))
            logger.debug("cholesky needed jitter %.3e", jitter)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise FactorizationError(
        "Gram matrix not positive definite after jitter escalation; "
        "degenerate hyperparameters or duplicate points with zero noise"
    )


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L^T)^{-1} from a lower Cholesky factor (LAPACK
    ``dpotri``); the strict upper triangle is L's, i.e. zero.  Raises
    :class:`numpy.linalg.LinAlgError` when ``dpotri`` reports failure."""
    K_inv, info = lapack.dpotri(L, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotri failed with info={info}")
    return K_inv


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
    """A fitted GP: kernel, data, Gram matrix and its Cholesky factor.

    ``alpha`` is K_y^{-1} y and ``K_inv`` the full symmetric K_y^{-1}, both
    from the (possibly jittered) factor ``chol``; component posteriors and
    their gradients read them.  Treat instances as immutable after
    :func:`fit`, apart from ``clamp_count``: posterior queries increment it
    each time a numerically negative predictive variance is clamped to zero.
    """

    kernel: AddTreeKernel
    data: Dataset
    X: np.ndarray
    K: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    K_inv: np.ndarray
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
    X = stack_points(data.points)
    if len(data) == 0:
        X = np.empty((0, kernel.index.width))
    K = kernel.gram_matrix(X) if len(data) else np.empty((0, 0))
    K_y = K + data.noise * np.eye(len(data))
    L, jitter = _cholesky_with_jitter(K_y)
    alpha = _solve_lower(L, data.targets) if len(data) else np.empty(0)
    K_inv = _inverse_lower(L) if len(data) else np.empty((0, 0))
    K_inv += np.tril(K_inv, -1).T  # mirror the lower triangle
    model = GpModel(
        kernel=kernel,
        data=data,
        X=X,
        K=K,
        chol=L,
        alpha=alpha,
        K_inv=K_inv,
        jitter=jitter,
    )
    if jitter:
        logger.debug("fit: n=%d jitter=%.3e", len(data), jitter)
    return model


def posterior(model: GpModel, query: LinearizedPoint) -> tuple[float, float]:
    """Predictive mean and variance at a query point.

    Computed on the full factorization (exact, see the module docstring);
    the variance is clamped to ``[0, k(x, x)]``.
    """
    q = query.slots[None, :]
    k_diag = float(model.kernel.diag(q)[0])
    if model.n == 0:
        return 0.0, k_diag
    k_star = model.kernel.gram_matrix(q, model.X)[0]
    mean = float(k_star @ model.alpha)
    v = solve_triangular(model.chol, k_star, lower=True)
    var = k_diag - float(v @ v)
    if var < 0:
        model.clamp_count += 1
        var = 0.0
    return mean, min(var, k_diag)


def component_posterior_batch(
    model: GpModel, vertex_id: str, V: np.ndarray, with_grad: bool = False
) -> tuple[np.ndarray, ...]:
    """Vectorized per-vertex component posterior over query value rows.

    ``V`` is (m, dim) for the vertex (use shape (m, 0) when dim is 0).
    Returns per-row means and clamped variances of the vertex's additive
    latent component given all observations.  With ``with_grad`` also
    returns their (m, dim) derivatives with respect to the query values;
    the variance derivative is 0 where the variance was clamped.
    """
    prior = model.kernel.component_prior_variance(vertex_id)
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V.reshape(1, -1)
    if with_grad:
        C, J = model.kernel.component_cross(vertex_id, V, model.X, with_grad=True)
    else:
        C = model.kernel.component_cross(vertex_id, V, model.X)  # (m, n)
    means = C @ model.alpha
    KC = C @ model.K_inv  # row q is K_y^{-1} c_q
    variances = prior - np.einsum("ij,ij->i", KC, C)
    neg = variances < 0
    if np.any(neg):
        model.clamp_count += int(neg.sum())
        variances = np.where(neg, 0.0, variances)
    if not with_grad:
        return means, variances
    dmeans = (J @ model.alpha).T
    dvariances = -2.0 * np.einsum("dqi,qi->qd", J, KC)
    dvariances[neg] = 0.0
    return means, variances, dmeans, dvariances


@dataclass(frozen=True)
class ComponentStack:
    """What the component posteriors of equal-dimension vertices read, padded
    to one shape.

    Built by :func:`component_stack`.  For the k-th vertex stacked:
    ``values[:, k]`` holds the vertex's values on R_v, the training rows whose
    path contains it, one row per dimension; ``alpha[k]`` is α restricted to
    R_v and ``K_inv[k]`` is K_y^{-1} restricted to R_v × R_v;
    ``lengthscales[k]`` and ``scales[k]`` are the vertex's hyperparameters.
    Shorter row sets are padded to the longest with zero values, weights and
    inverse entries, so a padded row adds nothing to any sum.
    """

    kind: str
    values: np.ndarray  # (dim, k, m)
    alpha: np.ndarray  # (k, m)
    K_inv: np.ndarray  # (k, m, m)
    lengthscales: np.ndarray  # (k, dim)
    scales: np.ndarray  # (k,)


def component_stack(model: GpModel, vertex_ids) -> ComponentStack:
    """The :class:`ComponentStack` of a fitted model's vertices, in the
    given order; they must all have the same dimension, at least 1."""
    kernel = model.kernel
    dims = {kernel.spec.vertex(vid).dim for vid in vertex_ids}
    if len(dims) != 1 or 0 in dims:
        raise ValueError(f"stacked vertices need one dimension >= 1, got {sorted(dims)}")
    (dim,) = dims
    blocks = [kernel._block(vid, model.X) for vid in vertex_ids]
    k, m = len(vertex_ids), max(rows.size for rows, _ in blocks)
    values, alpha, K_inv = np.zeros((dim, k, m)), np.zeros((k, m)), np.zeros((k, m, m))
    for i, (rows, V) in enumerate(blocks):
        r = rows.size
        values[:, i, :r] = V.T
        alpha[i, :r] = model.alpha[rows]
        K_inv[i, :r, :r] = model.K_inv[np.ix_(rows, rows)]
    theta = np.asarray(kernel.theta)
    layout = [kernel._layout[vid] for vid in vertex_ids]
    return ComponentStack(
        kind=kernel.kind,
        values=values,
        alpha=alpha,
        K_inv=K_inv,
        lengthscales=np.array([theta[ls] for ls, _ in layout]),
        scales=theta[[scale for _, scale in layout]],
    )


def stacked_component_posterior(
    stack: ComponentStack, V: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Component posteriors of every stacked vertex at its own query rows.

    ``V`` is (k, q, dim): q query rows for each of the stack's k vertices.
    Returns the (k, q) means and clamped variances and their (k, q, dim)
    derivatives with respect to the query values, which equal
    :func:`component_posterior_batch` with ``with_grad`` vertex by vertex up
    to round-off.  A query is compared with R_v alone, so a vertex costs
    |R_v| and not n.  Pure: unlike :func:`component_posterior_batch` it
    counts no clamps on the model.
    """
    ls = stack.lengthscales[:, None, :]
    # (dim, k, q, m) scaled differences: the dimension axis first keeps the
    # long row axis contiguous
    Z = (np.moveaxis(V, -1, 0)[..., None] - stack.values[:, :, None, :]) / (
        stack.lengthscales.T[:, :, None, None]
    )
    r2 = np.einsum("dkqi,dkqi->kqi", Z, Z)
    corr = _corr_from_r2(stack.kind, r2)
    scales = stack.scales[:, None, None]
    C = scales * corr  # (k, q, m)
    means = np.einsum("kqi,ki->kq", C, stack.alpha)
    KC = C @ stack.K_inv  # row (k, q) is K_y^{-1} c restricted to R_v
    variances = stack.scales[:, None] - np.einsum("kqi,kqi->kq", KC, C)
    neg = variances < 0
    variances = np.where(neg, 0.0, variances)
    # dc/dV_d = -w * (V_d - x_d) / ls_d^2 = -w * Z_d / ls_d
    w = scales * _lengthscale_grad_weight(stack.kind, r2, corr)
    dmeans = -np.einsum("kqi,dkqi->kqd", w * stack.alpha[:, None, :], Z) / ls
    dvariances = 2.0 * np.einsum("kqi,dkqi->kqd", w * KC, Z) / ls
    dvariances[neg] = 0.0
    return means, variances, dmeans, dvariances


def _evidence_and_grad(
    kernel: AddTreeKernel,
    blocks: VertexBlocks,
    log_params: np.ndarray,
    y: np.ndarray,
    noise: float,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and gradient w.r.t. log kernel params.

    The kernel hyperparameters are exp(``log_params``); ``kernel`` supplies
    only the structure.  ``y`` is in ``blocks.order``.  Each
    derivative is a diagonal block of dK, so its gradient entry
    ½ tr((αα^T − K^{-1}) ∂K/∂θ) is contracted on that block alone.
    """
    n = y.size
    K, grads = kernel.gram_and_grads(blocks, log_params)
    L = np.linalg.cholesky(K + noise * np.eye(n))  # raises LinAlgError; caller decides policy
    alpha = _solve_lower(L, y)
    lml = -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L)))) - 0.5 * n * LOG2PI
    K_inv = _inverse_lower(L)
    inner = np.outer(alpha, alpha) - K_inv - K_inv.T
    inner[np.diag_indices(n)] += np.diag(K_inv)
    grad = np.array([
        0.5 * np.einsum("ij,ij->", inner[s, s], G)
        for s, G in zip(blocks.param_slices, grads)
    ])
    return lml, grad


def _negative_evidence(kernel: AddTreeKernel, data: Dataset):
    """The minimization objective over log kernel params.

    Maps a vector to (-evidence, -gradient), or to ``(FAILED_EVIDENCE, 0)``
    where the Gram matrix cannot be factorized.  The vertex blocks and the
    reordered targets are computed here, once, for every evaluation; an
    evaluation reads the kernel part of the vector directly and builds no
    kernel object.
    """
    blocks = kernel.vertex_blocks(stack_points(data.points))
    y = data.targets[blocks.order]

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            lml, grad = _evidence_and_grad(kernel, blocks, vec, y, data.noise)
        except np.linalg.LinAlgError:
            return FAILED_EVIDENCE, np.zeros_like(vec)
        if not np.isfinite(lml):
            return FAILED_EVIDENCE, np.zeros_like(vec)
        return -lml, -grad

    return objective


@dataclass
class FitResult:
    kernel: AddTreeKernel
    log_evidence: float
    restart_evidences: list[float]


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
    given.  The first start is the passed kernel (clipped into the bounds);
    the remaining ``restarts - 1`` starts are log-uniform draws.
    ``lengthscale_cap`` applies the min rule afterwards: every fitted
    lengthscale becomes min(lengthscale, cap), so a capped one is exactly
    the cap.  A kernel with no free hyperparameters (every vertex dim-0
    under ``zero_dim="zero"``) is returned as it is, with its evidence as
    the one restart evidence.  Raises :class:`FactorizationError` when
    every restart ends where the Gram matrix cannot be factorized.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if len(data) == 0:
        raise ValueError("hyperparameter fitting needs at least one observation")
    rng = rng if rng is not None else np.random.default_rng(0)
    objective = _negative_evidence(kernel, data)
    if not kernel.theta:  # nothing to fit: minimize cannot take an empty vector
        value, _ = objective(np.empty(0))
        if value >= FAILED_EVIDENCE:
            raise FactorizationError(
                "the Gram matrix is not positive definite and the kernel has no "
                "hyperparameters to change; duplicate points with zero noise?"
            )
        return FitResult(kernel=kernel, log_evidence=-value, restart_evidences=[-value])

    is_scale = np.array([nm.endswith("::scale") for nm in kernel.param_names()])
    lo = np.where(is_scale, np.log(SCALE_BOUNDS[0]), np.log(LENGTHSCALE_BOUNDS[0]))
    hi = np.where(is_scale, np.log(SCALE_BOUNDS[1]), np.log(LENGTHSCALE_BOUNDS[1]))
    bounds = list(zip(lo, hi))

    starts = [np.clip(kernel.get_log_params(), lo, hi)]
    for _ in range(restarts - 1):
        starts.append(rng.uniform(lo, hi))

    best_vec, best_val = None, np.inf
    evidences: list[float] = []
    last_error: Exception | None = None
    for s in starts:
        try:
            res = minimize(
                objective, s, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": FIT_MAXITER},
            )
        except Exception as exc:  # optimizer-internal failure
            last_error = exc
            continue
        evidences.append(-float(res.fun))
        if res.fun < best_val:
            best_val, best_vec = float(res.fun), res.x
    if best_vec is None:
        raise last_error if last_error else RuntimeError("all restarts failed")
    if best_val >= FAILED_EVIDENCE:
        raise FactorizationError(
            f"all {len(evidences)} restarts ended on a Gram matrix that is not "
            "positive definite; duplicate points with zero noise?"
        )

    theta = np.exp(best_vec)
    if lengthscale_cap is not None:
        theta = np.where(is_scale, theta, np.minimum(theta, lengthscale_cap))
    logger.debug(
        "fit_hyperparameters: n=%d best evidence %.4f over %d restarts",
        len(data), -best_val, len(evidences),
    )
    return FitResult(
        kernel=replace(kernel, theta=theta),
        log_evidence=-best_val,
        restart_evidences=evidences,
    )
