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

* **Evidence on vertex blocks.**  Hyperparameter fitting computes the
  kernel's :class:`~treebo.kernels.VertexBlocks` once per fit and reorders
  targets and noise to match.  Each evaluation goes from the optimizer's log
  vector straight to the Gram matrix and the per-parameter derivative blocks
  (no kernel object is built; the fitted kernel is made once, from the
  winning vector), computes K_y^{-1} from the Cholesky factor (LAPACK
  ``dpotri``), and contracts each block of ``αα^T − K_y^{-1}`` with its
  derivative: ∂L/∂θ = ½ tr((αα^T − K_y^{-1}) ∂K/∂θ) (Rasmussen & Williams
  2006, eq. 5.9).  Evidence and gradient do not depend on the row order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack, solve_triangular
from scipy.optimize import minimize

from .kernels import AddTreeKernel, BaseKernelParams, VertexBlocks, stack_points
from .tree_space import LinearizedPoint

__all__ = [
    "Dataset",
    "GpModel",
    "FactorizationError",
    "FitResult",
    "fit",
    "posterior",
    "fit_hyperparameters",
    "apply_lengthscale_cap",
]

logger = logging.getLogger(__name__)

JITTER_START = 1e-10
JITTER_MAX = 1e-4
LOG2PI = np.log(2.0 * np.pi)
# What the fitting objective reports where the Gram cannot be factorized.
FAILED_EVIDENCE = 1e25
# fit_hyperparameters: a fitted noise variance's box and start, L-BFGS-B steps.
NOISE_BOUNDS = (1e-8, 1e2)
INITIAL_NOISE = 1e-2
FIT_MAXITER = 200


class FactorizationError(RuntimeError):
    """Gram factorization failed even after maximal jitter escalation."""


@dataclass
class Dataset:
    """Observations: linearized points, targets, per-observation noise variance."""

    points: list[LinearizedPoint]
    targets: np.ndarray
    noise: np.ndarray

    @classmethod
    def create(cls, points, targets, noise=0.0) -> "Dataset":
        targets = np.asarray(targets, dtype=float).ravel()
        n = len(points)
        noise_vec = np.broadcast_to(np.asarray(noise, dtype=float), (n,)).copy()
        if targets.size != n:
            raise ValueError(f"{n} points but {targets.size} targets")
        if np.any(noise_vec < 0):
            raise ValueError("noise variances must be >= 0")
        return cls(points=list(points), targets=targets, noise=noise_vec)

    def __len__(self) -> int:
        return len(self.points)

    def extended(self, point: LinearizedPoint, target: float, noise: float) -> "Dataset":
        return Dataset(
            points=self.points + [point],
            targets=np.append(self.targets, target),
            noise=np.append(self.noise, noise),
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

    @property
    def homoscedastic_noise(self) -> float | None:
        """Shared noise variance, or None if per-observation noise differs."""
        if self.n == 0:
            return 0.0
        first = float(self.data.noise[0])
        if np.all(self.data.noise == first):
            return first
        return None


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
    K_y = K + np.diag(data.noise) if len(data) else K
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
    m = V.shape[0]
    if model.n == 0:
        out = np.zeros(m), np.full(m, prior)
        return (*out, np.zeros(V.shape), np.zeros(V.shape)) if with_grad else out
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


def _evidence_and_grad(
    kernel: AddTreeKernel,
    blocks: VertexBlocks,
    log_params: np.ndarray,
    y: np.ndarray,
    noise: np.ndarray,
    noise_is_fitted: bool,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and gradient w.r.t. log kernel params (+ log noise).

    The kernel hyperparameters are exp(``log_params``); ``kernel`` supplies
    only the structure.  ``y`` and ``noise`` are in ``blocks.order``.  Each
    derivative is a diagonal block of dK, so its gradient entry
    ½ tr((αα^T − K^{-1}) ∂K/∂θ) is contracted on that block alone.
    """
    n = y.size
    K, grads = kernel.gram_and_grads(blocks, log_params)
    L = np.linalg.cholesky(K + np.diag(noise))  # raises LinAlgError; caller decides policy
    alpha = _solve_lower(L, y)
    lml = -0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L)))) - 0.5 * n * LOG2PI
    K_inv = _inverse_lower(L)
    inner = np.outer(alpha, alpha) - K_inv - K_inv.T
    inner[np.diag_indices(n)] += np.diag(K_inv)
    grad = np.array([
        0.5 * np.einsum("ij,ij->", inner[s, s], G)
        for s, G in zip(blocks.param_slices, grads)
    ])
    if noise_is_fitted:
        # shared log-variance parameter: dK_y/dlog s2 = s2 * I
        grad = np.append(grad, 0.5 * float(noise[0]) * float(np.trace(inner)))
    return lml, grad


def _negative_evidence(kernel: AddTreeKernel, data: Dataset, fit_noise: bool):
    """The minimization objective over log kernel params (+ log noise).

    Maps a vector to (-evidence, -gradient), or to ``(FAILED_EVIDENCE, 0)``
    where the Gram matrix cannot be factorized.  The vertex blocks and the
    reordered targets are computed here, once, for every evaluation; an
    evaluation reads the kernel part of the vector directly and builds no
    kernel object.
    """
    blocks = kernel.vertex_blocks(stack_points(data.points))
    y = data.targets[blocks.order]
    noise = data.noise[blocks.order]
    n_kernel = len(blocks.param_slices)

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        s2 = np.full(len(y), np.exp(vec[-1])) if fit_noise else noise
        try:
            lml, grad = _evidence_and_grad(
                kernel, blocks, vec[:n_kernel], y, s2, noise_is_fitted=fit_noise
            )
        except np.linalg.LinAlgError:
            return FAILED_EVIDENCE, np.zeros_like(vec)
        if not np.isfinite(lml):
            return FAILED_EVIDENCE, np.zeros_like(vec)
        return -lml, -grad

    return objective


@dataclass
class FitResult:
    kernel: AddTreeKernel
    noise_variance: float | None
    log_evidence: float
    restart_evidences: list[float]


def apply_lengthscale_cap(kernel: AddTreeKernel, cap: float) -> AddTreeKernel:
    """Cap every lengthscale at ``cap`` (the min rule of adaptive schedules)."""
    new_params = {}
    for vid, p in kernel.params.items():
        new_params[vid] = BaseKernelParams(
            kind=p.kind,
            lengthscales=tuple(min(ls, cap) for ls in p.lengthscales),
            output_scale=p.output_scale,
        )
    return replace(kernel, params=new_params)


def fit_hyperparameters(
    kernel: AddTreeKernel,
    data: Dataset,
    restarts: int = 10,
    rng: np.random.Generator | None = None,
    lengthscale_bounds: tuple[float, float] = (1e-3, 1e3),
    scale_bounds: tuple[float, float] = (1e-3, 1e3),
    fit_noise: bool = False,
    lengthscale_cap: float | None = None,
) -> FitResult:
    """Maximize the evidence over log-hyperparameters with multistarted L-BFGS-B.

    The first start is the passed kernel (clipped into bounds); the remaining
    ``restarts - 1`` starts are log-uniform draws.  When ``fit_noise`` is set
    a shared noise variance is optimized alongside and replaces the dataset's
    noise vector in the result; otherwise the dataset noise is taken as given.
    ``lengthscale_cap`` applies the min rule afterwards: fitted lengthscales
    are capped at the given value.  Raises :class:`FactorizationError` when
    every restart ends where the Gram matrix cannot be factorized.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if len(data) == 0:
        raise ValueError("hyperparameter fitting needs at least one observation")
    rng = rng if rng is not None else np.random.default_rng(0)

    names = kernel.param_names()
    n_kernel = len(names)
    is_scale = np.array([nm.endswith("::scale") for nm in names])
    lo = np.where(is_scale, np.log(scale_bounds[0]), np.log(lengthscale_bounds[0]))
    hi = np.where(is_scale, np.log(scale_bounds[1]), np.log(lengthscale_bounds[1]))
    if fit_noise:
        lo = np.append(lo, np.log(NOISE_BOUNDS[0]))
        hi = np.append(hi, np.log(NOISE_BOUNDS[1]))
    bounds = list(zip(lo, hi))
    objective = _negative_evidence(kernel, data, fit_noise)

    start0 = np.clip(kernel.get_log_params(), lo[:n_kernel], hi[:n_kernel])
    if fit_noise:
        start0 = np.append(start0, np.clip(np.log(INITIAL_NOISE), lo[-1], hi[-1]))
    starts = [start0]
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

    fitted = kernel.with_log_params(best_vec[:n_kernel])
    if lengthscale_cap is not None:
        fitted = apply_lengthscale_cap(fitted, lengthscale_cap)
    noise_var = float(np.exp(best_vec[-1])) if fit_noise else None
    logger.debug(
        "fit_hyperparameters: n=%d best evidence %.4f over %d restarts",
        len(data), -best_val, len(evidences),
    )
    return FitResult(
        kernel=fitted,
        noise_variance=noise_var,
        log_evidence=-best_val,
        restart_evidences=evidences,
    )
