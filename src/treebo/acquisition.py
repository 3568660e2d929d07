"""GP-UCB acquisition over tree-structured spaces.

The upper confidence bound ``mu + sqrt(beta) * sigma`` is maximized one
vertex at a time: every vertex's component posterior yields a low-dimensional
UCB surface over that vertex's own box, each is maximized independently (a
fixed Sobol scan, then L-BFGS-B from the best scan points with the
closed-form gradient of the component UCB), per-path scores are the sums of
the per-vertex maxima along the path, and the best path's argmaxes are
concatenated into the next evaluation point.
Component means add exactly along a path, so the mean part of the path score
is exact; the summed component deviations are a surrogate for the full
posterior deviation.

``beta`` follows the adaptive confidence schedule (Berkenkamp et al., JMLR
2019): ``sqrt(beta_t)`` is the inflated norm bound ``b(t) * g(t)^d * B0``
plus a mutual-information noise term.  The inflation functions grow
logarithmically, ``g(t) = 1 + gamma_g * log(1 + t)`` (lengthscale deflation)
and ``b(t) = 1 + gamma_b * log(1 + t)`` (norm-bound growth); zero rates give
the constant schedule ``g = b = 1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .gp import GpModel, component_posterior_batch
from .tree_space import LinearizedPoint, linearize

__all__ = [
    "UcbSchedule",
    "Proposal",
    "norm_bound",
    "beta",
    "mutual_information",
    "propose",
]

DEFAULT_NOISE_FLOOR = 1e-6


@dataclass(frozen=True)
class UcbSchedule:
    """Confidence-bound schedule parameters.

    ``gamma_g`` and ``gamma_b`` are the non-negative rates of the logarithmic
    inflation functions ``g`` and ``b`` (both equal 1 at t = 0 and are
    exactly 1 for a zero rate); ``d`` is the total dimension of the space
    (continuous plus categorical), the exponent on ``g(t)`` in the norm bound.
    """

    theta0: float
    B0: float
    delta: float
    gamma_g: float
    gamma_b: float
    d: int

    def __post_init__(self) -> None:
        if not (self.theta0 > 0 and math.isfinite(self.theta0)):
            raise ValueError(f"theta0 must be positive and finite, got {self.theta0}")
        if not (self.B0 >= 0 and math.isfinite(self.B0)):
            raise ValueError(f"B0 must be non-negative and finite, got {self.B0}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (self.gamma_g >= 0 and self.gamma_b >= 0):  # NaN fails too
            raise ValueError(
                f"gamma_g and gamma_b must be >= 0, got {self.gamma_g} and {self.gamma_b}"
            )

    def g(self, t: float) -> float:
        """Lengthscale deflation 1 + gamma_g * log(1 + t)."""
        return 1.0 + self.gamma_g * math.log1p(t)

    def b(self, t: float) -> float:
        """Norm-bound growth 1 + gamma_b * log(1 + t)."""
        return 1.0 + self.gamma_b * math.log1p(t)

    def lengthscale_cap(self, t: float) -> float:
        """theta_0 / g(t): the cap in the min rule for fitted lengthscales."""
        return self.theta0 / self.g(t)


def norm_bound(schedule: UcbSchedule, t: float) -> float:
    """B_t = b(t) * g(t)^d * B0."""
    return schedule.b(t) * schedule.g(t) ** schedule.d * schedule.B0


def beta(schedule: UcbSchedule, t: float, info_gain: float, noise_std: float) -> float:
    """Squared confidence multiplier at iteration t.

    sqrt(beta_t) = B_t + 4 * sigma * sqrt(info_gain + 1 + ln(1/delta)).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if info_gain < 0:
        raise ValueError(f"info_gain must be >= 0, got {info_gain}")
    root = norm_bound(schedule, t) + 4.0 * noise_std * math.sqrt(
        info_gain + 1.0 + math.log(1.0 / schedule.delta)
    )
    return root * root


def mutual_information(model: GpModel, noise_variance: float | None = None) -> float:
    """Information between the observations and the prior: half the
    log-determinant of I + K / sigma^2 over the current data.

    Requires homoscedastic positive noise; pass ``noise_variance`` to
    override the model's own (e.g. to floor a noiseless dataset).
    """
    if model.n == 0:
        return 0.0
    s2 = noise_variance if noise_variance is not None else model.homoscedastic_noise
    if s2 is None:
        raise ValueError("mutual information needs homoscedastic noise")
    if s2 <= 0:
        raise ValueError("mutual information undefined for zero noise; floor sigma^2")
    M = np.eye(model.n) + model.K / s2
    L = np.linalg.cholesky(M)
    return float(np.sum(np.log(np.diag(L))))


@dataclass(frozen=True)
class Proposal:
    """Outcome of one acquisition round.

    ``vertex_points``/``vertex_ucb`` hold every vertex's argmax and score;
    ``path_ucb[i]`` sums the scores along leaf i's path; ``values`` is the
    path-ordered continuous vector of the winning leaf and ``point`` its
    linearization.
    """

    vertex_points: dict
    vertex_ucb: dict
    path_ucb: np.ndarray
    chosen_leaf: int
    values: np.ndarray
    point: LinearizedPoint
    beta: float


@functools.lru_cache(maxsize=64)
def _unit_sobol(dim: int, budget: int) -> np.ndarray:
    """The first ``budget`` unscrambled Sobol points in [0, 1)^dim, read-only."""
    m = max(1, math.ceil(math.log2(max(2, budget))))
    pts = qmc.Sobol(d=dim, scramble=False).random_base2(m)[:budget]
    pts.flags.writeable = False
    return pts


def _maximize_vertex_ucb(
    model: GpModel,
    vertex_id: str,
    sqrt_beta: float,
    n_starts: int,
    scan_budget: int,
) -> tuple[np.ndarray, float]:
    """Maximize the component UCB over one vertex's box.

    Deterministic: a fixed low-discrepancy scan picks the best ``n_starts``
    seeds for bounded L-BFGS-B polishing.  The polish uses the closed-form
    gradient d UCB = d mu + sqrt(beta) * d sigma^2 / (2 sigma), taking the
    sigma part as 0 where sigma is 0.
    """
    vertex = model.kernel.spec.vertex(vertex_id)
    if vertex.dim == 0:
        means, variances = component_posterior_batch(model, vertex_id, np.zeros((1, 0)))
        return np.empty(0), float(means[0] + sqrt_beta * math.sqrt(variances[0]))

    lo = np.array([b[0] for b in vertex.bounds])
    hi = np.array([b[1] for b in vertex.bounds])

    scan = lo + _unit_sobol(vertex.dim, scan_budget) * (hi - lo)
    means, variances = component_posterior_batch(model, vertex_id, scan)
    scores = means + sqrt_beta * np.sqrt(variances)
    order = np.argsort(-scores)[:n_starts]

    def neg_score_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        mean, var, dmean, dvar = component_posterior_batch(
            model, vertex_id, x[None, :], with_grad=True
        )
        sigma = math.sqrt(var[0])
        grad = dmean[0] + (sqrt_beta / (2.0 * sigma)) * dvar[0] if sigma > 0 else dmean[0]
        return -float(mean[0] + sqrt_beta * sigma), -grad

    best_x = scan[order[0]]
    best = float(scores[order[0]])
    for idx in order:
        res = minimize(
            neg_score_and_grad,
            scan[idx],
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 60},
        )
        if -res.fun > best:
            best = -float(res.fun)
            best_x = np.clip(res.x, lo, hi)
    return best_x, best


def propose(
    model: GpModel,
    schedule: UcbSchedule,
    t: int,
    n_starts: int = 5,
    scan_budget: int = 32,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> Proposal:
    """Run one round of per-vertex UCB maximization and pick the best path.

    Vertices are maximized independently, one after another in BFS order;
    the result is deterministic.  Ties between equal path scores resolve to
    the lowest path index.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if scan_budget < 1 or n_starts < 1:
        raise ValueError("optimizer budget must allow at least one evaluation")
    index = model.kernel.index

    s2 = model.homoscedastic_noise
    s2 = noise_floor if s2 is None or s2 < noise_floor else s2
    info = mutual_information(model, noise_variance=s2)
    beta_value = beta(schedule, t, info, math.sqrt(s2))
    sqrt_beta = math.sqrt(beta_value)

    order = list(index.bfs_order)
    results = [
        _maximize_vertex_ucb(model, vid, sqrt_beta, n_starts, scan_budget)
        for vid in order
    ]
    vertex_points = {vid: res[0] for vid, res in zip(order, results)}
    vertex_ucb = {vid: res[1] for vid, res in zip(order, results)}

    path_ucb = np.array(
        [sum(vertex_ucb[vid] for vid in path) for path in index.leaf_paths]
    )
    chosen = int(np.argmax(path_ucb))  # first max: lowest path index wins ties
    values = np.concatenate(
        [vertex_points[vid] for vid in index.leaf_paths[chosen]]
        or [np.empty(0)]
    )
    point = linearize(model.kernel.spec, index, chosen, values)
    return Proposal(
        vertex_points=vertex_points,
        vertex_ucb=vertex_ucb,
        path_ucb=path_ucb,
        chosen_leaf=chosen,
        values=values,
        point=point,
        beta=beta_value,
    )
