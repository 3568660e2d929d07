"""GP-UCB acquisition over tree-structured spaces.

The upper confidence bound ``mu + sqrt(beta) * sigma`` is maximized one
vertex at a time: every vertex's component posterior yields a low-dimensional
UCB surface over that vertex's own box, each is maximized independently, per-path
scores are the sums of the per-vertex maxima along the path, and the best
path's argmaxes are concatenated into the next evaluation point.
Component means add exactly along a path, so the mean part of the path score
is exact; the summed component deviations are a surrogate for the full
posterior deviation.

The vertices are maximized together, one batch per dimension: a fixed Sobol
scan of every vertex's box picks its best starts, and one projected gradient
ascent (:func:`_ascend`) climbs from all starts of all the batch's vertices
at once, on :func:`~treebo.gp.stacked_component_posterior` with the
closed-form gradient of the component UCB.  Each argmax is then scored once
more by :func:`~treebo.gp.component_posterior_batch`, so every reported
score comes from the reference posterior.  A dim-0 vertex has nothing to
maximize; its score is that same closed form.

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
from scipy.stats import qmc

from .gp import (
    ComponentStack,
    GpModel,
    component_posterior_batch,
    component_stack,
    stacked_component_posterior,
)

__all__ = [
    "UcbSchedule",
    "Proposal",
    "norm_bound",
    "beta",
    "mutual_information",
    "propose",
]

DEFAULT_NOISE_FLOOR = 1e-6
# The per-vertex ascent (:func:`_ascend`): the projected-gradient and
# predicted-gain tolerances relative to max(1, |score|), the Armijo constant,
# how many recent scores the non-monotone line search keeps, and the bounds
# of the Barzilai-Borwein multiple.
PG_TOL = 1e-6
GAIN_TOL = 1e-12
ARMIJO = 1e-4
MEMORY = 10
STEP_MIN, STEP_MAX = 1e-10, 1e10


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


def mutual_information(model: GpModel, noise_variance: float) -> float:
    """Information between the observations and the prior: half the
    log-determinant of I + K / sigma^2 over the current data, with sigma^2
    the positive ``noise_variance`` (:func:`propose` passes the model's
    noise floored at its ``noise_floor``).
    """
    if model.n == 0:
        return 0.0
    if noise_variance <= 0:
        raise ValueError("mutual information undefined for zero noise; floor sigma^2")
    M = np.eye(model.n) + model.K / noise_variance
    L = np.linalg.cholesky(M)
    return float(np.sum(np.log(np.diag(L))))


@dataclass(frozen=True)
class Proposal:
    """Outcome of one acquisition round.

    ``vertex_points``/``vertex_ucb`` hold every vertex's argmax and score;
    ``path_ucb[i]`` sums the scores along leaf i's path; ``values`` is the
    path-ordered continuous vector of the winning leaf.
    """

    vertex_points: dict
    vertex_ucb: dict
    path_ucb: np.ndarray
    chosen_leaf: int
    values: np.ndarray
    beta: float


@functools.lru_cache(maxsize=64)
def _unit_sobol(dim: int, budget: int) -> np.ndarray:
    """The first ``budget`` unscrambled Sobol points in [0, 1)^dim, read-only."""
    m = max(1, math.ceil(math.log2(max(2, budget))))
    pts = qmc.Sobol(d=dim, scramble=False).random_base2(m)[:budget]
    pts.flags.writeable = False
    return pts


def _ucb_and_grad(
    stack: ComponentStack, lo: np.ndarray, Z: np.ndarray, sqrt_beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Component UCB of the stacked vertices at points ``Z`` (k, q, dim) in
    lengthscale units from the box corner ``lo`` (x = lo + Z * lengthscales)
    and its gradient in those units, taking the sigma part of the gradient
    as 0 where sigma is 0."""
    ls = stack.lengthscales[:, None, :]
    means, variances, dmeans, dvariances = stacked_component_posterior(
        stack, lo[:, None, :] + Z * ls
    )
    sigma = np.sqrt(variances)
    # d sigma = d sigma^2 / (2 sigma)
    half_inv = np.divide(0.5, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    grad = (dmeans + sqrt_beta * half_inv[..., None] * dvariances) * ls
    return means + sqrt_beta * sigma, grad


def _ascend(
    stack: ComponentStack, lo: np.ndarray, upper: np.ndarray, Z: np.ndarray, sqrt_beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the UCB from every start row of ``Z`` (k, q, dim) at once by
    projected gradient ascent on the boxes [0, ``upper``] (k, dim) of
    :func:`_ucb_and_grad`'s coordinates; returns each row's best point and
    score.

    This is the spectral projected gradient method (Birgin, Martinez and
    Raydan 2000): each step goes from z towards the projection of z plus a
    Barzilai-Borwein multiple of the gradient, and shrinks until the
    non-monotone Armijo condition holds against the lowest of the row's
    last ``MEMORY`` scores.  Measuring in lengthscales makes every vertex's
    kernel isotropic, so a short lengthscale does not make a narrow ridge.
    A row stops once its projected gradient ``clip(z + g) - z`` is below
    ``PG_TOL * max(1, |score|)`` in every coordinate, or once a shrunk step
    no longer promises a gain above round-off of the score.  Every row is
    evaluated on every pass and the finished ones are left where they are.
    """
    f, g = _ucb_and_grad(stack, lo, Z, sqrt_beta)

    def projected(Z, g, step):
        return np.clip(Z + step[..., None] * g, 0.0, upper[:, None, :]) - Z

    def pg_norm(Z, g):
        return np.abs(projected(Z, g, np.ones(Z.shape[:-1]))).max(axis=-1, initial=0.0)

    def converged(Z, f, g):
        return pg_norm(Z, g) <= PG_TOL * np.maximum(1.0, np.abs(f))

    active = ~converged(Z, f, g)
    # first step: the projected gradient scaled to unit length in max-norm
    pg = pg_norm(Z, g)
    direction = projected(Z, g, np.divide(1.0, pg, out=np.ones_like(pg), where=pg > 0))
    t = np.ones_like(f)
    recent = np.repeat(f[None], MEMORY, axis=0)
    best_Z, best_f = Z, f
    while True:
        trial = Z + t[..., None] * direction
        active &= np.any(trial != Z, axis=-1)
        if not active.any():
            return best_Z, best_f
        f_trial, g_trial = _ucb_and_grad(stack, lo, trial, sqrt_beta)
        slope = np.einsum("kqd,kqd->kq", g, direction)
        floor = recent.min(axis=0)
        # strictly above the floor, so the floor rises within MEMORY accepted steps
        accept = active & (f_trial > floor) & (f_trial >= floor + ARMIJO * t * slope)
        s, y = trial - Z, g_trial - g
        curvature = -np.einsum("kqd,kqd->kq", s, y)  # > 0 where the UCB is concave along s
        bb = np.divide(
            np.einsum("kqd,kqd->kq", s, s), curvature,
            out=np.full_like(f, STEP_MAX), where=curvature > 0,
        )
        # a rejected step shrinks to the maximum of the quadratic through
        # the floor, the slope and f_trial, kept within [0.1 t, 0.5 t]
        shortfall = floor + slope * t - f_trial
        shrunk = np.divide(slope * t * t, 2.0 * shortfall, out=0.5 * t, where=shortfall > 0)
        Z = np.where(accept[..., None], trial, Z)
        f = np.where(accept, f_trial, f)
        g = np.where(accept[..., None], g_trial, g)
        recent = np.where(accept, np.concatenate([f[None], recent[:-1]]), recent)
        better = f > best_f
        best_Z = np.where(better[..., None], Z, best_Z)
        best_f = np.where(better, f, best_f)
        step = np.clip(bb, STEP_MIN, STEP_MAX)
        direction = np.where(accept[..., None], projected(Z, g, step), direction)
        t = np.where(accept, 1.0, np.clip(shrunk, 0.1 * t, 0.5 * t))
        active &= ~(accept & converged(Z, f, g))
        active &= accept | (slope * t > GAIN_TOL * np.maximum(1.0, np.abs(f)))


def _maximize_vertices(
    model: GpModel,
    vertex_ids: list[str],
    sqrt_beta: float,
    n_starts: int,
    scan_budget: int,
) -> np.ndarray:
    """Argmaxes of the component UCB of equal-dimension vertices, (k, dim).

    Deterministic: a fixed low-discrepancy scan of each vertex's box picks its
    best ``n_starts`` points, and one projected gradient ascent
    (:func:`_ascend`) runs from all of them; each vertex keeps its best
    result (the first on ties).
    """
    stack = component_stack(model, vertex_ids)
    bounds = np.array([model.kernel.spec.vertex(vid).bounds for vid in vertex_ids])
    lo, hi = bounds[..., 0], bounds[..., 1]
    upper = (hi - lo) / stack.lengthscales

    scan = _unit_sobol(lo.shape[1], scan_budget)[None] * upper[:, None, :]
    scores, _ = _ucb_and_grad(stack, lo, scan, sqrt_beta)
    top = np.argsort(-scores, axis=1, kind="stable")[:, :n_starts]
    Z, f = _ascend(stack, lo, upper, np.take_along_axis(scan, top[..., None], axis=1), sqrt_beta)
    z = Z[np.arange(len(vertex_ids)), np.argmax(f, axis=1)]
    return np.clip(lo + z * stack.lengthscales, lo, hi)


def propose(
    model: GpModel,
    schedule: UcbSchedule,
    t: int,
    n_starts: int = 5,
    scan_budget: int = 32,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> Proposal:
    """Run one round of per-vertex UCB maximization and pick the best path.

    Vertices are maximized independently, all vertices of one dimension in
    one batched ascent (see the module docstring); the result is
    deterministic.  Ties between equal path scores resolve to the lowest
    path index.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if scan_budget < 1 or n_starts < 1:
        raise ValueError("optimizer budget must allow at least one evaluation")
    index = model.kernel.index

    s2 = max(model.data.noise, noise_floor)
    info = mutual_information(model, s2)
    beta_value = beta(schedule, t, info, math.sqrt(s2))
    sqrt_beta = math.sqrt(beta_value)

    spec = model.kernel.spec
    by_dim: dict[int, list[str]] = {}
    for vid in index.bfs_order:
        by_dim.setdefault(spec.vertex(vid).dim, []).append(vid)
    points = {vid: np.empty(0) for vid in by_dim.pop(0, [])}
    for vids in by_dim.values():
        points.update(zip(vids, _maximize_vertices(model, vids, sqrt_beta, n_starts, scan_budget)))
    # every score comes from the reference posterior: the closed form of a
    # dim-0 vertex, a single-row re-score of the argmax of any other
    vertex_points = {vid: points[vid] for vid in index.bfs_order}
    vertex_ucb = {}
    for vid, x in vertex_points.items():
        means, variances = component_posterior_batch(model, vid, x[None, :])
        vertex_ucb[vid] = float(means[0] + sqrt_beta * math.sqrt(variances[0]))

    path_ucb = np.array(
        [sum(vertex_ucb[vid] for vid in path) for path in index.leaf_paths]
    )
    chosen = int(np.argmax(path_ucb))  # first max: lowest path index wins ties
    values = np.concatenate(
        [vertex_points[vid] for vid in index.leaf_paths[chosen]]
        or [np.empty(0)]
    )
    return Proposal(
        vertex_points=vertex_points,
        vertex_ucb=vertex_ucb,
        path_ucb=path_ucb,
        chosen_leaf=chosen,
        values=values,
        beta=beta_value,
    )
