"""GP-UCB acquisition over tree-structured spaces.

The upper confidence bound ``mu + sqrt(beta) * sigma`` is maximized one
vertex at a time: every vertex's component posterior yields a low-dimensional
UCB surface over that vertex's own box, and each is maximized independently.
Every path gets a score, the sum of the per-vertex maxima along it, and a
candidate point, its argmaxes joined in path order.  :func:`propose` scores
every path; the optimization loop (:func:`treebo.bench.run_bo`) chooses one
across all of its models.
Component means add exactly along a path, so the mean part of the path score
is exact; the summed component deviations are a surrogate for the full
posterior deviation.

The vertices are maximized together, one batch per dimension: a fixed Sobol
scan of every vertex's box, which reads UCB values only, picks its best
starts, and one projected gradient ascent (:func:`_ascend`) climbs from all
starts of all the batch's vertices at once, on
:func:`~treebo.gp.stacked_component_posterior` with the closed-form gradient
of the component UCB.  Each argmax is then scored once
more by :func:`~treebo.gp.component_posterior_batch`, a solve with the
Cholesky factor itself, so every reported score comes from the reference
posterior.  A dim-0 vertex has nothing to maximize; its score is that same
closed form.  The scan is the unscrambled Sobol sequence, generated here
(:func:`_unit_sobol`) from scipy's Joe-Kuo direction-number file rather than
by ``scipy.stats.qmc``: importing ``scipy.stats`` would cost a BO process
about half a second and 20 MB.

``beta`` follows the adaptive confidence schedule (Berkenkamp et al., JMLR
2019): ``sqrt(beta_t)`` is the inflated norm bound ``b(t) * g(t)^d * B0``
plus a mutual-information noise term.  The inflation functions grow
logarithmically, ``g(t) = 1 + gamma_g * log(1 + t)`` (lengthscale deflation)
and ``b(t) = 1 + gamma_b * log(1 + t)`` (norm-bound growth); zero rates give
the constant schedule ``g = b = 1``.  The GP and beta assume one noise
variance, the data's noise plus any jitter, and the information gain reads
the model's own Cholesky factor.
"""

from __future__ import annotations

import functools
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .gp import (
    ComponentStack,
    GpModel,
    clip,
    component_posterior_batch,
    component_stack,
    einsum,
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

# The per-vertex ascent (:func:`_ascend`): the projected-gradient and
# predicted-gain tolerances relative to max(1, |score|), the Armijo constant,
# how many recent scores the non-monotone line search keeps, and the bounds
# of the Barzilai-Borwein multiple.
PG_TOL = 1e-6
GAIN_TOL = 1e-12
ARMIJO = 1e-4
MEMORY = 10
STEP_MIN, STEP_MAX = 1e-10, 1e10
TINY = np.finfo(float).tiny  # 1 / TINY is finite; 1 / a subnormal may not be
# The Sobol scan's direction numbers: scipy's copy of the Joe-Kuo table, read
# by path so that ``scipy.stats`` is never imported, and its row count.
SOBOL_TABLE = Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz"
SOBOL_MAX_DIM = 21201


@dataclass(frozen=True)
class UcbSchedule:
    """Confidence-bound schedule parameters.

    ``gamma_g`` and ``gamma_b`` are the non-negative rates of the logarithmic
    inflation functions ``g`` and ``b`` (both equal 1 at t = 0 and are
    exactly 1 for a zero rate); ``d`` is the total dimension of the space
    (continuous plus categorical), the exponent on ``g(t)`` in the norm bound.
    ``theta0`` only sets the cap theta0 / g(t), the upper bound of every
    lengthscale's box in a fit; a fit starts from lengthscale 1
    (``BoConfig.kernel``) or from the last fit, clipped into the box.
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
        if not self.d >= 0:
            raise ValueError(f"d must be >= 0, got {self.d}")

    def g(self, t: float) -> float:
        """Lengthscale deflation 1 + gamma_g * log(1 + t)."""
        return 1.0 + self.gamma_g * math.log1p(t)

    def b(self, t: float) -> float:
        """Norm-bound growth 1 + gamma_b * log(1 + t)."""
        return 1.0 + self.gamma_b * math.log1p(t)

    def lengthscale_cap(self, t: float) -> float:
        """theta_0 / g(t): the upper bound on every fitted lengthscale."""
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
    if not info_gain >= 0:  # NaN fails too
        raise ValueError(f"info_gain must be >= 0, got {info_gain}")
    if not noise_std >= 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    root = norm_bound(schedule, t) + 4.0 * noise_std * math.sqrt(
        info_gain + 1.0 + math.log(1.0 / schedule.delta)
    )
    return root * root


def mutual_information(model: GpModel) -> float:
    """Information between the observations and the prior: half the
    log-determinant of I + K / sigma^2, with sigma^2 the model's noise plus
    its jitter, the one noise variance of the GP and of beta, which
    ``model.L`` factors on the diagonal.  As det(K + sigma^2 I) = sigma^(2n)
    det(I + K / sigma^2), it is sum(log diag L) - n/2 log sigma^2 on the
    model's own factor L, clamped at 0 against round-off.
    """
    if model.n == 0:
        return 0.0
    s2 = model.data.noise + model.jitter
    if not s2 > 0:
        raise ValueError(f"mutual information needs a positive noise variance, got {s2}")
    return max(0.0, float(np.log(np.diag(model.L)).sum()) - 0.5 * model.n * math.log(s2))


@dataclass(frozen=True)
class Proposal:
    """Outcome of one acquisition round.

    ``vertex_points``/``vertex_ucb`` hold every vertex's argmax and score;
    ``path_ucb[i]`` sums the scores along leaf i's path, and
    ``path_values[i]`` joins the argmaxes along it in path order, leaf i's
    continuous values.  No path is chosen here: the loop picks a leaf.
    """

    vertex_points: dict
    vertex_ucb: dict
    path_ucb: np.ndarray
    path_values: tuple
    beta: float


def _npy_prefix(table: zipfile.ZipFile, name: str, rows: int, cols: int = 0) -> np.ndarray:
    """``a[:rows]`` of the 1-D array, or ``a[:rows, :cols]`` of the 2-D one,
    stored as the ``.npy`` member ``name`` of a zip archive.

    Reads the member as a stream and decompresses only up to the last entry
    wanted: a 2-D array stored column by column (Fortran order) is read one
    column prefix at a time, skipping the rest of each column.
    """
    with table.open(name) as f:
        version = np.lib.format.read_magic(f)
        read_header = (
            np.lib.format.read_array_header_1_0
            if version == (1, 0)
            else np.lib.format.read_array_header_2_0
        )
        shape, fortran_order, dtype = read_header(f)
        start, size = f.tell(), dtype.itemsize
        if len(shape) == 1:
            return np.frombuffer(f.read(rows * size), dtype)
        if not fortran_order:  # row by row: the first rows are one prefix
            return np.frombuffer(f.read(rows * shape[1] * size), dtype).reshape(rows, -1)[:, :cols]
        block = np.empty((rows, cols), dtype)
        for c in range(cols):
            f.seek(start + c * shape[0] * size)
            block[:, c] = np.frombuffer(f.read(rows * size), dtype)
        return block


@functools.lru_cache(maxsize=64)
def _unit_sobol(dim: int, budget: int) -> np.ndarray:
    """The first ``budget`` unscrambled Sobol points in [0, 1)^dim, read-only.

    Bitwise equal to ``scipy.stats.qmc.Sobol(d=dim, scramble=False)
    .random_base2(m)[:budget]``, built from the Joe-Kuo (2008) direction
    numbers that ``qmc.Sobol`` reads itself (:data:`SOBOL_TABLE`), so
    ``propose`` never pays for importing ``scipy.stats``.  Each cache miss
    reads only the first ``dim`` polynomials and their initial numbers from
    the table's compressed members (:func:`_npy_prefix`): decompressing the
    whole table would take 10-14 ms.
    Row 0 is all ones; row d >= 1 with primitive polynomial p of degree s
    starts from its s initial numbers and continues by the Bratley-Fox
    recurrence.  Point i is the XOR of the direction numbers at the set bits
    of gray(i) = i ^ (i >> 1), scipy's Antonov-Saleev order, over 2^m.
    """
    if dim > SOBOL_MAX_DIM:
        raise ValueError(f"Maximum supported dimensionality is {SOBOL_MAX_DIM}.")
    m = max(1, math.ceil(math.log2(max(2, budget))))
    with zipfile.ZipFile(SOBOL_TABLE) as table:
        poly = [int(p) for p in _npy_prefix(table, "poly.npy", dim)]
        degree = max((p.bit_length() - 1 for p in poly[1:]), default=0)
        vinit = _npy_prefix(table, "vinit.npy", dim, degree)
    M = np.ones((dim, m), dtype=np.int64)  # row 0 stays all ones
    for d in range(1, dim):
        p = poly[d]
        s = p.bit_length() - 1
        md = [int(x) for x in vinit[d, :s]]
        for k in range(s, m):
            x = md[k - s] ^ (md[k - s] << s)
            for j in range(1, s):
                if p >> (s - j) & 1:
                    x ^= md[k - j] << j
            md.append(x)
        M[d] = md[:m]
    v = M << (m - 1 - np.arange(m))
    gray = np.arange(budget) ^ (np.arange(budget) >> 1)
    pts = np.zeros((budget, dim), dtype=np.int64)
    for bit in range(m):
        pts[(gray >> bit) & 1 == 1] ^= v[:, bit]
    pts = pts / 2.0**m
    pts.flags.writeable = False
    return pts


def _component_ucb(stack: ComponentStack, lo: np.ndarray, sqrt_beta: float):
    """``ucb(Z)``, the component UCB of the stacked vertices at points ``Z``
    (k, q, dim) in lengthscale units from the box corner ``lo`` (x = lo + Z *
    lengthscales); with ``grad=True`` also its gradient in those units, whose
    sigma part is taken as 0 where sigma is 0."""
    ls, lo = stack.lengthscales[:, None, :], lo[:, None, :]

    def ucb(Z, grad=False):
        posterior = stacked_component_posterior(stack, lo + Z * ls, grad)
        sigma = np.sqrt(posterior[1])
        value = posterior[0] + sqrt_beta * sigma
        if not grad:
            return value
        # d sigma = d sigma^2 / (2 sigma)
        half_inv = np.divide(0.5, sigma, out=np.zeros(sigma.shape), where=sigma > 0)
        return value, (posterior[2] + sqrt_beta * half_inv[..., None] * posterior[3]) * ls

    return ucb


def _ascend(ucb, upper: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``ucb`` (:func:`_component_ucb`) from every start row of
    ``Z`` (k, q, dim) at once by projected gradient ascent on the boxes
    [0, ``upper``] (k, 1, dim) of its coordinates; returns each row's best
    point and score.

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
    A pass calls numpy's C routines directly: at a few dozen rows their
    Python wrappers would cost more than their arithmetic.
    """
    f, g = ucb(Z, grad=True)

    def projected(Z, step_g):
        return clip(Z + step_g, 0.0, upper) - Z

    def pg_norm(Z, g):
        return np.maximum.reduce(np.abs(projected(Z, g)), axis=-1, initial=0.0)

    # first step: the projected gradient scaled to unit length in max-norm
    pg = pg_norm(Z, g)
    active = ~(pg <= PG_TOL * np.maximum(1.0, np.abs(f)))
    unit = np.divide(1.0, pg, out=np.ones(pg.shape), where=pg > TINY)
    direction = projected(Z, unit[..., None] * g)
    t = np.ones(f.shape)
    recent = np.repeat(f[None], MEMORY, axis=0)
    best_Z, best_f = Z, f
    while True:
        trial = Z + t[..., None] * direction
        active &= np.logical_or.reduce(trial != Z, axis=-1)
        if not np.logical_or.reduce(active, axis=None):
            return best_Z, best_f
        f_trial, g_trial = ucb(trial, grad=True)
        slope = einsum("kqd,kqd->kq", g, direction)
        floor = np.minimum.reduce(recent, axis=0)
        # strictly above the floor, so the floor rises within MEMORY accepted steps
        accept = active & (f_trial > floor) & (f_trial >= floor + ARMIJO * t * slope)
        s, y = trial - Z, g_trial - g
        curvature = -einsum("kqd,kqd->kq", s, y)  # > 0 where the UCB is concave along s
        bb = np.divide(
            einsum("kqd,kqd->kq", s, s), curvature,
            out=np.full(f.shape, STEP_MAX), where=curvature > 0,
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
        step = clip(bb, STEP_MIN, STEP_MAX)
        direction = np.where(accept[..., None], projected(Z, step[..., None] * g), direction)
        t = np.where(accept, 1.0, clip(shrunk, 0.1 * t, 0.5 * t))
        size = np.maximum(1.0, np.abs(f))
        active &= ~(accept & (pg_norm(Z, g) <= PG_TOL * size))
        active &= accept | (slope * t > GAIN_TOL * size)


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
    upper = ((hi - lo) / stack.lengthscales)[:, None, :]

    ucb = _component_ucb(stack, lo, sqrt_beta)
    scan = _unit_sobol(lo.shape[1], scan_budget)[None] * upper
    top = np.argsort(-ucb(scan), axis=1, kind="stable")[:, :n_starts]
    Z, f = _ascend(ucb, upper, np.take_along_axis(scan, top[..., None], axis=1))
    z = Z[np.arange(len(vertex_ids)), np.argmax(f, axis=1)]
    return np.clip(lo + z * stack.lengthscales, lo, hi)


def propose(
    model: GpModel,
    schedule: UcbSchedule,
    t: int,
    n_starts: int,
    scan_budget: int,
) -> Proposal:
    """Run one round of per-vertex UCB maximization and score every path.

    Vertices are maximized independently, all vertices of one dimension in
    one batched ascent (see the module docstring) from the best
    ``n_starts`` of ``scan_budget`` scan points (``BoConfig`` holds both);
    beta reads the model's one noise variance, its noise plus any jitter.
    Every leaf gets its path score and its values; the caller chooses the
    leaf.  The result is deterministic for a fixed OpenBLAS thread count.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if scan_budget < 1 or n_starts < 1:
        raise ValueError("optimizer budget must allow at least one evaluation")
    spec = model.kernel.spec

    noise_std = math.sqrt(model.data.noise + model.jitter)
    beta_value = beta(schedule, t, mutual_information(model), noise_std)
    sqrt_beta = math.sqrt(beta_value)

    by_dim: dict[int, list[str]] = {}
    for vid in spec.bfs_order:
        by_dim.setdefault(spec.vertex(vid).dim, []).append(vid)
    points = {vid: np.empty(0) for vid in by_dim.pop(0, [])}
    for vids in by_dim.values():
        points.update(zip(vids, _maximize_vertices(model, vids, sqrt_beta, n_starts, scan_budget)))
    # every score comes from the reference posterior: the closed form of a
    # dim-0 vertex, a single-row re-score of the argmax of any other
    vertex_points = {vid: points[vid] for vid in spec.bfs_order}
    vertex_ucb = {}
    for vid, x in vertex_points.items():
        means, variances = component_posterior_batch(model, vid, x[None, :])
        vertex_ucb[vid] = float(means[0] + sqrt_beta * math.sqrt(variances[0]))

    return Proposal(
        vertex_points=vertex_points,
        vertex_ucb=vertex_ucb,
        path_ucb=np.array([sum(vertex_ucb[vid] for vid in path) for path in spec.leaf_paths]),
        path_values=tuple(
            np.concatenate([vertex_points[vid] for vid in path]) for path in spec.leaf_paths
        ),
        beta=beta_value,
    )
