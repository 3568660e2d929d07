"""Reference implementations that tests compare the library against.

Each one is written from the definitions, not through the code under test:
the base kernels from their closed forms with ``math``, vertex membership from
``index.leaf_paths`` rather than from tag slots, restrictions from
``index.offsets``, and the evidence with dense ``slogdet`` and ``solve``.
The reference UCB maximizer polishes every start on its own with scipy's
L-BFGS-B on the reference component posterior.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from treebo.gp import component_posterior_batch
from treebo.tree_space import VertexSpec, make_tree_spec


def random_tree_spec(seed, max_depth=3, max_fanout=3, max_dim=3, p_zero_dim=0.25):
    """A random tree shape for property tests; dim-0 vertices included."""
    rng = np.random.default_rng(seed)
    vertices: list[VertexSpec] = []
    edges: list[tuple[str, int, str]] = []
    counter = [0]

    def add_vertex(depth: int) -> str:
        vid = f"v{counter[0]}"
        counter[0] += 1
        dim = 0 if rng.random() < p_zero_dim else int(rng.integers(1, max_dim + 1))
        bounds = []
        for _ in range(dim):
            lo = -1.0 - rng.random()
            hi = 1.0 + rng.random()
            bounds.append((lo, hi))
        vertices.append(VertexSpec(vid, dim, tuple(bounds)))
        if depth < max_depth:
            fanout = int(rng.integers(0, max_fanout + 1))
            for lab in range(fanout):
                child = add_vertex(depth + 1)
                edges.append((vid, lab, child))
        return vid

    add_vertex(1)
    return make_tree_spec(vertices, edges)


def base_kernel(kind, lengthscales, scale, a, b) -> float:
    """One vertex's base kernel between two value vectors (both empty for a
    dim-0 vertex, where it is the output scale)."""
    r = math.sqrt(sum(((x - y) / ls) ** 2 for x, y, ls in zip(a, b, lengthscales)))
    if kind == "se":
        corr = math.exp(-0.5 * r * r)
    elif kind == "matern32":
        corr = (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    else:
        corr = (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
    return scale * corr


def vertex_params(kernel, vertex_id):
    """(kind, lengthscales, scale) of one contributing vertex, read from the
    kernel's named-parameter record: the arguments :func:`base_kernel` takes
    before the two value vectors."""
    config = kernel.to_config()
    p = config["params"][vertex_id]
    return config["kind"], p["lengthscales"], p["output_scale"]


def on_path(index, vertex_id, point) -> bool:
    """Whether the vertex lies on the point's active path."""
    return vertex_id in index.leaf_paths[point.active_leaf]


def restrict(index, point, vertex_id) -> np.ndarray:
    """The point's values at one vertex: its value slots when the vertex is on
    the active path, else empty.  Unknown ids raise KeyError."""
    _, vs, ve = index.offsets[vertex_id]
    return point.slots[vs:ve].copy() if on_path(index, vertex_id, point) else np.empty(0)


def add_tree(kernel, x, y) -> float:
    """The add-tree kernel as the sum over tree vertices on both paths of the
    base kernel on the two restrictions; under ``zero_dim="zero"`` dim-0
    vertices are left out."""
    total = 0.0
    for v in kernel.spec.vertices:
        if kernel.zero_dim == "zero" and v.dim == 0:
            continue
        if on_path(kernel.index, v.id, x) and on_path(kernel.index, v.id, y):
            total += base_kernel(
                *vertex_params(kernel, v.id),
                restrict(kernel.index, x, v.id),
                restrict(kernel.index, y, v.id),
            )
    return total


def log_evidence(model) -> float:
    """Log marginal likelihood of a fitted model's data from dense algebra on
    ``K + noise * I`` (without any jitter the fit added)."""
    K_y = model.K + model.data.noise * np.eye(model.n)
    y = model.data.targets
    return float(
        -0.5 * y @ np.linalg.solve(K_y, y)
        - 0.5 * np.linalg.slogdet(K_y)[1]
        - 0.5 * y.size * math.log(2 * math.pi)
    )


def ucb_and_grad(model, vertex_id, sqrt_beta, x) -> tuple[float, np.ndarray]:
    """One vertex's component UCB mu + sqrt(beta) * sigma at one point and
    its gradient d mu + sqrt(beta) * d sigma^2 / (2 sigma), taking the sigma
    part as 0 where sigma is 0."""
    mean, var, dmean, dvar = component_posterior_batch(
        model, vertex_id, x[None, :], with_grad=True
    )
    sigma = math.sqrt(var[0])
    grad = dmean[0] + (sqrt_beta / (2.0 * sigma)) * dvar[0] if sigma > 0 else dmean[0]
    return float(mean[0] + sqrt_beta * sigma), grad


def polish(model, vertex_id, sqrt_beta, x0):
    """Bounded L-BFGS-B on one vertex's component UCB from ``x0`` (at most
    60 iterations); returns the final point and score."""
    lo, hi = np.array(model.kernel.spec.vertex(vertex_id).bounds).T
    res = minimize(
        lambda x: tuple(-part for part in ucb_and_grad(model, vertex_id, sqrt_beta, x)),
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        options={"maxiter": 60},
    )
    return np.clip(res.x, lo, hi), -float(res.fun)


def maximize_vertex_ucb(model, vertex_id, sqrt_beta, n_starts=5, scan_budget=32):
    """Per-start reference maximizer of one vertex's component UCB (dim >= 1).

    The first ``scan_budget`` unscrambled Sobol points of the vertex's box
    are scored, and each of the best ``n_starts`` is polished on its own
    (:func:`polish`).  Returns the best point and score, the best scan
    point's when no polish beats it.
    """
    vertex = model.kernel.spec.vertex(vertex_id)
    lo, hi = np.array(vertex.bounds).T
    m = max(1, math.ceil(math.log2(max(2, scan_budget))))
    scan = lo + qmc.Sobol(d=vertex.dim, scramble=False).random_base2(m)[:scan_budget] * (hi - lo)
    means, variances = component_posterior_batch(model, vertex_id, scan)
    scores = means + sqrt_beta * np.sqrt(variances)
    order = np.argsort(-scores)[:n_starts]
    best_x, best = scan[order[0]], float(scores[order[0]])
    for idx in order:
        x, score = polish(model, vertex_id, sqrt_beta, scan[idx])
        if score > best:
            best_x, best = x, score
    return best_x, best
