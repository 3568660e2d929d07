"""Reference implementations that tests compare the library against.

Each one is written from the definitions, not through the code under test:
the base kernels from their closed forms with ``math``, vertex membership from
the configuration's leaf, passed next to its slot row, and
``spec.leaf_paths`` rather than from tag slots, restrictions from
``spec.offsets``, and the evidence with dense ``slogdet`` and ``solve``.
The block evidence engine is the per-vertex assembly that the packed fitting
layout replaced, kept as the reference for its evidence and gradient.
The reference UCB maximizer polishes every start on its own with scipy's
L-BFGS-B and its finite-difference gradients on the values of
``component_posterior_batch``, so it uses none of the library's gradient code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve
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
    """(kind, lengthscales, scale) of one vertex, read from the
    kernel's named-parameter record: the arguments :func:`base_kernel` takes
    before the two value vectors."""
    config = kernel.to_config()
    p = config["params"][vertex_id]
    return config["kind"], p["lengthscales"], p["output_scale"]


def on_path(spec, vertex_id, leaf) -> bool:
    """Whether the vertex lies on the path of the leaf with index ``leaf``."""
    return vertex_id in spec.leaf_paths[leaf]


def restrict(spec, leaf, row, vertex_id) -> np.ndarray:
    """The values at one vertex of the configuration with slot row ``row``
    on leaf ``leaf``: the row's value slots of the vertex when the vertex is
    on the leaf's path, else empty.  Unknown ids raise KeyError."""
    _, vs, ve = spec.offsets[vertex_id]
    return row[vs:ve].copy() if on_path(spec, vertex_id, leaf) else np.empty(0)


def add_tree(kernel, leaf_x, x, leaf_y, y) -> float:
    """The add-tree kernel between slot rows ``x`` and ``y`` on leaves
    ``leaf_x`` and ``leaf_y``, as the sum over tree vertices on both paths of
    the base kernel on the two restrictions."""
    spec = kernel.spec
    total = 0.0
    for v in spec.vertices:
        if on_path(spec, v.id, leaf_x) and on_path(spec, v.id, leaf_y):
            total += base_kernel(
                *vertex_params(kernel, v.id),
                restrict(spec, leaf_x, x, v.id),
                restrict(spec, leaf_y, y, v.id),
            )
    return total


def log_evidence(model) -> float:
    """Log marginal likelihood of a fitted model's data from dense algebra on
    ``K + noise * I`` (without any jitter the fit added)."""
    K_y = model.kernel.gram_matrix(model.data.X) + model.data.noise * np.eye(model.n)
    y = model.data.targets
    return float(
        -0.5 * y @ np.linalg.solve(K_y, y)
        - 0.5 * np.linalg.slogdet(K_y)[1]
        - 0.5 * y.size * math.log(2 * math.pi)
    )


def _correlation_and_weight(kind, r2):
    """Base-kernel correlation at scaled squared distance ``r2`` and the
    weight w with d corr / d log ls_d = w * (scaled squared difference in d)."""
    r = np.sqrt(r2)
    if kind == "se":
        corr = np.exp(-0.5 * r2)
        return corr, corr
    if kind == "matern32":
        e = np.exp(-math.sqrt(3) * r)
        return (1 + math.sqrt(3) * r) * e, 3.0 * e
    e = np.exp(-math.sqrt(5) * r)
    return (1 + math.sqrt(5) * r + 5 * r2 / 3) * e, 5 / 3 * (1 + math.sqrt(5) * r) * e


def block_evidence_and_grad(kernel, leaves, X, y, noise, log_params):
    """Log evidence of the slot rows ``X`` on ``leaves`` and targets ``y``
    under the kernel with hyperparameters exp(``log_params``), and its
    gradient in them, from dense per-vertex blocks.

    The rows are ordered by the depth-first rank of their leaf, so each
    vertex's rows R_v are one contiguous slice s.  Its term is
    added into K[s, s]; each log-parameter derivative is the dense block it
    is non-zero on (a tied scale's is all of K), and contributes
    ½ Σ (αα^T − K_y^{-1})[s, s] ∘ ∂K/∂θ to the gradient.
    """
    spec = kernel.spec
    # Leaves sorted by their paths' BFS positions come in depth-first order,
    # where the leaves of every subtree are adjacent.
    bfs_pos = {vid: i for i, vid in enumerate(spec.bfs_order)}
    dfs = sorted(range(spec.n_leaves), key=lambda i: [bfs_pos[v] for v in spec.leaf_paths[i]])
    order = sorted(range(len(leaves)), key=lambda i: dfs.index(leaves[i]))
    leaves, X = [leaves[i] for i in order], np.asarray(X)[order]
    y = np.asarray(y, dtype=float)[order]
    n = len(leaves)
    theta = np.exp(log_params)
    where = {name: k for k, name in enumerate(kernel.param_names())}
    K = np.zeros((n, n))
    derivs = []  # (parameter index, block slice, dense derivative block)
    for vid in spec.bfs_order:
        dim = spec.vertex(vid).dim
        rows = [i for i, leaf in enumerate(leaves) if on_path(spec, vid, leaf)]
        s = slice(rows[0], rows[-1] + 1) if rows else slice(0, 0)
        assert s.stop - s.start == len(rows), "rows of a vertex are not contiguous"
        V = np.array([restrict(spec, leaves[i], X[i], vid) for i in rows])
        V = V.reshape(len(rows), dim)
        D = V.T[:, :, None] - V.T[:, None, :]
        sq = D * D
        ls = [where[f"{vid}::ls{d}"] for d in range(dim)]
        scale = where["shared::scale" if kernel.tied_scales else f"{vid}::scale"]
        m = len(rows)
        r2 = (1.0 / np.square(theta[ls]) @ sq.reshape(dim, m * m)).reshape(m, m)
        corr, w = _correlation_and_weight(kernel.kind, r2)
        term = theta[scale] * corr
        K[s, s] += term
        derivs += [(k, s, theta[scale] * w * sq[d] / theta[k] ** 2) for d, k in enumerate(ls)]
        if not kernel.tied_scales:
            derivs.append((scale, s, term))
    if kernel.tied_scales and "shared::scale" in where:
        derivs.append((where["shared::scale"], slice(0, n), K))
    factor = (np.linalg.cholesky(K + noise * np.eye(n)), True)
    alpha = cho_solve(factor, y)
    lml = -0.5 * y @ alpha - np.sum(np.log(np.diag(factor[0]))) - 0.5 * n * math.log(2 * math.pi)
    inner = np.outer(alpha, alpha) - cho_solve(factor, np.eye(n))
    grad = np.zeros(len(log_params))
    for k, s, G in derivs:
        grad[k] += 0.5 * np.sum(inner[s, s] * G)
    return float(lml), grad


def polish(model, vertex_id, sqrt_beta, x0):
    """Bounded L-BFGS-B on one vertex's component UCB mu + sqrt(beta) * sigma
    from ``x0`` (at most 60 iterations), with scipy's finite-difference
    gradients; returns the final point and score."""
    lo, hi = np.array(model.kernel.spec.vertex(vertex_id).bounds).T

    def negative_ucb(x):
        mean, var = component_posterior_batch(model, vertex_id, x)
        return -float(mean[0] + sqrt_beta * math.sqrt(var[0]))

    res = minimize(
        negative_ucb, x0, method="L-BFGS-B", bounds=list(zip(lo, hi)), options={"maxiter": 60}
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
