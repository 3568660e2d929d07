"""Reference implementations that tests compare the library against.

Each one is written from the definitions, not through the code under test:
the base kernels from their closed forms with ``math``, vertex membership from
``index.leaf_paths`` rather than from tag slots, restrictions from
``index.offsets``, and the evidence with dense ``slogdet`` and ``solve``.
"""

from __future__ import annotations

import math

import numpy as np

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


def base_kernel(params, a, b) -> float:
    """One vertex's base kernel between two value vectors (both empty for a
    dim-0 vertex, where it is the output scale)."""
    r = math.sqrt(sum(((x - y) / ls) ** 2 for x, y, ls in zip(a, b, params.lengthscales)))
    if params.kind == "se":
        corr = math.exp(-0.5 * r * r)
    elif params.kind == "matern32":
        corr = (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    else:
        corr = (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
    return params.output_scale * corr


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
                kernel.params[v.id],
                restrict(kernel.index, x, v.id),
                restrict(kernel.index, y, v.id),
            )
    return total


def log_evidence(model) -> float:
    """Log marginal likelihood of a fitted model's data from dense algebra on
    ``K + diag(noise)`` (without any jitter the fit added)."""
    K_y = model.K + np.diag(model.data.noise)
    y = model.data.targets
    return float(
        -0.5 * y @ np.linalg.solve(K_y, y)
        - 0.5 * np.linalg.slogdet(K_y)[1]
        - 0.5 * y.size * math.log(2 * math.pi)
    )
