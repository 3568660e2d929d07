from __future__ import annotations

import os
from pathlib import Path

# Before numpy loads: the suite's matrices are small, and on a 2-vCPU machine
# a second OpenBLAS thread made the n = 200 fits ten times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from treebo import bench, gp  # noqa: E402
from treebo.kernels import AddTreeKernel  # noqa: E402
from treebo.tree_space import build_path_index, linearize, parse_tree_spec  # noqa: E402

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def two_leaf():
    """Root with 2 shared dims, leaves with 2 and 3 dims (total space dim 8)."""
    spec = parse_tree_spec((DATA / "two_leaf.tree").read_text())
    return spec, build_path_index(spec)


@pytest.fixture(scope="session")
def binary_depth3():
    """Bare root, two mid vertices with one dim each, four 1-dim leaves."""
    spec = parse_tree_spec((DATA / "binary_depth3.tree").read_text())
    return spec, build_path_index(spec)


@pytest.fixture(scope="session")
def jenatton():
    return bench.jenatton_objective()


def random_kernel(spec, index, rng, zero_dim="constant"):
    """Random hyperparameters over random kernel families."""
    from treebo.kernels import BaseKernelParams

    params = {}
    for v in spec.vertices:
        params[v.id] = BaseKernelParams(
            kind=rng.choice(["se", "matern32", "matern52"]),
            lengthscales=tuple(np.exp(rng.uniform(-1.0, 1.0, size=v.dim))),
            output_scale=float(np.exp(rng.uniform(-1.0, 1.0))),
        )
    return AddTreeKernel(spec=spec, index=index, params=params, zero_dim=zero_dim)


def random_points(spec, index, rng, n):
    pts = []
    for _ in range(n):
        leaf, values = bench.sample_uniform_point(index, rng)
        pts.append(linearize(spec, index, leaf, values))
    return pts


def random_gp_instance(seed, n=12, noise=1e-4, zero_dim="constant", max_dim=2):
    """A random (tree, kernel, dataset) triple for inference tests."""
    rng = np.random.default_rng(seed)
    spec = bench.random_tree_spec(seed, max_depth=3, max_fanout=2, max_dim=max_dim)
    index = build_path_index(spec)
    kernel = random_kernel(spec, index, rng, zero_dim=zero_dim)
    pts = random_points(spec, index, rng, n)
    y = rng.normal(size=n)
    data = gp.Dataset.create(pts, y, noise=noise)
    return spec, index, kernel, data
