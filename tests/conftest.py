from __future__ import annotations

import os
from pathlib import Path

# Before numpy loads: the suite's matrices are small, and on a 2-vCPU machine
# a second OpenBLAS thread made the n = 200 fits ten times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from oracles import random_tree_spec  # noqa: E402
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


def random_kernel(spec, index, rng, kind=None, zero_dim="constant", tied_scales=False):
    """A kernel of ``kind`` (one drawn at random by default) with log
    hyperparameters drawn uniformly from [-1, 1]."""
    kind = kind or str(rng.choice(["se", "matern32", "matern52"]))
    kern = AddTreeKernel.default(spec, index, kind, zero_dim=zero_dim, tied_scales=tied_scales)
    return kern.with_log_params(rng.uniform(-1.0, 1.0, size=len(kern.theta)))


def random_points(spec, index, rng, n):
    pts = []
    for _ in range(n):
        leaf, values = bench.sample_uniform_point(index, rng)
        pts.append(linearize(spec, index, leaf, values))
    return pts


def random_gp_instance(seed, n=12, noise=1e-4, max_dim=2, **kernel_args):
    """A random (tree, kernel, dataset) triple for inference tests;
    ``kernel_args`` go to :func:`random_kernel`."""
    rng = np.random.default_rng(seed)
    spec = random_tree_spec(seed, max_depth=3, max_fanout=2, max_dim=max_dim)
    index = build_path_index(spec)
    kernel = random_kernel(spec, index, rng, **kernel_args)
    pts = random_points(spec, index, rng, n)
    y = rng.normal(size=n)
    data = gp.Dataset.create(pts, y, noise=noise)
    return spec, index, kernel, data
