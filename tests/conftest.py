from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

# Before numpy loads: the suite's matrices are small, and on a 2-vCPU machine
# a second OpenBLAS thread made the n = 200 fits ten times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from oracles import random_tree_spec  # noqa: E402
from treebo import bench, gp  # noqa: E402
from treebo.kernels import AddTreeKernel  # noqa: E402
from treebo.tree_space import linearize, parse_tree_spec  # noqa: E402

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, for
    tests that start a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def two_leaf():
    """Root with 2 shared dims, leaves with 2 and 3 dims (total space dim 8)."""
    return parse_tree_spec((DATA / "two_leaf.tree").read_text())


@pytest.fixture(scope="session")
def binary_depth3():
    """Bare root, two mid vertices with one dim each, four 1-dim leaves."""
    return parse_tree_spec((DATA / "binary_depth3.tree").read_text())


@pytest.fixture(scope="session")
def jenatton():
    return bench.jenatton_objective()


def random_kernel(spec, rng, kind=None, zero_dim="constant", tied_scales=False):
    """A kernel of ``kind`` (one drawn at random by default) with log
    hyperparameters drawn uniformly from [-1, 1]."""
    kind = kind or str(rng.choice(["se", "matern32", "matern52"]))
    kern = AddTreeKernel.default(spec, kind, zero_dim=zero_dim, tied_scales=tied_scales)
    return replace(kern, theta=np.exp(rng.uniform(-1.0, 1.0, size=len(kern.theta))))


def random_points(spec, rng, n):
    """``n`` uniform configurations: the list of their leaves, which the
    oracles read membership from, and the (n, width) matrix of their slot
    rows."""
    leaves, rows = [], []
    for _ in range(n):
        leaf, values = bench.sample_uniform_point(spec, rng)
        leaves.append(leaf)
        rows.append(linearize(spec, leaf, values))
    return leaves, np.array(rows).reshape(n, spec.width)


def no_rows(spec):
    """The slot-row matrix of an empty dataset on the space."""
    return np.empty((0, spec.width))


def random_gp_instance(seed, n=12, noise=1e-4, max_dim=2, **kernel_args):
    """A random tree, kernel and dataset for inference tests, and the leaves
    of the dataset's rows; ``kernel_args`` go to :func:`random_kernel`."""
    rng = np.random.default_rng(seed)
    spec = random_tree_spec(seed, max_depth=3, max_fanout=2, max_dim=max_dim)
    kernel = random_kernel(spec, rng, **kernel_args)
    leaves, X = random_points(spec, rng, n)
    y = rng.normal(size=n)
    data = gp.Dataset.create(X, y, noise=noise)
    return spec, kernel, data, leaves
