"""Bayesian optimization for tree-structured conditional parameter spaces.

The search space is a rooted tree whose categorical choices select a
root-to-leaf path of bounded continuous variables.  One GP with an additive
path kernel models every path jointly, sharing observations through common
ancestors; acquisition maximizes per-vertex confidence bounds one vertex at
a time and recombines them along the best path.
"""

from .acquisition import (
    Proposal,
    UcbSchedule,
    beta,
    mutual_information,
    propose,
)
from .bench import (
    BoConfig,
    NonFiniteObjectiveError,
    Objective,
    RunTrace,
    jenatton_objective,
    quadratic_objective,
    random_tree_objective,
    run_bo,
    run_regression_study,
    wilcoxon_one_sided,
)
from .gp import (
    Dataset,
    FactorizationError,
    GpModel,
    fit,
    fit_hyperparameters,
    posterior,
)
from .kernels import AddTreeKernel
from .tree_space import (
    LinearizedPoint,
    PathIndex,
    TreeSpec,
    TreeSpecError,
    VertexSpec,
    build_path_index,
    linearize,
    make_tree_spec,
    parse_tree_spec,
)

__version__ = "0.1.0"
