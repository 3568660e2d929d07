import math
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

import oracles
from conftest import no_rows, random_gp_instance, random_points
from oracles import restrict
from treebo import acquisition as acq
from treebo import bench, gp
from treebo.kernels import AddTreeKernel
from treebo.tree_space import VertexSpec, linearize, make_tree_spec


# propose's search budget as a BO run passes it
RUN = bench.BoConfig()
ACQ_ARGS = dict(n_starts=RUN.acq_starts, scan_budget=RUN.acq_scan)


def zero_rate_schedule(d):
    """Zero rates: g = b = 1 at every t."""
    return acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=d)


def empty_model(spec, **kw):
    kern = AddTreeKernel.default(spec, **kw)
    return gp.fit(kern, gp.Dataset.create(no_rows(spec), []))


def test_beta_without_noise_equals_norm_bound_squared():
    sched = acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.5, gamma_g=0.0, gamma_b=0.0, d=3)
    for info in (0.0, 2.0, 50.0):
        assert acq.beta(sched, t=1, info_gain=info, noise_std=0.0) == 1.0


def test_beta_direct_substitution():
    # b = g = 1, B0 = 1, sigma = 1, delta = 1/e, info 0:
    # sqrt(beta) = 1 + 4*sqrt(0 + 1 + 1)
    sched = acq.UcbSchedule(
        theta0=1.0, B0=1.0, delta=math.exp(-1.0), gamma_g=0.0, gamma_b=0.0, d=2
    )
    expected_root = 1.0 + 4.0 * math.sqrt(2.0)
    assert acq.beta(sched, t=3, info_gain=0.0, noise_std=1.0) == pytest.approx(
        expected_root**2, rel=1e-12
    )


def test_norm_bound_arithmetic():
    # g(t) = 1 + log(1 + t) is 2 at t = e - 1; b = 1, d = 2, B0 = 1: bound 4
    sched = acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=1.0, gamma_b=0.0, d=2)
    t_star = math.e - 1.0
    assert sched.g(t_star) == pytest.approx(2.0, rel=1e-12)
    assert acq.norm_bound(sched, t_star) == pytest.approx(4.0, rel=1e-12)


def test_beta_validates_inputs():
    sched = acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=1)
    with pytest.raises(ValueError, match="t must be >= 1"):
        acq.beta(sched, 0, 0.0, 1.0)
    for info_gain in (-1.0, math.nan):
        with pytest.raises(ValueError, match="info_gain"):
            acq.beta(sched, 1, info_gain, 1.0)
    for noise_std in (-1.0, math.nan):
        with pytest.raises(ValueError, match="noise_std"):
            acq.beta(sched, 5, 0.0, noise_std)


def test_schedule_validates_delta_and_rates():
    for delta, gamma_g, gamma_b, match in [
        (1.5, 0.0, 0.0, "delta"),
        (0.0, 0.0, 0.0, "delta"),
        (0.1, -0.5, 0.0, "gamma_g and gamma_b"),
        (0.1, 0.0, -1e-9, "gamma_g and gamma_b"),
        (0.1, math.nan, 0.0, "gamma_g and gamma_b"),
    ]:
        with pytest.raises(ValueError, match=match):
            acq.UcbSchedule(
                theta0=1.0, B0=1.0, delta=delta, gamma_g=gamma_g, gamma_b=gamma_b, d=1
            )


def test_schedule_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="d must be >= 0"):
        acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=-3)
    assert acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=0).d == 0


def test_log_schedule_monotone_norm_bound():
    sched = acq.UcbSchedule(theta0=1.0, B0=2.0, delta=0.1, gamma_g=0.3, gamma_b=0.2, d=3)
    values = [acq.norm_bound(sched, t) for t in range(0, 50)]
    assert values[0] == pytest.approx(2.0)
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))


def test_zero_rates_are_exactly_constant():
    sched = acq.UcbSchedule(theta0=1.0, B0=1.5, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=7)
    for t in (0, 1, 3.5, 1e6):
        assert sched.g(t) == 1.0 and sched.b(t) == 1.0
        assert acq.norm_bound(sched, t) == 1.5


def test_lengthscale_cap_follows_g():
    sched = acq.UcbSchedule(theta0=2.0, B0=1.0, delta=0.1, gamma_g=1.0, gamma_b=0.0, d=1)
    assert sched.lengthscale_cap(0) == pytest.approx(2.0)
    assert sched.lengthscale_cap(math.e - 1) == pytest.approx(1.0)


def test_mutual_information_empty_and_single(two_leaf):
    spec = two_leaf
    model = empty_model(spec)
    assert acq.mutual_information(model) == 0.0

    # one observation with k(x,x) = 1 and unit noise: 0.5 * log 2
    single = make_single_vertex_model()
    assert acq.mutual_information(single) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)

    # a kernel negligible against every noise gains nothing: its factor is
    # sqrt(noise) I exactly, so sum(log diag L) and n/2 log sigma^2 cancel,
    # and round-off must not take the gain below 0
    spec = make_tree_spec([VertexSpec("v", 0, ())], [])
    kern = AddTreeKernel.default(spec, output_scale=1e-300)
    X = np.repeat(linearize(spec, 0, [])[None], 3, axis=0)
    for noise in np.geomspace(1e-12, 10.0, 60):
        flat = gp.fit(kern, gp.Dataset.create(X, np.zeros(3), noise=noise))
        assert 0.0 <= acq.mutual_information(flat) < 1e-14


def make_single_vertex_model(noise=1.0):
    spec = make_tree_spec([VertexSpec("v", 1, ((-1.0, 1.0),))], [])
    kern = AddTreeKernel.default(spec)
    p = linearize(spec, 0, [0.0])
    return gp.fit(kern, gp.Dataset.create([p], [0.3], noise=noise))


def test_mutual_information_matches_eigen_oracle():
    # half the log-determinant of I + K / sigma^2 from K's eigenvalues, with
    # sigma^2 the noise plus the jitter: on well-conditioned data and on
    # repeated rows with zero noise, whose factorization needs jitter.  An
    # eigenvalue is exact to about n * eps * |K| only, which is that much
    # over sigma^2 in its log term.
    spec, kern, data, _ = random_gp_instance(6, n=10, noise=0.3)
    repeated = gp.Dataset.create(np.repeat(data.X[:4], 2, axis=0), np.zeros(8), noise=0.0)
    for data in (data, repeated):
        model = gp.fit(kern, data)
        s2 = data.noise + model.jitter
        eigs = np.linalg.eigvalsh(kern.gram_matrix(data.X))
        expected = 0.5 * float(np.sum(np.log1p(np.maximum(eigs, 0.0) / s2)))
        tol = model.n * np.finfo(float).eps * eigs.max() / s2
        assert acq.mutual_information(model) == pytest.approx(expected, abs=tol)
    assert model.jitter > 0


@pytest.mark.parametrize(
    "noise, rel", [(1e-2, 1e-12), (0.3, 1e-12), (1e-8, 1e-8)], ids=["1e-2", "0.3", "1e-8"]
)
def test_mutual_information_matches_the_scaled_gram_factor(noise, rel):
    # the gain read from the model's own factor of K + sigma^2 I equals the
    # log-determinant of the separately factored I + K / sigma^2
    for seed in range(5):
        _, kern, data, _ = random_gp_instance(seed, n=12, noise=noise)
        model = gp.fit(kern, data)
        M = np.eye(12) + kern.gram_matrix(data.X) / (noise + model.jitter)
        expected = float(np.log(np.diag(np.linalg.cholesky(M))).sum())
        assert acq.mutual_information(model) == pytest.approx(expected, rel=rel)


def test_mutual_information_rejects_zero_noise():
    # with no noise and no jitter, I + K / sigma^2 does not exist
    model = make_single_vertex_model(noise=0.0)
    assert model.jitter == 0.0
    with pytest.raises(ValueError, match="positive noise variance, got 0.0"):
        acq.mutual_information(model)


@pytest.mark.parametrize(
    "n, noise", [(6, 1e-8), (6, 0.3), (0, 0.3), (0, 1e-8)],
    ids=["small-noise", "large-noise", "empty-large-noise", "empty-small-noise"],
)
def test_propose_beta_reads_the_model_noise(jenatton, n, noise):
    # beta's information gain and noise term both use the noise the model
    # conditions on, on an empty model too (its information gain is 0)
    spec = jenatton.spec
    rng = np.random.default_rng(31)
    _, X = random_points(spec, rng, n)
    kern = AddTreeKernel.default(spec)
    model = gp.fit(kern, gp.Dataset.create(X, rng.normal(size=n), noise=noise))
    assert model.jitter == 0.0
    sched = acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.02, gamma_b=0.3, d=3)
    prop = acq.propose(model, sched, t=n + 1, n_starts=1, scan_budget=4)
    expected = acq.beta(sched, n + 1, acq.mutual_information(model), math.sqrt(noise))
    assert prop.beta == expected


def test_propose_prior_path_scores_tie_exactly(jenatton):
    # the prior is symmetric, so every path scores the same to the bit and
    # the loop's first-max rule decides (see test_bench)
    model = empty_model(jenatton.spec)
    sched = zero_rate_schedule(jenatton.spec.total_dimension)
    prop = acq.propose(model, sched, t=1, **ACQ_ARGS)
    assert len(prop.path_ucb) == len(prop.path_values) == jenatton.spec.n_leaves
    assert (prop.path_ucb == prop.path_ucb[0]).all()
    # every vertex scored sqrt(beta) * prior component std
    sqrt_beta = math.sqrt(prop.beta)
    for vid, u in prop.vertex_ucb.items():
        prior_std = math.sqrt(model.kernel.component_prior_variance(vid))
        assert u == pytest.approx(sqrt_beta * prior_std, rel=1e-9)


def test_propose_untouched_branch_keeps_prior_components(jenatton):
    spec = jenatton.spec
    kern = AddTreeKernel.default(spec)
    p = linearize(spec, 0, [0.0, 0.0])  # observe only leaf00
    model = gp.fit(kern, gp.Dataset.create([p], [jenatton(0, [0, 0])], noise=1e-6))
    for vid in ("n1", "leaf10", "leaf11"):
        mean, var = gp.component_posterior_batch(model, vid, np.array([[0.5]]))
        assert mean[0] == 0.0
        prior = kern.to_config()["params"][vid]["output_scale"]
        assert var[0] == pytest.approx(prior, rel=1e-12)


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_propose_matches_grid_oracle(jenatton, kind):
    spec = jenatton.spec
    rng = np.random.default_rng(17)
    kern = AddTreeKernel.default(spec, kind=kind, lengthscale=0.7)
    leaves, X = random_points(spec, rng, 12)
    y = np.array([
        jenatton(leaf, np.concatenate([
            restrict(spec, leaf, x, v) for v in spec.leaf_paths[leaf]
        ]))
        for leaf, x in zip(leaves, X)
    ])
    model = gp.fit(kern, gp.Dataset.create(X, -y, noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    prop = acq.propose(model, sched, t=13, **ACQ_ARGS)

    sqrt_beta = math.sqrt(prop.beta)
    for v in spec.vertices:
        if v.dim == 0:
            means, variances = gp.component_posterior_batch(model, v.id, np.zeros((1, 0)))
        else:
            grid = np.linspace(v.bounds[0][0], v.bounds[0][1], 20001).reshape(-1, 1)
            means, variances = gp.component_posterior_batch(model, v.id, grid)
        grid_max = float(np.max(means + sqrt_beta * np.sqrt(variances)))
        assert prop.vertex_ucb[v.id] >= grid_max - 1e-9, v.id


# Fixed before the results were seen: four random trees with 1-d and 2-d
# vertices, 15 noisy observations each.
ORACLE_SEEDS = range(4)


def oracle_cases(kind):
    """Per tree: the fitted model, its proposal and sqrt(beta)."""
    for seed in ORACLE_SEEDS:
        spec, kern, data, _ = random_gp_instance(
            seed, n=15, noise=1e-3, max_dim=2, kind=kind
        )
        model = gp.fit(kern, data)
        prop = acq.propose(model, zero_rate_schedule(spec.total_dimension), t=16, **ACQ_ARGS)
        yield seed, spec, model, prop, math.sqrt(prop.beta)


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_propose_matches_per_start_lbfgsb(kind):
    # every vertex's maximum is the L-BFGS-B reference's from the same starts
    # or better, up to 1e-6 relative; every shortfall is reported
    shortfalls, two_dim = [], 0
    for seed, spec, model, prop, sqrt_beta in oracle_cases(kind):
        for v in spec.vertices:
            if v.dim == 0:
                continue
            two_dim += v.dim == 2
            _, best = oracles.maximize_vertex_ucb(model, v.id, sqrt_beta)
            u = prop.vertex_ucb[v.id]
            if u < best - 1e-6 * max(1.0, abs(best)):
                shortfalls.append((seed, v.id, u, best))
    assert two_dim >= 4
    assert shortfalls == []


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_propose_argmaxes_are_lbfgsb_stationary(kind):
    # L-BFGS-B restarted at each returned argmax gains at most 1e-6 relative
    gains = []
    for seed, spec, model, prop, sqrt_beta in oracle_cases(kind):
        for v in spec.vertices:
            if v.dim == 0:
                continue
            u = prop.vertex_ucb[v.id]
            _, polished = oracles.polish(model, v.id, sqrt_beta, prop.vertex_points[v.id])
            if polished > u + 1e-6 * max(1.0, abs(u)):
                gains.append((seed, v.id, u, polished))
    assert gains == []


def test_propose_deterministic(jenatton):
    spec = jenatton.spec
    rng = np.random.default_rng(23)
    kern = AddTreeKernel.default(spec)
    _, X = random_points(spec, rng, 9)
    model = gp.fit(kern, gp.Dataset.create(X, rng.normal(size=9), noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    a = acq.propose(model, sched, t=10, **ACQ_ARGS)
    b = acq.propose(model, sched, t=10, **ACQ_ARGS)
    np.testing.assert_array_equal(a.path_ucb, b.path_ucb)
    assert len(a.path_values) == len(b.path_values) == spec.n_leaves
    for va, vb in zip(a.path_values, b.path_values):
        np.testing.assert_array_equal(va, vb)
    for vid in a.vertex_ucb:
        assert a.vertex_ucb[vid] == b.vertex_ucb[vid]


def test_proposal_point_restricts_to_vertex_argmaxes(jenatton):
    spec = jenatton.spec
    rng = np.random.default_rng(29)
    kern = AddTreeKernel.default(spec)
    _, X = random_points(spec, rng, 6)
    model = gp.fit(kern, gp.Dataset.create(X, rng.normal(size=6), noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    prop = acq.propose(model, sched, t=7, **ACQ_ARGS)
    # every leaf's row is its path's vertex argmaxes, and its score their sum
    for leaf, path in enumerate(spec.leaf_paths):
        row = linearize(spec, leaf, prop.path_values[leaf])
        for vid in path:
            np.testing.assert_array_equal(restrict(spec, leaf, row, vid), prop.vertex_points[vid])
        assert prop.path_ucb[leaf] == sum(prop.vertex_ucb[v] for v in path)


def test_first_step_from_a_subnormal_projected_gradient_stays_finite():
    # the one observation sits 37.8 lengthscales from the box corner, where
    # the UCB's gradient underflows to a subnormal number; 1 over it
    # overflows, so the first step must not scale by it
    spec = make_tree_spec([VertexSpec("v", 1, ((0.0, 1.0),))], [])
    kern = AddTreeKernel.default(spec, lengthscale=0.02)
    model = gp.fit(kern, gp.Dataset.create([linearize(spec, 0, [0.756])], [1.0], noise=1.0))
    sched = zero_rate_schedule(1)
    ucb = acq._component_ucb(gp.component_stack(model, ["v"]), np.zeros((1, 1)), 1.0)
    _, g = ucb(np.zeros((1, 1, 1)), grad=True)
    assert 0.0 < g.item() < np.finfo(float).tiny  # the corner's projected gradient
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the two scan points, 0 and 0.5, are both starts: the corner is one
        prop = acq.propose(model, sched, t=1, n_starts=2, scan_budget=2)
    assert np.isfinite(prop.vertex_points["v"]).all() and math.isfinite(prop.vertex_ucb["v"])


def test_propose_validates_budget(jenatton):
    model = empty_model(jenatton.spec)
    sched = zero_rate_schedule(1)
    with pytest.raises(ValueError, match="budget"):
        acq.propose(model, sched, t=1, **{**ACQ_ARGS, "scan_budget": 0})


SOBOL_BUDGETS = [1, 2, 3, 5, 8, 31, 32, 33, 100, 1024, 4096]
# large dimensions only with small budgets, to keep the scans small
SOBOL_CASES = (
    [(dim, budget) for dim in range(1, 41) for budget in SOBOL_BUDGETS]
    + [(1000, budget) for budget in SOBOL_BUDGETS if budget <= 32]
    + [(acq.SOBOL_MAX_DIM, 2)]
)


def test_unit_sobol_scan_is_built_once_and_read_only():
    # scipy's qmc.Sobol is the oracle: the scan must equal it bit for bit
    for dim, budget in SOBOL_CASES:
        pts = acq._unit_sobol(dim, budget)
        m = max(1, math.ceil(math.log2(max(2, budget))))
        fresh = qmc.Sobol(d=dim, scramble=False).random_base2(m)[:budget]
        assert pts.shape == fresh.shape and pts.tobytes() == fresh.tobytes(), (dim, budget)
        assert acq._unit_sobol(dim, budget) is pts
        assert not pts.flags.writeable
    with pytest.raises(ValueError, match="dimensionality"):
        acq._unit_sobol(acq.SOBOL_MAX_DIM + 1, 2)
