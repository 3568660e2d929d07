import math

import numpy as np
import pytest
from scipy.stats import qmc

import oracles
from conftest import random_gp_instance, random_points
from oracles import restrict
from treebo import acquisition as acq
from treebo import bench, gp
from treebo.kernels import AddTreeKernel
from treebo.tree_space import build_path_index, linearize


def zero_rate_schedule(d):
    """Zero rates: g = b = 1 at every t."""
    return acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.0, gamma_b=0.0, d=d)


def empty_model(spec, index, **kw):
    kern = AddTreeKernel.default(spec, index, **kw)
    return gp.fit(kern, gp.Dataset.create([], []))


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
    with pytest.raises(ValueError, match="info_gain"):
        acq.beta(sched, 1, -1.0, 1.0)


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
    spec, index = two_leaf
    model = empty_model(spec, index)
    assert acq.mutual_information(model, noise_variance=1.0) == 0.0

    # one observation with k(x,x) = 1 and unit noise: 0.5 * log 2
    single = make_single_vertex_model()
    assert acq.mutual_information(single, noise_variance=1.0) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-12
    )


def make_single_vertex_model():
    from treebo.tree_space import VertexSpec, make_tree_spec

    spec = make_tree_spec([VertexSpec("v", 1, ((-1.0, 1.0),))], [])
    index = build_path_index(spec)
    kern = AddTreeKernel.default(spec, index)
    p = linearize(spec, index, 0, [0.0])
    return gp.fit(kern, gp.Dataset.create([p], [0.3], noise=1.0))


def test_mutual_information_matches_eigen_oracle():
    spec, index, kern, data = random_gp_instance(6, n=10, noise=0.3)
    model = gp.fit(kern, data)
    mi = acq.mutual_information(model, 0.3)
    eigs = np.linalg.eigvalsh(model.K)
    expected = 0.5 * float(np.sum(np.log1p(np.maximum(eigs, 0.0) / 0.3)))
    assert mi == pytest.approx(expected, abs=1e-8)
    assert mi >= 0.0


def test_mutual_information_rejects_zero_noise():
    model = make_single_vertex_model()
    with pytest.raises(ValueError, match="floor"):
        acq.mutual_information(model, noise_variance=0.0)


@pytest.mark.parametrize(
    "n, noise, floor",
    [(6, 1e-8, 1e-6), (6, 0.3, 1e-6), (0, 0.3, 1e-6), (0, 1e-8, 1e-6)],
    ids=["below-floor", "above-floor", "empty-above-floor", "empty-below-floor"],
)
def test_propose_beta_floors_the_noise_variance(jenatton, n, noise, floor):
    # beta's information gain and noise term both use max(noise, floor), on
    # an empty model too (its information gain is 0)
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(31)
    pts = random_points(spec, index, rng, n)
    kern = AddTreeKernel.default(spec, index)
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=n), noise=noise))
    sched = acq.UcbSchedule(theta0=1.0, B0=1.0, delta=0.1, gamma_g=0.02, gamma_b=0.3, d=3)
    prop = acq.propose(model, sched, t=n + 1, n_starts=1, scan_budget=4, noise_floor=floor)
    s2 = max(noise, floor)
    expected = acq.beta(sched, n + 1, acq.mutual_information(model, s2), math.sqrt(s2))
    assert prop.beta == expected


def test_propose_prior_symmetric_tie_breaks_to_first_path(jenatton):
    model = empty_model(jenatton.spec, jenatton.index)
    sched = zero_rate_schedule(jenatton.spec.total_dimension)
    prop = acq.propose(model, sched, t=1)
    np.testing.assert_allclose(prop.path_ucb, prop.path_ucb[0])
    assert prop.chosen_leaf == 0
    # every vertex scored sqrt(beta) * prior component std
    sqrt_beta = math.sqrt(prop.beta)
    for vid, u in prop.vertex_ucb.items():
        prior_std = math.sqrt(model.kernel.component_prior_variance(vid))
        assert u == pytest.approx(sqrt_beta * prior_std, rel=1e-9)


def test_propose_untouched_branch_keeps_prior_components(jenatton):
    spec, index = jenatton.spec, jenatton.index
    kern = AddTreeKernel.default(spec, index)
    p = linearize(spec, index, 0, [0.0, 0.0])  # observe only leaf00
    model = gp.fit(kern, gp.Dataset.create([p], [jenatton(0, [0, 0])], noise=1e-6))
    for vid in ("n1", "leaf10", "leaf11"):
        mean, var = gp.component_posterior_batch(model, vid, np.array([[0.5]]))
        assert mean[0] == 0.0
        prior = kern.to_config()["params"][vid]["output_scale"]
        assert var[0] == pytest.approx(prior, rel=1e-12)


@pytest.mark.parametrize("kind", ["se", "matern32", "matern52"])
def test_propose_matches_grid_oracle(jenatton, kind):
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(17)
    kern = AddTreeKernel.default(spec, index, kind=kind, lengthscale=0.7)
    pts = random_points(spec, index, rng, 12)
    y = np.array([
        jenatton(p.active_leaf, np.concatenate([
            restrict(index, p, v) for v in index.leaf_paths[p.active_leaf]
        ]))
        for p in pts
    ])
    model = gp.fit(kern, gp.Dataset.create(pts, -y, noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    prop = acq.propose(model, sched, t=13)

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
        spec, index, kern, data = random_gp_instance(seed, n=15, noise=1e-3, max_dim=2, kind=kind)
        model = gp.fit(kern, data)
        prop = acq.propose(model, zero_rate_schedule(spec.total_dimension), t=16)
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
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(23)
    kern = AddTreeKernel.default(spec, index)
    pts = random_points(spec, index, rng, 9)
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=9), noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    a = acq.propose(model, sched, t=10)
    b = acq.propose(model, sched, t=10)
    assert a.chosen_leaf == b.chosen_leaf
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.path_ucb, b.path_ucb)
    for vid in a.vertex_ucb:
        assert a.vertex_ucb[vid] == b.vertex_ucb[vid]


def test_proposal_point_restricts_to_vertex_argmaxes(jenatton):
    spec, index = jenatton.spec, jenatton.index
    rng = np.random.default_rng(29)
    kern = AddTreeKernel.default(spec, index)
    pts = random_points(spec, index, rng, 6)
    model = gp.fit(kern, gp.Dataset.create(pts, rng.normal(size=6), noise=1e-6))
    sched = zero_rate_schedule(spec.total_dimension)
    prop = acq.propose(model, sched, t=7)
    point = linearize(spec, index, prop.chosen_leaf, prop.values)
    for vid in index.leaf_paths[prop.chosen_leaf]:
        np.testing.assert_array_equal(restrict(index, point, vid), prop.vertex_points[vid])
    assert prop.path_ucb[prop.chosen_leaf] == pytest.approx(
        sum(prop.vertex_ucb[v] for v in index.leaf_paths[prop.chosen_leaf])
    )


def test_propose_validates_budget(jenatton):
    model = empty_model(jenatton.spec, jenatton.index)
    sched = zero_rate_schedule(1)
    with pytest.raises(ValueError, match="budget"):
        acq.propose(model, sched, t=1, scan_budget=0)


def test_unit_sobol_scan_is_built_once_and_read_only():
    for dim, budget in [(1, 32), (2, 32), (3, 5), (2, 1)]:
        pts = acq._unit_sobol(dim, budget)
        m = max(1, math.ceil(math.log2(max(2, budget))))
        fresh = qmc.Sobol(d=dim, scramble=False).random_base2(m)[:budget]
        assert pts.tobytes() == fresh.tobytes()
        assert acq._unit_sobol(dim, budget) is pts
        assert not pts.flags.writeable
