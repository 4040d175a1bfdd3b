import copy
import itertools
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from flowincentives.admm import (
    OBJECTIVE_BLOCK_FLOATS,
    AdmmConfig,
    AdmmProblem,
    admm_iterate,
    beta_update,
    build_u_factor,
    gamma_subproblem,
    h_update,
    initial_state,
    polish_counts,
    relaxed_objective,
    residual_vectors,
    round_assignment,
    round_counts,
    run_admm,
    s_update,
    u_update,
    w_update,
    _volume,
)
import admm_reference
from conftest import per_driver_incidence, scipy_milp_cases
from flowincentives.errors import DivergenceError, InfeasibleModelError, InputError
from flowincentives.harness import generate_synthetic, prepare, realized_travel_time
from flowincentives.kernels import ProxRows, bpr_terms, gamma_solve
from flowincentives.network import Link, RoadNetwork


def small_problem(budget=4.0, seed=42, n_drivers=4):
    rng = np.random.default_rng(seed)
    n_cols, rows, k = 6, 4, 2
    a = rng.uniform(0.0, 1.0, size=(rows, n_cols))
    d = np.zeros((k, n_cols))
    d[0, :4] = 1.0
    d[1, 4:] = 1.0
    costs = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
    columns = [np.arange(4)] * (n_drivers - 1) + [np.arange(4, 6)]
    q = np.array([float(n_drivers - 1), 1.0])
    return AdmmProblem(
        a_matrix=a,
        d_matrix=d,
        costs=costs,
        q=q,
        budget=budget,
        t0_row=rng.uniform(0.05, 0.2, rows),
        w_row=rng.uniform(0.5, 3.0, rows),
        columns=columns,
    )


def augmented_lagrangian(problem, state, u, s, w, h, gamma, beta, rho, lambda_reg):
    """Independent evaluation of the full augmented Lagrangian."""
    p = problem
    f = float(np.sum(gamma * p.t0_row * (1.0 + 0.15 * (gamma / p.w_row) ** 4)))
    reg = -lambda_reg / 2.0 * float(np.sum(h * (h - 1.0)))
    r1 = s.sum(axis=1) - u
    r2 = w.sum(axis=0) - 1.0
    r3 = p.d_matrix @ u - p.q
    r4 = p.a_matrix @ u + p.background - gamma
    r5 = h - s
    r6 = float(p.costs @ u) + beta - p.budget
    r7 = w - s
    value = f + reg
    value += state.lam1 @ r1 + state.lam2 @ r2 + state.lam3 @ r3 + state.lam4 @ r4
    value += float(np.sum(state.lam5 * r5)) + state.lam6 * r6 + float(np.sum(state.lam7 * r7))
    value += (rho / 2.0) * (
        r1 @ r1 + r2 @ r2 + r3 @ r3 + r4 @ r4 + np.sum(r5 * r5) + r6 * r6 + np.sum(r7 * r7)
    )
    return value


def randomized_state(problem, seed):
    rng = np.random.default_rng(seed)
    state = initial_state(problem)
    n_cols, n_drivers = state.s_mat.shape
    rows = problem.a_matrix.shape[0]
    state.u = rng.normal(size=n_cols)
    state.s_mat = rng.normal(size=(n_cols, n_drivers))
    state.w_mat = rng.normal(size=(n_cols, n_drivers))
    state.h_mat = rng.uniform(0, 1, size=(n_cols, n_drivers))
    state.gamma = np.abs(rng.normal(size=rows))
    state.beta = float(rng.uniform(0, 1))
    state.lam1 = rng.normal(size=n_cols)
    state.lam2 = rng.normal(size=n_drivers)
    state.lam3 = rng.normal(size=problem.q.size)
    state.lam4 = rng.normal(size=rows)
    state.lam5 = rng.normal(size=(n_cols, n_drivers))
    state.lam6 = float(rng.normal())
    state.lam7 = rng.normal(size=(n_cols, n_drivers))
    return state


def numeric_gradient(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += eps
        down[i] -= eps
        g[i] = (f(up) - f(down)) / (2 * eps)
    return g


def test_config_validation():
    with pytest.raises(InputError):
        AdmmConfig(rho=1.0, lambda_reg=1.0)
    with pytest.raises(InputError):
        AdmmConfig(rho=0.3, lambda_reg=0.5)
    with pytest.raises(InputError):
        AdmmConfig(rho=0.0)
    with pytest.raises(InputError):
        AdmmConfig(max_iters=0)
    for bad in (1e3, 5000.0, "5000", True, None):
        with pytest.raises(InputError, match="max_iters must be an integer"):
            AdmmConfig(max_iters=bad)
    assert AdmmConfig(max_iters=np.int64(7)).max_iters == 7
    with pytest.raises(InputError):
        AdmmConfig(lambda_reg=-0.1)
    # a NaN compares false with every bound, and such a run would only
    # stop at max_iters
    for bad in (
        dict(rho=math.nan),
        dict(rho=math.inf),
        dict(lambda_reg=math.nan),
        dict(rho=math.inf, lambda_reg=math.inf),
        dict(residual_tol=math.nan),
        dict(residual_tol=math.inf),
        dict(residual_tol=-1e-4),
    ):
        with pytest.raises(InputError):
            AdmmConfig(**bad)
    assert AdmmConfig(residual_tol=0.0).residual_tol == 0.0


def test_problem_columns_must_be_whole_od_blocks():
    # small_problem's pairs own columns 0-3 and 4-5
    good = small_problem()
    for bad in ([], [0, 2], [0, 1, 2], [0, 1, 2, 3, 4], [4, 5, 5]):
        with pytest.raises(InputError):
            replace(good, columns=[np.arange(4), np.array(bad, dtype=int)])
    # an entry on pair k stands for q_k / n_k drivers
    assert np.array_equal(initial_state(good).weights, np.ones(4))
    per_pair = replace(good, columns=[np.arange(4), np.array([5, 4])])
    assert np.array_equal(initial_state(per_pair).weights, good.q)
    halves = replace(good, columns=[np.arange(4)] * 2 + [np.arange(4, 6)])
    assert np.array_equal(initial_state(halves).weights, [1.5, 1.5, 1.0])


def test_h_update_examples():
    # lambda_reg = 0 reduces to a box projection of S
    s = np.array([[1.4, -0.2, 0.6]])
    assert np.allclose(h_update(s, np.zeros_like(s), 1.0, 0.0), [[1.0, 0.0, 0.6]])
    # rho 2, reg 1: (2 * 0.6 - 0 - 0.5) / 1 = 0.7
    assert h_update(np.array([[0.6]]), np.zeros((1, 1)), 2.0, 1.0)[0, 0] == pytest.approx(0.7)


def bisect_gamma(m, lam, rho, t0, w, tol=1e-12):
    """Independent bisection oracle for the volume prox root."""

    def deriv(g):
        return t0 + 0.75 * t0 * g**4 / w**4 - lam + rho * (g - m)

    if deriv(0.0) >= 0:
        return 0.0
    lo, hi = 0.0, max(m + lam / rho, 1e-9)
    while deriv(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def prox_derivative(g, m, lam, rho, t0, w):
    return t0 + 0.75 * t0 * g**4 / w**4 - lam + rho * (g - m)


def test_gamma_subproblem_examples():
    # quadratic dominates for large rho: gamma -> target
    assert gamma_subproblem(5.0, 0.1, 1e9, 0.1, 10.0) == pytest.approx(5.0, abs=1e-6)
    # boundary optimum: derivative at zero is t0 > 0
    assert gamma_subproblem(0.0, 0.0, 1.0, 0.1, 10.0) == 0.0
    # root of 0.1 + 0.0000075 g^4 + g - 5
    got = gamma_subproblem(5.0, 0.0, 1.0, 0.1, 10.0)
    assert got == pytest.approx(bisect_gamma(5.0, 0.0, 1.0, 0.1, 10.0), abs=1e-9)


def test_gamma_subproblem_first_order_optimality():
    rng = np.random.default_rng(8)
    m = rng.uniform(-1.0, 20.0, 200)
    lam = rng.normal(0.0, 1.0, 200)
    t0 = rng.uniform(0.02, 0.5, 200)
    w = rng.uniform(0.3, 20.0, 200)
    rho = 0.7
    got = gamma_subproblem(m, lam, rho, t0, w)
    deriv = t0 + 0.75 * t0 * got**4 / w**4 - lam + rho * (got - m)
    ok = (np.abs(deriv) < 1e-8) | ((got == 0.0) & (deriv >= 0.0))
    assert ok.all()
    oracle = np.array([bisect_gamma(*args) for args in zip(m, lam, [rho] * 200, t0, w)])
    assert np.allclose(got, oracle, atol=1e-8)


@pytest.mark.parametrize("rho", [0.05, 0.3, 1.0, 10.0])
def test_gamma_solve_over_a_wide_range(rho):
    # volumes up to 1e3, duals up to 50 in size, narrow links and free-flow
    # times from 0.01 to 2; a third of the rows start far left of their
    # positive root (m < 0, held to rho |m| <= 20 so that lam >= 25 still
    # makes the derivative at 0 negative). The range stops there: at volumes
    # near 1e4 with rho = 1e3 the absolute 1e-10 stop on phi lies below
    # float64 resolution, and the loop runs to its 200-pass cap
    rng = np.random.default_rng(29)
    n = 6000
    m = rng.uniform(-50.0, 1000.0, n)
    lam = rng.uniform(-50.0, 50.0, n)
    far = np.arange(n) % 3 == 0
    m[far] = -rng.uniform(0.0, min(50.0, 20.0 / rho), far.sum())
    lam[far] = rng.uniform(25.0, 50.0, far.sum())
    t0 = rng.uniform(0.01, 2.0, n)
    w = np.exp(rng.uniform(np.log(0.05), np.log(20.0), n))
    got = gamma_solve(m, lam, rho, t0, w)
    deriv = prox_derivative(got, m, lam, rho, t0, w)
    assert (got >= 0.0).all()
    assert ((np.abs(deriv) < 1e-10) | ((got == 0.0) & (deriv >= 0.0))).all()
    assert (got[far] > 0.0).all()
    oracle = np.array([bisect_gamma(*args) for args in zip(m, lam, [rho] * n, t0, w)])
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_closed_forms_minimize_their_blocks():
    problem = small_problem()
    state = randomized_state(problem, 3)
    rho, lam_reg = 1.3, 0.0
    factor = build_u_factor(problem)

    u_star = u_update(state, problem, rho, factor)
    grad = numeric_gradient(
        lambda u: augmented_lagrangian(
            problem, state, u, state.s_mat, state.w_mat, state.h_mat, state.gamma, state.beta, rho, lam_reg
        ),
        u_star,
    )
    assert np.max(np.abs(grad)) < 1e-6

    w_star = w_update(state.s_mat, state.lam2, state.lam7, rho)
    grad = numeric_gradient(
        lambda w: augmented_lagrangian(
            problem, state, state.u, state.s_mat, w.reshape(w_star.shape), state.h_mat,
            state.gamma, state.beta, rho, lam_reg
        ),
        w_star.ravel(),
    )
    assert np.max(np.abs(grad)) < 1e-6

    s_star = s_update(state.u, state.h_mat, state.w_mat, state.lam1, state.lam5, state.lam7, rho)
    grad = numeric_gradient(
        lambda s: augmented_lagrangian(
            problem, state, state.u, s.reshape(s_star.shape), state.w_mat, state.h_mat,
            state.gamma, state.beta, rho, lam_reg
        ),
        s_star.ravel(),
    )
    assert np.max(np.abs(grad)) < 1e-6

    beta_star = beta_update(float(problem.costs @ state.u), state.lam6, rho, problem.budget)
    slope = state.lam6 + rho * (float(problem.costs @ state.u) + beta_star - problem.budget)
    assert (abs(slope) < 1e-9) or (beta_star == 0.0 and slope >= 0.0)


def masked_augmented_lagrangian(problem, state, u, s, w, h, gamma, beta, rho, lambda_reg):
    """Independent evaluation of the masked augmented Lagrangian: one entry
    per offer column on its own OD pair, the per-driver terms summed over
    each pair's q_k identical drivers."""
    p = problem
    pair = np.argmax(p.d_matrix > 0, axis=0)
    q_col = p.q[pair]
    f = float(np.sum(gamma * p.t0_row * (1.0 + 0.15 * (gamma / p.w_row) ** 4)))
    reg = -lambda_reg / 2.0 * float(np.sum(q_col * h * (h - 1.0)))
    r1 = q_col * s - u
    r2 = np.array([w[pair == k].sum() for k in range(p.q.size)]) - 1.0
    r3 = p.d_matrix @ u - p.q
    r4 = p.a_matrix @ u + p.background - gamma
    r5 = h - s
    r6 = float(p.costs @ u) + beta - p.budget
    r7 = w - s
    value = f + reg + state.lam1 @ r1 + state.lam3 @ r3 + state.lam4 @ r4 + state.lam6 * r6
    value += (rho / 2.0) * (r1 @ r1 + r3 @ r3 + r4 @ r4 + r6 * r6)
    value += p.q @ (state.lam2 * r2 + (rho / 2.0) * r2 * r2)
    value += q_col @ (state.lam5 * r5 + (rho / 2.0) * r5 * r5)
    value += q_col @ (state.lam7 * r7 + (rho / 2.0) * r7 * r7)
    return value


def test_masked_closed_forms_minimize_their_blocks():
    # the length-n_cols block updates at class weights q = (4, 1)
    problem = small_problem(n_drivers=5)
    rng = np.random.default_rng(9)
    state = initial_state(problem, masked=True)
    n_cols, rows = problem.num_columns, problem.a_matrix.shape[0]
    assert state.s_mat.shape == (n_cols,) and np.array_equal(state.weights, [4, 4, 4, 4, 1, 1])
    for name in ("u", "s_mat", "w_mat", "lam1", "lam5", "lam7"):
        setattr(state, name, rng.normal(size=n_cols))
    state.h_mat = rng.uniform(0, 1, size=n_cols)
    state.gamma = np.abs(rng.normal(size=rows))
    state.beta = float(rng.uniform(0, 1))
    state.lam2 = rng.normal(size=problem.q.size)
    state.lam3 = rng.normal(size=problem.q.size)
    state.lam4 = rng.normal(size=rows)
    state.lam6 = float(rng.normal())
    rho, lam_reg = 1.3, 0.0

    def lagrangian(**moved):
        primal = dict(u=state.u, s=state.s_mat, w=state.w_mat, h=state.h_mat)
        primal.update(moved)
        return masked_augmented_lagrangian(
            problem, state, gamma=state.gamma, beta=state.beta, rho=rho, lambda_reg=lam_reg, **primal
        )

    u_star = u_update(state, problem, rho, build_u_factor(problem))
    assert np.max(np.abs(numeric_gradient(lambda u: lagrangian(u=u), u_star))) < 1e-6
    w_star = w_update(state.s_mat, state.lam2, state.lam7, rho, state.classes, state.pair_divisor)
    assert np.max(np.abs(numeric_gradient(lambda w: lagrangian(w=w), w_star))) < 1e-6
    s_star = s_update(
        state.u, state.h_mat, state.w_mat, state.lam1, state.lam5, state.lam7, rho, state.weights,
        state.s_divisor,
    )
    assert np.max(np.abs(numeric_gradient(lambda s: lagrangian(s=s), s_star))) < 1e-6


def test_masked_layout_needs_each_column_on_one_pair():
    good = small_problem()
    doubled = good.d_matrix.copy()
    doubled[0, 0] = 2.0  # on one pair, but the masked sweep reads D^T x as x[classes]
    for d_matrix in (good.d_matrix[:1], np.vstack([good.d_matrix, np.ones(6)]), doubled):
        problem = replace(good, d_matrix=d_matrix, q=np.ones(d_matrix.shape[0]), columns=[np.arange(4)])
        with pytest.raises(InputError, match="exactly one OD pair"):
            initial_state(problem, masked=True)


def test_s_update_rank_one_identity():
    problem = small_problem()
    state = randomized_state(problem, 5)
    rho = 0.9
    s_star = s_update(state.u, state.h_mat, state.w_mat, state.lam1, state.lam5, state.lam7, rho)
    n = s_star.shape[1]
    lhs = s_star @ (rho * np.ones((n, n)) + 2.0 * rho * np.eye(n))
    rhs = (
        rho * np.outer(state.u, np.ones(n))
        + state.lam5
        + rho * state.h_mat
        + state.lam7
        + rho * state.w_mat
        - np.outer(state.lam1, np.ones(n))
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_s_update_rank_one_identity_at_class_weights():
    # one column per OD pair, weighted by its drivers: rho w 1^T replaces
    # the all-ones block of the per-driver identity
    problem = small_problem(n_drivers=5)
    classes = replace(problem, columns=[np.arange(4), np.arange(4, 6)])
    state = randomized_state(classes, 5)
    w = state.weights
    assert np.array_equal(w, [4.0, 1.0])
    rho = 0.9
    s_new = s_update(state.u, state.h_mat, state.w_mat, state.lam1, state.lam5, state.lam7, rho, w)
    n = s_new.shape[1]
    lhs = s_new @ (rho * np.outer(w, np.ones(n)) + 2.0 * rho * np.eye(n))
    rhs = (
        rho * np.outer(state.u, np.ones(n))
        + state.lam5
        + rho * state.h_mat
        + state.lam7
        + rho * state.w_mat
        - np.outer(state.lam1, np.ones(n))
    )
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_dual_updates_match_residuals_exactly():
    problem = small_problem()
    cfg = AdmmConfig(rho=1.7, lambda_reg=0.5, max_iters=10, seed=0)
    state = initial_state(problem)
    factor = build_u_factor(problem)
    rng = np.random.default_rng(1)
    for _ in range(6):
        before = copy.deepcopy(state)
        order = tuple(rng.permutation(2))
        admm_iterate(state, problem, cfg, factor, order)
        r1, r2, r3, r4, r5, r6, r7 = residual_vectors(state, problem)
        rho = cfg.rho
        assert np.allclose(state.lam1 - before.lam1, rho * r1, atol=1e-12)
        assert np.allclose(state.lam2 - before.lam2, rho * r2, atol=1e-12)
        assert np.allclose(state.lam3 - before.lam3, rho * r3, atol=1e-12)
        assert np.allclose(state.lam4 - before.lam4, rho * r4, atol=1e-12)
        assert np.allclose(state.lam5 - before.lam5, rho * r5, atol=1e-12)
        assert state.lam6 - before.lam6 == pytest.approx(rho * float(r6[0]), abs=1e-12)
        assert np.allclose(state.lam7 - before.lam7, rho * r7, atol=1e-12)


def test_h_stays_in_box_and_matches_clamp_when_unregularized():
    problem = small_problem()
    cfg = AdmmConfig(rho=1.0, lambda_reg=0.0, max_iters=50, seed=2)
    state = initial_state(problem)
    factor = build_u_factor(problem)
    for _ in range(20):
        admm_iterate(state, problem, cfg, factor)
        assert np.all(state.h_mat >= 0.0) and np.all(state.h_mat <= 1.0)
    # with no regularizer the step is exactly a box-projected S
    h = h_update(state.s_mat, state.lam5, cfg.rho, 0.0)
    assert np.allclose(h, np.clip(state.s_mat - state.lam5 / cfg.rho, 0.0, 1.0))


def test_single_driver_single_column_fixed_point():
    # one driver, one route, only the $0 offer: S must converge to 1
    a = np.array([[0.5], [0.5]])
    d = np.array([[1.0]])
    problem = AdmmProblem(
        a_matrix=a,
        d_matrix=d,
        costs=np.array([0.0]),
        q=np.array([1.0]),
        budget=10.0,
        t0_row=np.array([0.1, 0.1]),
        w_row=np.array([1.0, 1.0]),
        columns=[np.array([0])],
    )
    res = run_admm(problem, AdmmConfig(rho=1.0, lambda_reg=0.0, max_iters=2000, residual_tol=1e-8))
    assert res.converged
    assert res.s_relaxed[0] == pytest.approx(1.0, abs=1e-6)
    assert res.u[0] == pytest.approx(1.0, abs=1e-6)


def test_residuals_trend_down_over_seeds():
    # at lambda 0.5 some of these runs never converge and oscillate (seed 12
    # among them), so one sampled sweep reads a crest or a trough by phase;
    # the largest residual norm of the second half must be below that of
    # the first, on every seed
    t_half = 150
    for seed in range(5):
        problem = small_problem(seed=seed + 10)
        cfg = AdmmConfig(rho=1.0, lambda_reg=0.5, max_iters=2 * t_half, residual_tol=0.0, seed=seed)
        norms = np.linalg.norm(run_admm(problem, cfg).residuals, axis=1)
        assert norms[t_half:].max() < norms[:t_half].max(), seed


def test_zero_demand_pairs_carry_no_offer_mass():
    # at penetration 0.1 the 100-driver instance leaves 6 of its 13 OD pairs
    # without drivers; their columns stay in the run at weight 0
    problem = synthetic_problem(nodes=40, drivers=100, penetration=0.1)
    empty = np.nonzero(problem.q == 0)[0]
    assert (empty.size, problem.q.size) == (6, 13)
    res = run_admm(problem)
    assert res.converged
    for k in empty:
        assert abs(res.u[problem.d_matrix[k] > 0].sum()) < 1e-4, k


def test_relaxation_at_2400_drivers_converges():
    # 1,596 offer columns over 266 OD pairs; about 1,000 sweeps
    problem = synthetic_problem(nodes=800, drivers=2400)
    cfg = AdmmConfig()
    res = run_admm(problem, cfg)
    assert res.converged and res.iterations < cfg.max_iters
    assert np.all(res.residuals[-1] < cfg.residual_tol)


def test_zero_budget_concentrates_on_free_offers():
    problem = small_problem(budget=0.0)
    res = run_admm(problem, AdmmConfig(rho=1.0, lambda_reg=0.0, max_iters=4000, residual_tol=1e-7))
    assert res.converged
    assert float(problem.costs @ res.u) == pytest.approx(0.0, abs=1e-5)
    paid = problem.costs > 0
    assert np.all(res.u[paid] < 1e-5)


def projection_kkt_violation(x, y, blocks, q, costs, budget, tol):
    # worst violation of the KKT conditions of min 1/2 |x - y|^2 subject to
    # per-block sums = q, x >= 0 and costs @ x <= budget. Stationarity
    # x - y + nu_k + mu * costs - z = 0 defines the bound multipliers z; the
    # rest is z >= 0, mu >= 0, z = 0 on the support and mu = 0 when the budget
    # row is slack (complementary slackness)
    block_of = np.empty(x.size, dtype=int)
    for k, cols in enumerate(blocks):
        block_of[cols] = k
    member = np.eye(len(blocks))[block_of]
    slack = budget - float(costs @ x)
    primal = max(
        max(abs(float(x[cols].sum()) - qk) for cols, qk in zip(blocks, q)),
        -float(x.min()),
        -slack,
    )
    r = y - x
    support = x > tol
    # on the support y - x = nu_k + mu * costs, fitted by least squares
    nu = np.linalg.lstsq(member[support], r[support])[0]
    mu = 0.0
    if slack <= tol:
        design = np.column_stack([member, costs])[support]
        fit, _, rank, _ = np.linalg.lstsq(design, r[support])
        if rank > len(blocks):
            nu, mu = fit[:-1], float(fit[-1])
        else:
            # mu is not identified: each block's support columns share one
            # cost cbar_k, so the support fixes only nu_k + mu * cbar_k. Off
            # the support z_j moves with slope costs_j - cbar_k in mu; take the
            # smallest mu >= 0 with every such z_j >= 0 (any optimum admits it)
            cbar = np.linalg.lstsq(member[support], costs[support])[0]
            slope = costs - cbar[block_of]
            rising = ~support & (slope > 0)
            mu = max(0.0, float(np.max((r - nu[block_of])[rising] / slope[rising], initial=0.0)))
            nu = nu - mu * cbar
    z = nu[block_of] + mu * costs - r
    return max(primal, float(np.abs(z[support]).max()), -float(z.min()), -mu)


def test_reference_projection_is_exact():
    # trust anchor for the reference solver: its feasible-set projection must
    # pass a solver-free KKT certificate (projection_kkt_violation) on every
    # draw and on both branches of project_feasible: the early return when
    # the demand-only projection meets the budget, and the bisection on mu
    # when it does not. The last case (budget 6) keeps the budget active with
    # each block's support at one cost, so the support does not identify mu.
    # Wrong points must be rejected, each by a different condition. An SLSQP
    # solve is an extra check where it reports success; its stopping rule
    # depends on the scipy version (status 8 on draw 2 under scipy 1.17.1)
    from scipy.optimize import minimize

    from pg_reference import project_demand_blocks, project_feasible

    tol = 1e-9
    rng = np.random.default_rng(17)
    blocks = [np.arange(0, 4), np.arange(4, 9)]
    q = np.array([3.0, 2.0])
    costs = np.array([0.0, 2.0, 10.0, 2.0, 0.0, 1.0, 5.0, 10.0, 0.0])
    cases = [(rng.normal(0.0, 2.0, 9), 7.0) for _ in range(5)]
    cases.append((np.array([-5.0, 5.0, 20.0, 5.0, 5.0, -5.0, -5.0, -5.0, 5.0]), 6.0))
    budget_active = []
    for y, budget in cases:
        mine = project_feasible(y, blocks, q, costs, budget)
        assert projection_kkt_violation(mine, y, blocks, q, costs, budget, tol) <= tol

        # same test as project_feasible's early return
        demand_only = project_demand_blocks(y, blocks, q)
        budget_active.append(float(costs @ demand_only) > budget + 1e-12)
        # 1e-6 moved from the largest entry of block 1 to its cheapest other
        # column keeps block sums, bounds and budget, but no multipliers fit it
        block = blocks[1]
        src = block[np.argmax(mine[block])]
        rest = block[block != src]
        dst = rest[np.argmin(costs[rest])]
        shifted = mine.copy()
        shifted[src] -= 1e-6
        shifted[dst] += 1e-6
        assert shifted.min() >= 0.0 and float(costs @ shifted) <= budget
        # the projection with the largest column barred is stationary on its
        # own support: z >= 0 at the barred column rejects it
        barred = y.copy()
        barred[np.argmax(mine)] = -1e3
        wrong = [shifted, project_feasible(barred, blocks, q, costs, budget)]
        if budget_active[-1]:
            wrong.append(demand_only)  # breaks the budget row
        else:
            # the projection onto costs @ x >= budget sits on the budget row
            # with mu < 0
            wrong.append(project_feasible(y, blocks, q, -costs, -budget))
        for x in wrong:
            assert projection_kkt_violation(x, y, blocks, q, costs, budget, tol) > tol

        cons = [
            {"type": "eq", "fun": lambda x, c=cols, s=qk: x[c].sum() - s}
            for cols, qk in zip(blocks, q)
        ]
        cons.append({"type": "ineq", "fun": lambda x: budget - costs @ x})
        ref = minimize(
            lambda x: 0.5 * np.sum((x - y) ** 2),
            np.clip(y, 0, None),
            jac=lambda x: x - y,
            bounds=[(0, None)] * 9,
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if ref.success:
            assert np.allclose(mine, ref.x, atol=1e-6)
    assert set(budget_active[:5]) == {False, True}
    assert budget_active[5]


def test_reference_projection_rejects_budget_below_cheapest_cost():
    # one block, costs (1, 3), q = 2: no demand-feasible point costs less
    # than 2, so budget 1 leaves the feasible set empty
    from pg_reference import project_feasible

    blocks = [np.arange(2)]
    q = np.array([2.0])
    costs = np.array([1.0, 3.0])
    for y in (np.zeros(2), np.ones(2)):
        with pytest.raises(ValueError, match="cheapest"):
            project_feasible(y, blocks, q, costs, 1.0)
    # at exactly the cheapest cost the feasible set is the single point (2, 0)
    assert np.allclose(project_feasible(np.ones(2), blocks, q, costs, 2.0), [2.0, 0.0])


def test_relaxed_objective_matches_reference_solver():
    from pg_reference import solve_reference

    scenario = generate_synthetic(nodes=6, richness=2, tightness=1.3, drivers=12, seed=21)
    pipe = prepare(scenario)
    problem = AdmmProblem(
        a_matrix=pipe.a_matrix,
        d_matrix=pipe.demand.d_matrix,
        costs=pipe.costs,
        q=pipe.demand.q,
        budget=15.0,
        t0_row=pipe.t0_row,
        w_row=pipe.w_row,
        columns=pipe.columns,
        background=pipe.background,
    )
    res = run_admm(problem, AdmmConfig(rho=1.0, lambda_reg=0.0, max_iters=5000, residual_tol=1e-5))
    blocks = [np.nonzero(pipe.demand.d_matrix[k] > 0)[0] for k in range(pipe.demand.q.size)]
    _, f_ref = solve_reference(
        pipe.a_matrix, pipe.background, blocks, pipe.demand.q, pipe.costs, 15.0,
        pipe.t0_row, pipe.w_row
    )
    f_admm = relaxed_objective(res.u, problem)
    assert abs(f_admm - f_ref) / f_ref < 0.01


def test_u_fixed_point_at_convergence():
    problem = small_problem()
    cfg = AdmmConfig(rho=1.0, lambda_reg=0.0, max_iters=6000, residual_tol=1e-8, seed=4)
    res = run_admm(problem, cfg)
    assert res.converged
    factor = build_u_factor(problem)
    u_again = u_update(res.state, problem, cfg.rho, factor)
    assert np.max(np.abs(u_again - res.state.u)) < 1e-6


def synthetic_problem(nodes, drivers, penetration=None):
    """The README generator (seed 7) with budget 100."""
    scenario = generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7)
    return pipeline_problem(prepare(scenario, penetration=penetration))


def pipeline_problem(pipe):
    """The admm problem of a prepared pipeline, with budget 100."""
    return AdmmProblem(
        a_matrix=pipe.a_matrix,
        d_matrix=pipe.demand.d_matrix,
        costs=pipe.costs,
        q=pipe.demand.q,
        budget=100.0,
        t0_row=pipe.t0_row,
        w_row=pipe.w_row,
        columns=pipe.columns,
        background=pipe.background,
    )


def trunk_scenario(group=None, nodes=160, drivers=480):
    """The README instance (480 drivers by default) with a third route for
    each OD pair, o -> t -> u -> d over a trunk link t -> u that ``group``
    consecutive pairs share (every pair when None), so routes of different
    pairs overlap and A joins their columns. Each new link's capacity is
    an even three-way share of its drivers at tightness 1.3."""
    base = generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7)
    n_od = len(base.od_pairs)
    group = group or n_od
    per_od = np.bincount([k for k, _, _ in base.demand], [c for _, _, c in base.demand], n_od)
    links, names = list(base.net.links), list(base.net.nodes)

    def add(tail, head, t0, users):
        links.append(Link(len(links), tail, head, t0, max(0.5, users / 3 / 1.3), t0 * 50.0))

    for g in range(0, n_od, group):
        names += [f"t{g}", f"u{g}"]
        add(f"t{g}", f"u{g}", 0.05, per_od[g : g + group].sum())
    for k, (origin, dest) in enumerate(base.od_pairs):
        g = k - k % group
        add(origin, f"t{g}", 0.04, per_od[k])
        add(f"u{g}", dest, 0.04, per_od[k])
    return replace(base, net=RoadNetwork(nodes=tuple(names), links=tuple(links)))


def trunk_problem(group=None):
    """The admm problem of the 480-driver ``trunk_scenario``."""
    return pipeline_problem(prepare(trunk_scenario(group)))


def readme_problem():
    """The README generator at 6 drivers (seed 7) with budget 100."""
    return synthetic_problem(nodes=8, drivers=6)


def hundred_driver_problem():
    """The README generator at 100 drivers (seed 7) with budget 100."""
    return synthetic_problem(nodes=40, drivers=100)


STATE_ARRAYS = (
    "u", "s_mat", "w_mat", "h_mat", "gamma", "beta",
    "lam1", "lam2", "lam3", "lam4", "lam5", "lam6", "lam7",
)


def frozen_prox(m, lam, rho, t0, w, quart=None):
    """The frozen prox, called as the sweep calls the package's: the
    problem's precomputed constant comes as ``quart`` and is ignored."""
    return admm_reference.gamma_solve(m, lam, rho, t0, w)


def jittered_state(problem, jitter=0.05, seed=3):
    """The uniform start with each driver's mass perturbed and renormalized,
    so no two columns of one OD pair carry equal mass."""
    state = initial_state(problem)
    rng = np.random.default_rng(seed + 7)
    for n, allowed in enumerate(problem.columns):
        mass = state.s_mat[allowed, n] + rng.uniform(0.0, jitter, size=len(allowed))
        state.s_mat[allowed, n] = mass / mass.sum()
    state.u = state.s_mat.sum(axis=1)
    state.w_mat = state.s_mat.copy()
    state.h_mat = state.s_mat.copy()
    state.gamma = problem.a_matrix @ state.u + problem.background
    state.beta = max(0.0, problem.budget - float(problem.costs @ state.u))
    return state


@pytest.mark.parametrize("make_problem", [small_problem, readme_problem])
@pytest.mark.parametrize("rho, lambda_reg", [(1.0, 0.5), (1.0, 0.0)])
@pytest.mark.parametrize("orders", ["block 0 first", "block 1 first", "permuted"])
def test_sweep_is_bit_identical_to_frozen_reference(make_problem, rho, lambda_reg, orders, monkeypatch):
    # the package's sweep against the frozen plain sweep at one column per
    # driver: every float of every iterate and both histories, over 200
    # sweeps from a jittered start, with the regularizer on and off (the
    # default). The package's prox is a different Newton with the same stop
    # rule (checked against the frozen one below), so the sweep runs with
    # the frozen prox and every other block is held to the bit
    monkeypatch.setattr("flowincentives.admm.gamma_solve", frozen_prox)
    problem = make_problem()
    cfg = AdmmConfig(rho=rho, lambda_reg=lambda_reg)
    factor = build_u_factor(problem)
    state = jittered_state(problem)
    ref = copy.deepcopy(state)
    rng = np.random.default_rng(4)
    fixed = {"block 0 first": (0, 1), "block 1 first": (1, 0)}
    for _ in range(200):
        order = fixed.get(orders) or tuple(rng.permutation(2))
        admm_iterate(state, problem, cfg, factor, order)
        admm_reference.sweep(ref, problem, rho, lambda_reg, factor, order)
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert state.iteration == ref.iteration == 200
    assert np.array_equal(state.residual_history, ref.residual_history)
    assert np.array_equal(state.objective_history, ref.objective_history)


def plain_masked_run(problem, cfg, factor=None):
    """The masked iteration without acceleration: ``admm_iterate`` in
    ``run_admm``'s block order from its start, to the same stop test."""
    if factor is None:
        factor = build_u_factor(problem)
    state = initial_state(problem, masked=True)
    for _ in range(cfg.max_iters):
        if admm_iterate(state, problem, cfg, factor) < cfg.residual_tol:
            break
    return state


@pytest.mark.parametrize(
    "make_problem, lambda_reg, max_iters",
    [
        (small_problem, 0.0, 3000),
        (small_problem, 0.5, 3000),
        (readme_problem, 0.0, 3000),
        # columns 0 and 3 of the README problem (the $0 offer on either
        # route) are exact duplicates; at lambda 0.5 the run never
        # converges, and rounding alone decides which of the two the
        # regularizer fills: a 1e-16 nudge to lam1 of the per-driver run
        # moves its u by 1e-9 within 95 sweeps and by 1 within 289. Any
        # two summation orders part that way, so compare the first 40 sweeps
        (readme_problem, 0.5, 40),
        # 78 columns over 13 OD pairs, 76 sweeps
        (hundred_driver_problem, 0.0, 3000),
    ],
)
def test_class_run_matches_per_driver_iteration(make_problem, lambda_reg, max_iters, monkeypatch):
    # the masked iteration run_admm accelerates carries one q_k-weighted
    # entry per offer column, on its own OD pair only; the frozen masked
    # per-driver loop, one unit-weight driver per problem.columns entry, in
    # the same fixed block order and with the same prox, must tell the same
    # story
    monkeypatch.setattr("flowincentives.admm.gamma_solve", frozen_prox)
    problem = make_problem()
    cfg = AdmmConfig(rho=1.0, lambda_reg=lambda_reg, max_iters=max_iters)
    factor = build_u_factor(problem)
    masked = plain_masked_run(problem, cfg, factor)
    state = admm_reference.masked_start(problem)
    for _ in range(cfg.max_iters):
        admm_reference.masked_sweep(state, problem, cfg.rho, cfg.lambda_reg, factor, (0, 1))
        if np.max(state.residual_history[-1]) < cfg.residual_tol:
            break
    assert masked.iteration == state.iteration
    assert np.max(np.abs(masked.u - state.u)) < 1e-9
    # relative to each residual's largest value: the first sweeps leave
    # some norms at rounding level, where any summation order differs
    per_driver = np.array(state.residual_history)
    assert np.all(np.abs(np.array(masked.residual_history) - per_driver) <= 1e-9 * per_driver.max(axis=0))
    assert np.allclose(masked.objective_history, state.objective_history, rtol=1e-9, atol=0.0)
    assert masked.s_mat.shape == (problem.num_columns,)


@pytest.mark.parametrize(
    "make_problem, fewer",
    [
        (small_problem, False),
        (readme_problem, False),
        (hundred_driver_problem, True),
        (lambda: synthetic_problem(nodes=160, drivers=480), True),
        (trunk_problem, True),
    ],
    ids=["small", "readme", "100 drivers", "480 drivers", "one trunk"],
)
def test_acceleration_keeps_the_answer(make_problem, fewer):
    # run_admm extrapolates between sweeps but stops on, and returns, a
    # plain sweep: its last residuals are those of the state it returns,
    # and its relaxed objective is the plain iteration's to within the
    # tolerance both stop at
    problem = make_problem()
    cfg = AdmmConfig()
    result = run_admm(problem, cfg)
    assert result.converged
    state = result.state
    parts = zip(residual_vectors(state, problem), state.split(state.residual_scale))
    recomputed = [np.linalg.norm(part * scale) for part, scale in parts]
    assert np.allclose(result.residuals[-1], recomputed, rtol=1e-9, atol=1e-12)
    plain = plain_masked_run(problem, cfg)
    want = relaxed_objective(plain.u, problem)
    assert abs(relaxed_objective(result.u, problem) - want) <= 1e-4 * want
    assert result.anderson_steps > 0
    assert result.anderson_steps + result.anderson_restarts == result.iterations - 2
    if fewer:
        assert result.iterations < plain.iteration


@pytest.mark.parametrize(
    "make_problem, cfg",
    [
        (small_problem, AdmmConfig(lambda_reg=0.0)),
        (small_problem, AdmmConfig(lambda_reg=0.5)),
        (readme_problem, AdmmConfig()),
        (hundred_driver_problem, AdmmConfig()),
        (hundred_driver_problem, AdmmConfig(rho=1.7)),
        (lambda: synthetic_problem(nodes=160, drivers=480), AdmmConfig()),
        (trunk_problem, AdmmConfig()),
    ],
    ids=["small", "small lambda 0.5", "readme", "100 drivers", "100 drivers rho 1.7", "480 drivers", "one trunk"],
)
def test_accelerated_run_is_bit_identical_to_frozen_reference(make_problem, cfg):
    # run_admm sweeps and extrapolates in place, in one vector the state
    # owns; the frozen run allocates every iterate. Every float of the
    # answer and both histories must agree, and so must every count
    problem = make_problem()
    got = run_admm(problem, cfg)
    want = admm_reference.accelerated_run(problem, cfg, build_u_factor(problem))
    for name in ("u", "s_relaxed", "residuals", "objectives"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    counts = ("iterations", "converged", "anderson_steps", "anderson_restarts")
    assert [getattr(got, name) for name in counts] == [getattr(want, name) for name in counts]
    assert got.anderson_steps > 0


def test_run_reads_no_seed_and_forms_the_volume_once_per_sweep(monkeypatch):
    # every sweep runs block 0 then block 1, so the config's seed changes
    # nothing, and block 1's A u + bg at the new u serves the residuals:
    # one volume per sweep, plus the one initial_state forms
    problem = hundred_driver_problem()
    calls = []

    def counted(*args):
        calls.append(None)
        return _volume(*args)

    monkeypatch.setattr("flowincentives.admm._volume", counted)
    first = run_admm(problem, AdmmConfig(seed=0))
    assert first.converged and len(calls) == first.iterations + 1
    again = run_admm(problem, AdmmConfig(seed=6))
    assert again.iterations == first.iterations
    assert np.array_equal(again.u, first.u)
    assert np.array_equal(again.residuals, first.residuals)


def zero_edge_problem():
    """small_problem at 5 drivers with A's last row and last column all zero."""
    good = small_problem(n_drivers=5)
    a = good.a_matrix.copy()
    a[-1, :] = 0.0
    a[:, -1] = 0.0
    return replace(good, a_matrix=a, background=np.linspace(0.5, 2.0, a.shape[0]))


@pytest.mark.parametrize("make_problem", [readme_problem, hundred_driver_problem, zero_edge_problem])
def test_masked_products_match_dense_formulas(make_problem):
    # the masked u step, volume and demand residual work from A's nonzeros
    # and per-class gathers; at random duals they must agree with the dense
    # products the per-driver layout keeps. The zero edges of A check that
    # the sums keep A's full row and column counts
    p = make_problem()
    state = initial_state(p, masked=True)
    rng = np.random.default_rng(11)
    n_cols, rows = p.num_columns, p.a_matrix.shape[0]
    state.u, state.s_mat, state.lam1 = rng.normal(size=(3, n_cols))
    state.gamma = np.abs(rng.normal(size=rows))
    state.beta = float(rng.uniform(0, 1))
    state.lam3 = rng.normal(size=p.q.size)
    state.lam4 = rng.normal(size=rows)
    state.lam6 = float(rng.normal())
    rho = 1.3
    factor = build_u_factor(p)
    rhs = (
        (state.lam1 - p.d_matrix.T @ state.lam3 - p.a_matrix.T @ state.lam4 - state.lam6 * p.costs)
        / rho
        + state.weights * state.s_mat
        + p.d_matrix.T @ p.q
        + p.a_matrix.T @ (state.gamma - p.background)
        + (p.budget - state.beta) * p.costs
    )
    _, _, demand, volume, *_ = residual_vectors(state, p)
    got = {"u": u_update(state, p, rho, factor), "demand": demand, "volume": volume}
    want = {
        "u": factor @ rhs,
        "demand": p.d_matrix @ state.u - p.q,
        "volume": p.a_matrix @ state.u + p.background - state.gamma,
    }
    for name, value in want.items():
        assert got[name].shape == value.shape, name
        assert np.max(np.abs(got[name] - value)) <= 1e-12 * np.max(np.abs(value)), name


def interleaved_problem():
    """Three OD pairs on interleaved columns; A joins pairs 0 and 2 into one
    block of 4 columns, and pair 1 is a block of 2."""
    rng = np.random.default_rng(5)
    a = np.zeros((4, 6))
    a[0, [0, 2, 4]] = rng.uniform(0.1, 1.0, 3)
    a[1, [1, 3]] = rng.uniform(0.1, 1.0, 2)
    a[2, 5] = 1.0
    a[3, [0, 4]] = 0.3
    d = np.zeros((3, 6))
    d[0, [0, 2]] = d[1, [1, 3]] = d[2, [4, 5]] = 1.0
    return AdmmProblem(
        a_matrix=a,
        d_matrix=d,
        costs=np.array([0.0, 1.0, 2.0, 0.0, 1.0, 3.0]),
        q=np.array([4.0, 2.0, 4.0]),
        budget=10.0,
        t0_row=rng.uniform(0.05, 0.2, 4),
        w_row=rng.uniform(0.5, 3.0, 4),
        columns=[[0, 2]] * 4 + [[1, 3]] * 2 + [[4, 5]] * 4,
    )


@pytest.mark.parametrize(
    "make_problem, blocks, largest",
    [
        (small_problem, 1, 6),  # A is dense: one block over every column
        (readme_problem, 2, 6),  # one block per OD pair
        (hundred_driver_problem, 13, 6),
        (zero_edge_problem, 1, 6),  # a column with no nonzero in A
        (interleaved_problem, 2, 4),  # blocks of two sizes, not contiguous
        (trunk_problem, 1, 477),  # one trunk shared by every pair
        (lambda: trunk_problem(group=8), 7, 72),  # one trunk per 8 pairs
    ],
    ids=["small", "readme", "100 drivers", "zero edge", "interleaved", "one trunk", "trunk per 8"],
)
def test_u_factor_matches_dense_inverse(make_problem, blocks, largest):
    # the block inverses with the Sherman-Morrison step for c c^T must
    # apply the inverse of the whole dense M
    p = make_problem()
    factor = build_u_factor(p)
    dense = np.linalg.inv(
        np.eye(p.num_columns)
        + p.d_matrix.T @ p.d_matrix
        + p.a_matrix.T @ p.a_matrix
        + np.outer(p.costs, p.costs)
    )
    assert (factor.blocks, factor.largest_block) == (blocks, largest)
    rng = np.random.default_rng(19)
    for x in rng.normal(size=(5, p.num_columns)):
        want = dense @ x
        assert np.max(np.abs(factor @ x - want)) <= 1e-12 * np.max(np.abs(want))


def test_u_factor_is_built_without_a_dense_matrix():
    # 480 drivers: A is 318 x 318, and the factor's 53 blocks of 6 columns
    # must be built in less memory than one dense 318 x 318 array
    p = synthetic_problem(nodes=160, drivers=480)
    assert p.num_columns == 318
    tracemalloc.start()
    try:
        factor = build_u_factor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (factor.blocks, factor.largest_block) == (53, 6)
    assert peak < 318**2 * 8


def test_u_factor_on_shared_links_fits_in_the_dense_inverse_memory():
    # one trunk joins all 477 columns into one block, the dense case: the
    # build may hold no more than the dense M and its inverse did, plus ten
    # index or value arrays over the nonzeros of [D; A]
    p = trunk_problem()
    n, nonzeros = p.num_columns, p.a_nonzeros[0].size + p.num_columns
    build_u_factor(p)
    tracemalloc.start()
    try:
        factor = build_u_factor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (factor.blocks, factor.largest_block) == (1, n)
    assert peak <= 2 * n * n * 8 + 10 * nonzeros * 8


def test_relaxation_on_shared_links_converges():
    # one trunk joins every OD pair's columns, so the u step applies one
    # dense 477-column block; the default run must converge, in its sweeps
    res = run_admm(trunk_problem())
    assert res.converged and res.iterations == 658
    assert np.all(res.residuals[-1] < AdmmConfig.residual_tol)


def assert_prox_matches_compressed_newton(m, lam, rho, t0, w):
    """The every-row prox equals the frozen compressed Newton to the bit,
    and every row with phi(0) >= 0 comes back exactly 0."""
    got = gamma_solve(m, lam, rho, t0, w)
    assert np.array_equal(got, admm_reference.compressed_gamma_solve(m, lam, rho, t0, w))
    assert (got[prox_derivative(0.0, m, lam, rho, t0, w) >= 0.0] == 0.0).all()
    return got


def test_gamma_solve_meets_first_order_condition_near_frozen_reference():
    # both kernels stop at |phi| < 1e-10 with phi' >= rho >= 0.2, so each
    # lies within 5e-10 of the root and within 1e-9 of the other; the
    # every-row Newton gives the compressed one's roots to the bit
    rng = np.random.default_rng(23)
    for n in (1, 7, 64, 333):
        m = rng.uniform(-2.0, 30.0, n)
        lam = rng.normal(0.0, 2.0, n)
        t0 = rng.uniform(0.02, 0.5, n)
        w = rng.uniform(0.3, 20.0, n)
        rho = float(rng.uniform(0.2, 3.0))
        cases = [
            (m, lam, rho, t0, w),
            (m, float(lam[0]), rho, float(t0[0]), float(w[0])),  # broadcast scalars
            (float(m[-1]), lam[-1:], rho, t0[-1:], w[-1:]),  # scalar m
            (-np.abs(m), np.zeros(n), rho, t0, w),  # every row inactive, root 0
            (np.abs(m), lam - 100.0, rho, t0, w),  # inactive at m > 0: still exactly 0
        ]
        for args in cases:
            got = assert_prox_matches_compressed_newton(*args)
            want = admm_reference.gamma_solve(*args)
            assert got.shape == want.shape
            deriv = prox_derivative(got, *args)
            assert ((np.abs(deriv) < 1e-8) | ((got == 0.0) & (deriv >= 0.0))).all()
            assert np.max(np.abs(got - want)) <= 1e-9


def test_gamma_solve_matches_compressed_newton_on_a_480_driver_run(monkeypatch):
    # every prox call of the 480-driver relaxation (268 sweeps), captured
    # at its inputs: most rows are active and the rest sit at phi(0) >= 0
    calls = []

    def capture(*args, quart=None):
        calls.append(copy.deepcopy(args))
        return gamma_solve(*args)

    monkeypatch.setattr("flowincentives.admm.gamma_solve", capture)
    result = run_admm(synthetic_problem(nodes=160, drivers=480))
    assert len(calls) == result.iterations == 268
    inactive = 0
    for m, lam, rho, t0, w in calls:
        assert_prox_matches_compressed_newton(m, lam, rho, t0, w)
        inactive += np.count_nonzero(prox_derivative(0.0, m, lam, rho, t0, w) >= 0.0)
    assert 0 < inactive < sum(call[0].size for call in calls)


def test_gamma_solve_in_place_returns_the_allocating_floats():
    # given a ProxRows, the Newton loop runs in its buffers and writes the
    # root to its out: the same floats as the call that allocates, with m
    # and lam only read, and buffers that hold nothing over between calls
    rng = np.random.default_rng(43)
    for n in (0, 1, 9, 318):
        m = rng.uniform(-2.0, 30.0, n)
        lam = rng.normal(0.0, 2.0, n)
        lam[: n // 3] -= 200.0  # rows with phi(0) >= 0
        t0, w = rng.uniform(0.02, 0.5, n), rng.uniform(0.3, 20.0, n)
        rho = float(rng.uniform(0.2, 3.0))
        quart = 0.75 * t0 / w**4
        assert n < 9 or (prox_derivative(0.0, m, lam, rho, t0, w) >= 0.0).any()
        want = gamma_solve(m, lam, rho, t0, w, quart=quart)
        rows = ProxRows(quart, np.full(n, np.nan))
        before = m.copy(), lam.copy()
        for _ in range(2):
            got = gamma_solve(m, lam, rho, t0, w, quart=rows)
            assert got is rows.out and np.array_equal(got, want)
        assert np.array_equal(m, before[0]) and np.array_equal(lam, before[1])
        # without buffers, each call returns an array of its own
        again = gamma_solve(m, lam, rho, t0, w)
        assert np.array_equal(again, want) and not np.shares_memory(again, want)
    # a 0-d m is one row
    m, lam, t0, w = np.array(7.0), np.array([0.3]), np.array([0.2]), np.array([2.0])
    rows = ProxRows(0.75 * t0 / w**4, np.empty(1))
    got = gamma_solve(m, lam, 1.0, t0, w, quart=rows)
    assert got is rows.out and np.array_equal(got, gamma_solve(m, lam, 1.0, t0, w))
    assert m.shape == () and m == 7.0


def test_prox_constant_is_computed_once_per_problem():
    # the sweep hands the prox the problem's 0.75 t0 / w^4; the roots must
    # be those of the 5-argument call, which computes it itself
    problem = synthetic_problem(nodes=40, drivers=100)
    assert np.array_equal(problem.prox_quart, 0.75 * problem.t0_row / problem.w_row**4)
    rng = np.random.default_rng(5)
    rows = problem.t0_row.size
    m, lam = rng.uniform(-1.0, 20.0, rows), rng.normal(0.0, 2.0, rows)
    args = (m, lam, 1.3, problem.t0_row, problem.w_row)
    assert np.array_equal(gamma_solve(*args, quart=problem.prox_quart), gamma_solve(*args))
    assert np.array_equal(gamma_subproblem(*args, quart=problem.prox_quart), gamma_subproblem(*args))


@pytest.mark.parametrize("make_problem", [readme_problem, lambda: synthetic_problem(nodes=160, drivers=480)])
def test_objectives_evaluated_in_blocks_equal_one_sweep_at_a_time(make_problem):
    # each sweep writes its A u + bg into the next row of the state's
    # block of volumes, as many rows as fit in OBJECTIVE_BLOCK_FLOATS, and
    # the pending rows are scored where they lie: once the block is full,
    # or when the history is read. Each objective must be the 1-D sum of
    # its sweep's BPR terms, to the bit
    problem = make_problem()
    cfg = AdmmConfig()
    factor = build_u_factor(problem)
    state = initial_state(problem, masked=True)
    rows = problem.t0_row.size
    assert state.volumes.shape == (OBJECTIVE_BLOCK_FLOATS // rows, rows)
    expected, pending = [], 0
    for sweep in range(150):
        admm_iterate(state, problem, cfg, factor, (sweep % 2, 1 - sweep % 2))
        volume = _volume(state.u, problem, state.classes)
        assert state.pending == 0 or np.array_equal(state.volumes[state.pending - 1], volume)
        volume = np.maximum(volume, 0.0)
        expected.append(float(bpr_terms(volume, problem.t0_row, problem.w_row).sum()))
        pending = (pending + 1) % len(state.volumes)
        if sweep == 100:
            assert len(state.objective_history) == 101
            pending = 0
        assert state.pending == pending
    assert state.objective_history == expected
    assert state.pending == 0


def test_masked_norms_from_one_reduction_match_per_part_norms():
    # the masked sweep takes its seven norms as one reduceat over the
    # squared scaled residuals; each must be the part's Euclidean norm
    problem = synthetic_problem(nodes=160, drivers=480)
    factor = build_u_factor(problem)
    state = initial_state(problem, masked=True)
    for sweep in range(40):
        admm_iterate(state, problem, AdmmConfig(), factor, (sweep % 2, 1 - sweep % 2))
        scaled = np.concatenate([r.ravel() for r in residual_vectors(state, problem)])
        scaled *= state.residual_scale
        want = [np.linalg.norm(scaled[at]) for at in state.dual_slices]
        assert np.allclose(state.residual_history[-1], want, rtol=1e-15, atol=0.0)


def test_masked_norms_with_no_volume_rows():
    # with no volume rows the volume residual is empty, which one reduceat
    # would misread; the state falls back to a norm per part
    problem = AdmmProblem(
        a_matrix=np.zeros((0, 3)),
        d_matrix=np.ones((1, 3)),
        costs=np.array([0.0, 1.0, 2.0]),
        q=np.array([4.0]),
        budget=3.0,
        t0_row=np.zeros(0),
        w_row=np.zeros(0),
        columns=[np.arange(3)] * 4,
    )
    assert initial_state(problem, masked=True).norm_starts is None
    result = run_admm(problem)
    assert result.converged
    assert (result.residuals[:, 3] == 0.0).all()
    assert (result.objectives == 0.0).all()


@pytest.mark.parametrize("masked", [False, True], ids=["per driver", "masked"])
def test_duals_stay_in_sync_with_the_flat_vector(masked):
    # a rebound dual writes into the flat vector the sweep moves, and a
    # deep copy carries a flat vector of its own: the next sweep from
    # either must equal one from a fresh state holding the same values
    problem = readme_problem()
    cfg = AdmmConfig(rho=1.3)
    factor = build_u_factor(problem)
    state = initial_state(problem, masked=masked)
    for _ in range(3):
        admm_iterate(state, problem, cfg, factor, (0, 1))
    rng = np.random.default_rng(31)
    state.lam4 = rng.normal(size=state.lam4.shape)
    state.lam6 = float(rng.normal())
    twin = copy.deepcopy(state)
    fresh = initial_state(problem, masked=masked)
    for name in STATE_ARRAYS:
        setattr(fresh, name, copy.deepcopy(getattr(state, name)))
    assert np.array_equal(fresh.duals, state.duals) and np.array_equal(twin.duals, state.duals)
    before = copy.deepcopy(state)
    for s in (state, twin, fresh):
        admm_iterate(s, problem, cfg, factor, (1, 0))
    for name in STATE_ARRAYS:
        assert np.array_equal(getattr(twin, name), getattr(state, name)), name
        assert np.array_equal(getattr(fresh, name), getattr(state, name)), name
    assert np.array_equal(twin.residual_history[-1], state.residual_history[-1])
    assert np.array_equal(fresh.residual_history[-1], state.residual_history[-1])
    # each dual moves by rho times its residual, to the bit
    residuals = list(residual_vectors(state, problem))
    residuals[5] = float(residuals[5][0])  # lam6 reads as a float
    for n, r in enumerate(residuals, start=1):
        name = f"lam{n}"
        assert np.array_equal(getattr(state, name), getattr(before, name) + cfg.rho * r), name


@pytest.mark.parametrize("masked", [False, True], ids=["per driver", "masked"])
def test_parts_are_built_once_per_point(masked):
    # the cached views are rebuilt only when the point they view changes:
    # assigning the duals copies into the point, a point that is itself a
    # view keeps its views, and a rebound point or a copied state gets new
    # ones over its own memory
    problem = readme_problem()
    state = initial_state(problem, masked=masked)
    first = state.parts()
    assert state.parts() is first
    k = state.duals.size
    state.duals = np.zeros(k + 1)[1:]
    assert state.parts() is first and not state.duals.any()
    size = state.point.size
    state.point = np.arange(size + 1.0)[1:]
    views = state.parts()
    assert views is not first and state.parts() is views
    assert state.beta == state.point[state.beta_at] == state.beta_at + 1.0
    assert np.shares_memory(state.s_mat, state.point) and np.shares_memory(state.lam7, state.point)
    assert np.array_equal(state.duals, state.point[state.beta_at + 1 :])
    twin = copy.deepcopy(state)
    assert twin.parts() is twin.parts()
    assert np.shares_memory(twin.gamma, twin.point) and not np.shares_memory(twin.gamma, state.point)
    twin.lam4 = 0.0
    assert (twin.point[twin.dual_slices[3].start + twin.beta_at + 1] == 0.0) and state.lam4[0] != 0.0


def test_sweep_names_the_diverged_block_before_duals_move():
    # the finite check runs only when a residual norm is not finite; an inf
    # in lam4 reaches gamma alone, which the volume residual must catch
    problem = small_problem()
    cfg = AdmmConfig(rho=1.0, lambda_reg=0.5)
    factor = build_u_factor(problem)
    state = initial_state(problem)
    for _ in range(3):
        admm_iterate(state, problem, cfg, factor, (0, 1))
    state.lam4[0] = np.inf
    before = copy.deepcopy(state)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        admm_iterate(state, problem, cfg, factor, (1,))
    assert (err.value.block, err.value.iteration) == ("gamma", 3)
    assert not np.isfinite(state.gamma).all()
    for name in ("lam1", "lam2", "lam3", "lam4", "lam5", "lam6", "lam7"):
        assert np.array_equal(getattr(state, name), getattr(before, name)), name
    assert len(state.residual_history) == 3


def test_divergence_reported_with_block_name():
    problem = small_problem()
    state = initial_state(problem)
    state.u[0] = np.inf
    with pytest.raises(DivergenceError) as err:
        from flowincentives.admm import _check_finite

        _check_finite(state, 7)
    assert err.value.block == "u"
    assert "rho" in str(err.value)


def _rounding_fixture():
    scenario = generate_synthetic(nodes=4, richness=2, tightness=1.0, drivers=3, seed=6)
    pipe = prepare(scenario)
    return pipe


def test_round_assignment_zero_distance():
    pipe = _rounding_fixture()
    n_inc = len(pipe.scenario.menu)
    s_target = np.zeros((pipe.a_matrix.shape[1], pipe.demand.num_drivers))
    for n, od in enumerate(pipe.demand.driver_to_od):
        s_target[pipe.routes.route_of_od[od][n % 2] * n_inc + (n % n_inc), n] = 1.0
    cost = float(pipe.costs @ s_target.sum(axis=1))
    u_star = s_target.sum(axis=1)
    s_hat = round_assignment(u_star, pipe.demand, pipe.costs, cost + 0.5)
    assert np.allclose(s_hat.sum(axis=1), u_star)


def test_round_assignment_matches_exhaustive_l1_search():
    pipe = _rounding_fixture()
    rng = np.random.default_rng(12)
    budget = 6.0
    for _ in range(4):
        u_star = np.zeros(pipe.a_matrix.shape[1])
        for k, block in enumerate(np.asarray(pipe.demand.d_matrix)):
            cols = np.nonzero(block > 0)[0]
            mass = rng.dirichlet(np.ones(cols.size)) * pipe.demand.q[k]
            u_star[cols] = mass
        s_hat = round_assignment(u_star, pipe.demand, pipe.costs, budget)
        got = float(np.abs(s_hat.sum(axis=1) - u_star).sum())
        best = None
        for combo in itertools.product(*[list(c) for c in pipe.columns]):
            if sum(pipe.costs[c] for c in combo) > budget + 1e-9:
                continue
            s1 = np.zeros(pipe.a_matrix.shape[1])
            for c in combo:
                s1[c] += 1.0
            best = min(best, float(np.abs(s1 - u_star).sum())) if best is not None else float(
                np.abs(s1 - u_star).sum()
            )
        assert got == pytest.approx(best, abs=1e-7)


def test_round_assignment_respects_budget_when_u_star_overspends():
    pipe = _rounding_fixture()
    n_inc = len(pipe.scenario.menu)
    u_star = np.zeros(pipe.a_matrix.shape[1])
    # pile relaxed mass onto the most expensive offers
    for k in range(pipe.demand.q.size):
        cols = np.nonzero(pipe.demand.d_matrix[k] > 0)[0]
        u_star[cols[n_inc - 1]] = pipe.demand.q[k]
    tight = 2.0  # far below the cost u_star implies
    s_hat = round_assignment(u_star, pipe.demand, pipe.costs, tight)
    assert float(pipe.costs @ s_hat.sum(axis=1)) <= tight + 1e-9
    assert np.allclose(pipe.demand.d_matrix @ s_hat.sum(axis=1), pipe.demand.q)
    assert np.all(s_hat.sum(axis=0) == 1.0)


def test_round_assignment_matches_scipy_per_driver_milp():
    # the count-space DP against scipy's HiGHS at zero gap on the per-driver
    # binary formulation, at sizes the exhaustive search cannot reach,
    # including 100 drivers over 13 OD pairs
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = np.random.default_rng(5)
    cases = scipy_milp_cases() + [
        (generate_synthetic(nodes=40, richness=2, tightness=1.3, drivers=100, seed=7), 100.0)
    ]
    for scenario, budget in cases:
        pipe = prepare(scenario)
        n_cols = pipe.a_matrix.shape[1]
        u_star = np.zeros(n_cols)
        for k, block in enumerate(pipe.demand.d_matrix):
            cols = np.nonzero(block > 0)[0]
            u_star[cols] = rng.dirichlet(np.ones(cols.size)) * pipe.demand.q[k]
        s_hat = round_assignment(u_star, pipe.demand, pipe.costs, budget)
        assert np.all(s_hat.sum(axis=0) == 1.0)
        assert float(pipe.costs @ s_hat.sum(axis=1)) <= budget + 1e-9
        got = float(np.abs(s_hat.sum(axis=1) - u_star).sum())

        onehot, assign = per_driver_incidence(pipe.columns, n_cols)
        n_x = onehot.shape[1]
        eye = np.eye(n_cols)
        no_e = np.zeros((len(pipe.columns), n_cols))
        budget_row = np.concatenate([pipe.costs @ onehot, np.zeros(n_cols)])
        ref = milp(
            np.concatenate([np.zeros(n_x), np.ones(n_cols)]),
            constraints=[
                LinearConstraint(np.hstack([assign, no_e]), 1.0, 1.0),
                LinearConstraint(budget_row, -np.inf, budget),
                LinearConstraint(
                    np.vstack([np.hstack([onehot, -eye]), np.hstack([-onehot, -eye])]),
                    -np.inf,
                    np.concatenate([u_star, -u_star]),
                ),
            ],
            integrality=np.concatenate([np.ones(n_x), np.zeros(n_cols)]),
            bounds=Bounds(0.0, np.concatenate([np.ones(n_x), np.full(n_cols, np.inf)])),
            options={"mip_rel_gap": 0.0},
        )
        assert ref.status == 0
        assert got == pytest.approx(ref.fun, abs=1e-6)


def test_polish_reaches_a_one_exchange_local_optimum():
    # from the L1 rounding of a random u*, the polish must leave no move of
    # one driver between two columns of its own OD pair, within the budget,
    # that lowers realized travel time by more than 1e-12; every candidate
    # is scored here by the harness's own evaluation of the dealt assignment
    rng = np.random.default_rng(8)
    cases = scipy_milp_cases()[:4] + [
        (generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7), 100.0)
    ]
    total_moves = 0
    for scenario, budget in cases:
        pipe = prepare(scenario)
        problem = AdmmProblem(
            a_matrix=pipe.a_matrix,
            d_matrix=pipe.demand.d_matrix,
            costs=pipe.costs,
            q=pipe.demand.q,
            budget=budget,
            t0_row=pipe.t0_row,
            w_row=pipe.w_row,
            columns=pipe.columns,
            background=pipe.background,
        )
        u_star = np.zeros(pipe.a_matrix.shape[1])
        for k, block in enumerate(pipe.demand.d_matrix):
            cols = np.nonzero(block > 0)[0]
            u_star[cols] = rng.dirichlet(np.ones(cols.size)) * pipe.demand.q[k]
        start, _ = round_counts(u_star, pipe.demand, pipe.costs, budget)
        counts, moves = polish_counts(start, problem)
        total_moves += moves
        assert np.array_equal(pipe.demand.d_matrix @ counts, pipe.demand.q)
        assert float(pipe.costs @ counts) <= budget + 1e-9
        polished = realized_travel_time(pipe, counts)
        assert polished <= realized_travel_time(pipe, start)
        for block in pipe.demand.d_matrix:
            cols = np.nonzero(block > 0)[0]
            for i, j in itertools.permutations(cols, 2):
                if counts[i] < 1 or float(pipe.costs @ counts) - pipe.costs[i] + pipe.costs[j] > budget + 1e-9:
                    continue
                moved = counts.copy()
                moved[i] -= 1.0
                moved[j] += 1.0
                after = realized_travel_time(pipe, moved)
                assert polished - after <= 1e-12, (i, j)
    assert total_moves > 0


def _demand(blocks, q):
    return SimpleNamespace(blocks=[np.asarray(cols) for cols in blocks], q=np.asarray(q, dtype=float))


def assert_rounds_as_frozen_dp(u_star, demand, costs, budget):
    """The pair-space rounding against the frozen column DP, bit for bit on
    the counts and the L1 distance."""
    want_counts, want_l1 = admm_reference.round_counts(u_star, demand, costs, budget)
    got_counts, got_l1 = round_counts(u_star, demand, costs, budget)
    assert np.array_equal(got_counts, want_counts)
    assert got_l1 == want_l1


@pytest.mark.parametrize("nodes, drivers", [(8, 6), (8, 24), (40, 100), (160, 480), (800, 2400)])
def test_round_counts_matches_frozen_dp_on_relaxed_u(nodes, drivers):
    # the relaxed u of the README generator, each relaxed and rounded at its
    # own budget: 0 and 100 bind at 2,400 drivers, and every scale holds
    # near-ties (fractional parts 1e-14 to 1e-11 apart) that the DP's float
    # sums decide
    pipe = prepare(generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7))
    for budget in (0.0, 100.0, 1000.0):
        u = run_admm(replace(pipeline_problem(pipe), budget=budget)).u
        assert_rounds_as_frozen_dp(u, pipe.demand, pipe.costs, budget)


def random_rounding_case(rng, menu):
    """A Dirichlet u* over 1 to 6 pairs of 1 to 3 routes each, with exact
    ties: duplicate $0 columns, columns at 0, two pairs with the same u*,
    pairs with no drivers and relaxed mass off q; and a budget that binds,
    is 0 or is slack."""
    blocks, costs, parts, q = [], [], [], []
    for k in range(rng.integers(1, 7)):
        routes, drivers = int(rng.integers(1, 4)), int(rng.integers(0, 7))
        size = routes * menu.size
        x = rng.dirichlet(np.full(size, rng.choice([0.3, 1.0, 3.0]))) * drivers
        if routes > 1 and rng.random() < 0.4:
            x[menu.size] = x[0]
        if rng.random() < 0.3:
            x[rng.integers(0, size, size=2)] = 0.0
        if rng.random() < 0.2:
            x *= rng.uniform(0.9, 1.1)
        if k and blocks[-1].size == size and q[-1] == drivers and rng.random() < 0.5:
            x = parts[-1].copy()
        start = sum(b.size for b in blocks)
        blocks.append(np.arange(start, start + size))
        costs.append(np.tile(menu, routes))
        parts.append(x)
        q.append(drivers)
    costs = np.concatenate(costs)
    budget = float(rng.choice([0.0, rng.uniform(0.0, 20.0), float(rng.integers(0, 30)), 1e6]))
    return np.concatenate(parts), _demand(blocks, q), costs, budget


@pytest.mark.parametrize("menu", [(0.0, 2.0, 10.0), (0.0, 0.37, 2.9, 11.3)])
def test_round_counts_matches_frozen_dp_on_random_cases(menu):
    rng = np.random.default_rng(23)
    binding = 0
    for _ in range(48):
        u_star, demand, costs, budget = random_rounding_case(rng, np.array(menu))
        try:
            free, _ = admm_reference.round_counts(u_star, demand, costs, 1e12)
            assert_rounds_as_frozen_dp(u_star, demand, costs, budget)
        except InfeasibleModelError:
            with pytest.raises(InfeasibleModelError):
                round_counts(u_star, demand, costs, budget)
            continue
        binding += float(costs @ free) > budget + 1e-9
    assert binding >= 8


def test_round_counts_matches_frozen_dp_on_two_pairs_of_100():
    # two pairs of 100 drivers over 12 columns each, four $0 columns of each
    # pair holding the same relaxed mass
    pipe = prepare(generate_synthetic(nodes=12, richness=4, drivers=200, seed=1))
    assert list(pipe.demand.q) == [100.0, 100.0]
    u = run_admm(replace(pipeline_problem(pipe), budget=500.0)).u
    assert_rounds_as_frozen_dp(u, pipe.demand, pipe.costs, 500.0)


def test_round_counts_sends_a_tied_unit_to_the_later_column():
    # three $0 columns: u* = (1, 0, 0) with 2 drivers leaves one unit whose
    # three places tie exactly, and the column DP's first state puts it on
    # the last column; with u* = 0 both units go there
    demand = _demand([np.arange(3)], [2])
    for u_star, want in (([1.0, 0.0, 0.0], [1.0, 0.0, 1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, 2.0])):
        for rounding in (round_counts, admm_reference.round_counts):
            counts, _ = rounding(np.array(u_star), demand, np.zeros(3), 0.0)
            assert counts.tolist() == want


def test_round_counts_breaks_float_ties_as_the_column_dp():
    # 4 drivers on the two $0 columns at budget 0: the splits 1+3, 2+2 and
    # 3+1 sum to the same float L1, and the column DP keeps 2+2 by its
    # partial sums, not by the order the options come in
    u_star = np.array([
        0.6195099115898541, 1.1354826060490462, 0.043919744103758346, 0.11292073379122963,
        0.8380895299997572, 1.1354193162998985, 0.05868678686049617, 0.3639197038394243,
    ])
    demand, costs = _demand([np.arange(8)], [4]), np.tile([0.0, 0.37, 2.9, 11.3], 2)
    for split in ([1.0, 3.0], [2.0, 2.0], [3.0, 1.0]):
        counts = np.zeros(8)
        counts[[0, 4]] = split
        assert np.cumsum(np.abs(counts - u_star))[-1] == 5.392749449354242
    counts, l1 = round_counts(u_star, demand, costs, 0.0)
    assert counts[[0, 4]].tolist() == [2.0, 2.0] and l1 == 5.392749449354242
    assert_rounds_as_frozen_dp(u_star, demand, costs, 0.0)


def _random_rounded_counts(rng, p):
    """The L1 rounding of a Dirichlet-random u* on every OD pair."""
    demand = SimpleNamespace(blocks=[np.nonzero(row)[0] for row in p.d_matrix], q=p.q)
    u_star = np.zeros(p.num_columns)
    for cols, q in zip(demand.blocks, demand.q):
        u_star[cols] = rng.dirichlet(np.ones(cols.size)) * q
    return round_counts(u_star, demand, p.costs, p.budget)[0]


@pytest.mark.parametrize(
    "make_problem",
    [
        small_problem,
        readme_problem,
        lambda: synthetic_problem(nodes=8, drivers=24),
        hundred_driver_problem,
        lambda: synthetic_problem(nodes=160, drivers=480),
        interleaved_problem,
        lambda: trunk_problem(group=8),
    ],
    ids=["small", "6 drivers", "24 drivers", "100 drivers", "480 drivers", "interleaved", "trunk per 8"],
)
def test_polish_matches_dense_reference(make_problem):
    # the row-local polish against the frozen dense one, which scores every
    # move over every row: the same counts after the same number of moves
    p = make_problem()
    rng = np.random.default_rng(13)
    total_moves = 0
    for _ in range(4):
        start = _random_rounded_counts(rng, p)
        counts, moves = polish_counts(start, p)
        want_counts, want_moves = admm_reference.polish_counts(start, p)
        assert np.array_equal(counts, want_counts)
        assert moves == want_moves
        total_moves += moves
    assert total_moves > 0


def test_polish_holds_no_rows_by_moves_array():
    # 480 drivers: 1,590 moves over 318 rows; the polish's peak must stay
    # below one dense rows x moves float array
    p = synthetic_problem(nodes=160, drivers=480)
    start = _random_rounded_counts(np.random.default_rng(13), p)
    tracemalloc.start()
    try:
        polish_counts(start, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 318 * 1590 * 8
