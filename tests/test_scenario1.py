import dataclasses
import itertools
import time

import numpy as np
import pytest

import flowincentives.scenario1 as scenario1
from conftest import per_driver_incidence, scipy_milp_cases
from flowincentives import harness
from flowincentives.choice import IncentiveMenu
from flowincentives.errors import InfeasibleModelError, InputError, SolverLimitError
from flowincentives.harness import (
    Scenario,
    brute_force_oracle,
    generate_synthetic,
    prepare,
    report_csv_row,
    run_experiment,
    solve_linear,
)
from flowincentives.lp import MipResult
from flowincentives.network import Link, RoadNetwork
from flowincentives.scenario1 import Scenario1Config, build_scenario1, solve_scenario1


def solve_pipe(pipe, budget, alpha, rel_gap=0.0):
    cfg = Scenario1Config(budget=budget, alpha=alpha, rel_gap=rel_gap)
    model = build_scenario1(
        pipe.routes,
        pipe.probabilities,
        pipe.location,
        pipe.demand,
        pipe.scenario.net,
        cfg,
        background=pipe.background,
        columns=pipe.columns,
    )
    return model, solve_scenario1(model, pipe.scenario.menu, pipe.a_matrix, rel_gap=rel_gap)


def enumerate_free_flow(pipe, budget, alpha):
    """Inline reference: try every offer combination under budget + caps."""
    cap = alpha * pipe.w_row
    best = None
    for combo in itertools.product(*[list(c) for c in pipe.columns]):
        cost = sum(pipe.costs[c] for c in combo)
        if cost > budget + 1e-9:
            continue
        load = pipe.background + sum(pipe.a_matrix[:, c] for c in combo)
        if np.any(load > cap + 1e-9):
            continue
        obj = sum(pipe.free_flow_cost[c] for c in combo)
        if best is None or obj < best - 1e-15:
            best = obj
    return best


def test_config_validation():
    with pytest.raises(InputError):
        Scenario1Config(budget=-1.0)
    with pytest.raises(InputError):
        Scenario1Config(budget=0.0, alpha=-0.5)
    with pytest.raises(InputError, match="rel_gap"):
        Scenario1Config(budget=1.0, rel_gap=-0.5)


@pytest.mark.parametrize("model", ["linear", "admm"])
def test_negative_rel_gap_rejected_before_any_work(monkeypatch, model):
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepare ran with a negative rel_gap")

    monkeypatch.setattr(harness, "prepare", no_prepare)
    with pytest.raises(InputError, match="rel_gap"):
        run_experiment(scenario, model, 100.0, rel_gap=-1.0)


@pytest.mark.parametrize(
    "nodes, drivers, fixed, n_cols", [(8, 6, 2, 12), (40, 100, 13, 78), (160, 480, 53, 318)]
)
def test_milp_fixes_exactly_the_copies(nodes, drivers, fixed, n_cols):
    # the README generator: a column is fixed at 0 only when it repeats an
    # earlier free column in the cost and in every row, or when its OD pair
    # has no drivers; no two free columns are equal
    scenario = generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7)
    pipe = prepare(scenario)
    model = build_scenario1(
        pipe.routes, pipe.probabilities, pipe.location, pipe.demand, scenario.net,
        Scenario1Config(budget=100.0, alpha=2.0), background=pipe.background,
        columns=pipe.columns,
    )
    lp = model.lp

    def column(j):
        return lp.c[j], lp.a_ub[:, j], lp.a_eq[:, j]

    def equal(i, j):
        return all(np.array_equal(a, b) for a, b in zip(column(i), column(j)))

    empty = ~pipe.demand.d_matrix[pipe.demand.q > 0].any(axis=0)
    free = np.flatnonzero(lp.ub > 0)
    assert np.all(np.isinf(lp.ub[free]))
    for j in np.flatnonzero(lp.ub == 0):
        assert empty[j] or any(equal(i, j) for i in free[free < j])
    assert not any(equal(i, j) for i, j in itertools.combinations(free, 2))
    assert (np.count_nonzero(lp.ub == 0), lp.num_vars) == (fixed, n_cols)


def test_exact_search_keeps_the_objective_with_fewer_nodes():
    # the README generator at rel_gap=0: fixing the copies keeps the exact
    # optima, and the 24-driver search stays under 3,000 nodes (it takes
    # 9,649 with the copies free)
    for drivers, objective in ((6, 0.8372967109138673), (24, 3.315670169619592)):
        scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=drivers, seed=7)
        extra = run_experiment(scenario, "linear", 100.0, rel_gap=0).report.extra
        assert extra["mip_status"] == "optimal"
        assert extra["expected_free_flow_hours"] == pytest.approx(objective, rel=1e-9)
    assert extra["mip_nodes"] < 3_000


@pytest.mark.parametrize("nodes, drivers, most", [(40, 100, 35), (160, 480, 59)])
def test_linear_search_takes_no_more_nodes(nodes, drivers, most, monkeypatch):
    # the README generator at budget 100 with the default settings: the
    # search at the final alpha takes 35 and 59 nodes. A root LP that only
    # reached another optimal vertex ran 14,836 nodes (233 s) at 480
    # drivers, so the solve runs under a node limit of the count it takes
    # now, and a longer search fails here at once
    solve = harness.solve_scenario1
    monkeypatch.setattr(harness, "solve_scenario1", lambda *args: solve(*args, node_limit=most))
    scenario = generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7)
    extra = run_experiment(scenario, "linear", 100.0).report.extra
    assert extra["mip_status"] != "iteration-limit"
    assert extra["mip_nodes"] <= most


def test_rejects_columns_narrower_than_the_od_block(appendix_c):
    # the count-space model cannot restrict one driver of a pair
    pipe = prepare(appendix_c)
    narrowed = [pipe.columns[0][:-1], pipe.columns[1]]
    with pytest.raises(InputError):
        build_scenario1(
            pipe.routes,
            pipe.probabilities,
            pipe.location,
            pipe.demand,
            appendix_c.net,
            Scenario1Config(budget=5.0),
            background=pipe.background,
            columns=narrowed,
        )


def test_zero_budget_keeps_everyone_on_free_offer(appendix_c):
    pipe = prepare(appendix_c)
    _, report = solve_pipe(pipe, budget=0.0, alpha=1e6)
    assert report.cost_used == 0.0
    assert report.offer_counts[0.0] == 2
    assert report.offer_counts[5.0] == 0
    # objective equals the no-incentive expected free-flow time
    zero_cols = [pipe.columns[n][np.argmin(pipe.costs[pipe.columns[n]])] for n in range(2)]
    baseline = sum(pipe.free_flow_cost[c] for c in zero_cols)
    assert report.objective == pytest.approx(baseline, abs=1e-9)


def test_matches_enumeration_small_instances():
    for seed in (0, 1, 2):
        scenario = generate_synthetic(
            nodes=4, richness=2, tightness=0.8, drivers=3, seed=seed,
            menu_amounts=(0.0, 2.0),
        )
        pipe = prepare(scenario)
        oracle = enumerate_free_flow(pipe, budget=2.0, alpha=3.0)
        _, report = solve_pipe(pipe, budget=2.0, alpha=3.0)
        assert report.objective == pytest.approx(oracle, abs=1e-7)


def test_tight_capacity_forces_paid_offer():
    # worked-example network with the slow upstream link capacity cut to 0.4:
    # the no-incentive split (~0.50 on each route) busts it, and only paying
    # $5 on the fast route drops the slow route's share below the cap
    net = RoadNetwork(
        nodes=("v1", "v2", "v3"),
        links=(
            Link(0, "v1", "v2", 0.1, 100.0, 5.0),
            Link(1, "v1", "v2", 0.2, 0.4, 10.0),
            Link(2, "v2", "v3", 0.1, 100.0, 5.0),
        ),
    )
    scenario = Scenario(
        net=net,
        od_pairs=[("v1", "v3")],
        demand=[(0, 1, 1)],
        horizon=3,
        unit_length_hours=0.2,
        menu=IncentiveMenu((0.0, 5.0)),
    )
    pipe = prepare(scenario)
    feasible = []
    for col in pipe.columns[0]:
        load = pipe.background + pipe.a_matrix[:, col]
        if np.all(load <= pipe.w_row + 1e-9) and pipe.costs[col] <= 5.0:
            feasible.append(col)
    assert feasible == [1]  # only ($5 on the fast route) passes the cap
    _, report = solve_pipe(pipe, budget=5.0, alpha=1.0)
    assert report.counts.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert report.cost_used == 5.0


def test_alpha_zero_reports_binding_rows(appendix_c):
    pipe = prepare(appendix_c)
    with pytest.raises(InfeasibleModelError) as err:
        solve_pipe(pipe, budget=0.0, alpha=0.0)
    assert len(err.value.binding_rows) > 0
    assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in err.value.binding_rows)


def test_budget_sweep_objective_non_increasing():
    scenario = generate_synthetic(
        nodes=4, richness=2, tightness=0.9, drivers=3, seed=5, menu_amounts=(0.0, 2.0, 10.0)
    )
    pipe = prepare(scenario)
    objectives = []
    for budget in (0.0, 4.0, 30.0):
        oracle = enumerate_free_flow(pipe, budget=budget, alpha=5.0)
        _, report = solve_pipe(pipe, budget=budget, alpha=5.0)
        assert report.objective == pytest.approx(oracle, abs=1e-7)
        objectives.append(report.objective)
    assert objectives[0] >= objectives[1] - 1e-9
    assert objectives[1] >= objectives[2] - 1e-9


def test_solution_satisfies_all_rows():
    scenario = generate_synthetic(
        nodes=6, richness=2, tightness=0.7, drivers=6, seed=8, menu_amounts=(0.0, 2.0, 10.0)
    )
    pipe = prepare(scenario)
    alpha, budget = 2.0, 12.0
    _, report = solve_pipe(pipe, budget=budget, alpha=alpha, rel_gap=0.01)
    counts = report.counts
    assert np.array_equal(pipe.demand.d_matrix @ counts, pipe.demand.q)
    assert float(pipe.costs @ counts) <= budget + 1e-9
    volume = pipe.a_matrix @ counts + pipe.background
    assert np.all(volume <= alpha * pipe.w_row + 1e-6)
    # cost is charged per offer, not per acceptance: with one $2 offer out,
    # spend equals the face value even though acceptance is fractional
    if report.offer_counts.get(2.0):
        assert report.cost_used == pytest.approx(2.0 * report.offer_counts[2.0] + 10.0 * report.offer_counts.get(10.0, 0))


def test_alpha_doubling_retry_flagged():
    scenario = generate_synthetic(
        nodes=4, richness=2, tightness=3.0, drivers=8, seed=13, menu_amounts=(0.0, 2.0)
    )
    outcome = run_experiment(scenario, "linear", budget=4.0, alpha=1.0)
    assert outcome.report.extra["alpha_retries"] >= 1
    assert outcome.report.extra["alpha_used"] > 1.0


def test_oracle_objective_agreement_with_harness_oracle():
    scenario = generate_synthetic(
        nodes=4, richness=2, tightness=0.8, drivers=3, seed=3, menu_amounts=(0.0, 2.0, 10.0)
    )
    pipe = prepare(scenario)
    result = brute_force_oracle(scenario, budget=12.0, objective="free_flow", alpha=4.0, pipe=pipe)
    inline = enumerate_free_flow(pipe, budget=12.0, alpha=4.0)
    assert result.objective == pytest.approx(inline, abs=1e-9)


def test_count_space_matches_scipy_per_driver_milp():
    # the count-space MILP at rel_gap=0 against scipy's HiGHS on the
    # per-driver binary formulation, at sizes the oracle cannot enumerate
    from scipy.optimize import Bounds, LinearConstraint, milp

    alpha = 1.5
    for scenario, budget in scipy_milp_cases():
        pipe = prepare(scenario)
        onehot, assign = per_driver_incidence(pipe.columns, pipe.a_matrix.shape[1])
        ref = milp(
            pipe.free_flow_cost @ onehot,
            constraints=[
                LinearConstraint(assign, 1.0, 1.0),
                LinearConstraint(pipe.costs @ onehot, -np.inf, budget),
                LinearConstraint(
                    pipe.a_matrix @ onehot, -np.inf, alpha * pipe.w_row - pipe.background
                ),
            ],
            integrality=np.ones(onehot.shape[1]),
            bounds=Bounds(0.0, 1.0),
            options={"mip_rel_gap": 0.0},
        )
        assert ref.status in (0, 2)  # optimal or infeasible
        if ref.status == 2:
            with pytest.raises(InfeasibleModelError):
                solve_pipe(pipe, budget=budget, alpha=alpha)
            continue
        _, report = solve_pipe(pipe, budget=budget, alpha=alpha)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(ref.fun, abs=1e-6)


def test_default_gap_at_100_drivers_matches_scipy_per_driver_milp():
    # the README generator at 100 drivers (feasible from alpha = 2) at the
    # default 1% gap: the dive finishes in seconds, and its incumbent is an
    # integral, feasible point within the gap of HiGHS's optimum
    from scipy.optimize import Bounds, LinearConstraint, milp

    scenario = generate_synthetic(nodes=40, richness=2, tightness=1.3, drivers=100, seed=7)
    pipe = prepare(scenario)
    budget, alpha = 100.0, 2.0
    onehot, assign = per_driver_incidence(pipe.columns, pipe.a_matrix.shape[1])
    caps = alpha * pipe.w_row - pipe.background
    ref = milp(
        pipe.free_flow_cost @ onehot,
        constraints=[
            LinearConstraint(assign, 1.0, 1.0),
            LinearConstraint(pipe.costs @ onehot, -np.inf, budget),
            LinearConstraint(pipe.a_matrix @ onehot, -np.inf, caps),
        ],
        integrality=np.ones(onehot.shape[1]),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    assert ref.status == 0
    started = time.perf_counter()
    model, report = solve_pipe(pipe, budget=budget, alpha=alpha, rel_gap=0.01)
    assert time.perf_counter() - started < 5.0
    counts = report.counts
    assert np.array_equal(counts, np.round(counts))
    assert np.array_equal(pipe.demand.d_matrix @ counts, pipe.demand.q)
    assert pipe.costs @ counts <= budget + 1e-9
    assert np.all(pipe.a_matrix @ counts <= caps + 1e-9)
    assert report.objective == pytest.approx(pipe.free_flow_cost @ counts, rel=1e-12)
    assert report.objective >= ref.fun - 1e-9 * abs(ref.fun)
    assert report.objective <= 1.01 * ref.fun


def test_linear_report_carries_nodes_and_pivots(monkeypatch):
    # the README generator at 6 drivers: report.json's extra carries the
    # nodes and the pivots of all the LPs of every MIP solved, here the
    # infeasible one at alpha = 1 (15 pivots) and the one at alpha = 2
    returned = []
    solve = scenario1.solve_binary_mip

    def recording(*args, **kwargs):
        returned.append(solve(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(scenario1, "solve_binary_mip", recording)
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    extra = run_experiment(scenario, "linear", 100.0).report.extra
    for key in ("mip_nodes", "lp_pivots"):
        assert type(extra[key]) is int
        assert extra[key] > 0
    assert extra["alpha_retries"] == 1 and [r.status for r in returned] == ["infeasible", "gap-limit"]
    assert extra["mip_nodes"] == sum(r.nodes for r in returned)
    assert extra["lp_pivots"] == sum(r.pivots for r in returned) > returned[-1].pivots


def test_linear_report_carries_fixed_columns(monkeypatch):
    # the README generator at 6 drivers: report.json's extra carries how
    # many columns the MILP at the final alpha fixed at 0, and the sweep
    # CSV row leaves it out
    built = []
    build = harness.build_scenario1

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "build_scenario1", recording)
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    report = run_experiment(scenario, "linear", 100.0).report
    assert report.extra["alpha_retries"] == 1
    assert type(report.extra["mip_fixed_columns"]) is int
    assert report.extra["mip_fixed_columns"] == np.count_nonzero(built[-1].lp.ub == 0) == 2
    assert report_csv_row(report) == report_csv_row(dataclasses.replace(report, extra={}))


def test_incumbent_is_checked_against_every_row(monkeypatch):
    # the counts a MIP returns are checked before they are dealt: integral
    # and nonnegative, D counts == q, and every kept row (budget and
    # capacity) to 1e-6; the README generator at 6 drivers
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    pipe = prepare(scenario)
    model, _ = solve_pipe(pipe, budget=100.0, alpha=2.0)
    zero = pipe.demand.zero_counts(pipe.costs)
    short = zero.copy()
    short[np.argmax(short)] -= 1.0
    overloaded = zero.copy()
    model.lp.b_ub[1:] = np.minimum(model.lp.b_ub[1:], model.lp.a_ub[1:] @ zero - 1e-3)
    for counts, message in ((0.5 * zero, "integers"), (short, "demand"), (overloaded, "capacity")):
        monkeypatch.setattr(scenario1, "solve_binary_mip", lambda *a, x=counts, **k: MipResult("optimal", x=x))
        with pytest.raises(AssertionError, match=message):
            solve_scenario1(model, scenario.menu, pipe.a_matrix)


def test_node_limit_without_incumbent_raises():
    # the README generator at 6 drivers needs alpha = 2 to be feasible
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    pipe = prepare(scenario)
    cfg = Scenario1Config(budget=100.0, alpha=2.0)
    model = build_scenario1(
        pipe.routes,
        pipe.probabilities,
        pipe.location,
        pipe.demand,
        scenario.net,
        cfg,
        background=pipe.background,
        columns=pipe.columns,
    )
    with pytest.raises(SolverLimitError) as err:
        solve_scenario1(model, scenario.menu, pipe.a_matrix, node_limit=0)
    assert err.value.limit == "node_limit"
    assert "node_limit=0" in str(err.value)


def test_config_rel_gap_reaches_the_mip(monkeypatch):
    seen = []
    solve = scenario1.solve_binary_mip

    def recording(lp, int_vars, rel_gap, node_limit):
        seen.append(rel_gap)
        return solve(lp, int_vars, rel_gap=rel_gap, node_limit=node_limit)

    monkeypatch.setattr(scenario1, "solve_binary_mip", recording)
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    pipe = prepare(scenario)
    cfg = Scenario1Config(budget=100.0, alpha=2.0, rel_gap=0.0)
    model = build_scenario1(
        pipe.routes, pipe.probabilities, pipe.location, pipe.demand, scenario.net, cfg,
        background=pipe.background,
    )
    solve_scenario1(model, scenario.menu, pipe.a_matrix)
    # an explicit argument still wins over the config
    solve_scenario1(model, scenario.menu, pipe.a_matrix, rel_gap=0.5)
    # the harness passes its gap once, through the config
    solve_linear(pipe, 100.0, alpha=2.0, rel_gap=0.25)
    assert seen == [0.0, 0.5, 0.25]


def test_default_gap_prunes_the_search():
    # the README generator at 6 drivers (alpha = 2): nodes dropped inside
    # the 1% gap shorten the search, and the answer stays inside that gap
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    pipe = prepare(scenario)
    model = build_scenario1(
        pipe.routes, pipe.probabilities, pipe.location, pipe.demand, scenario.net,
        Scenario1Config(budget=100.0, alpha=2.0), background=pipe.background,
        columns=pipe.columns,
    )
    int_vars = range(pipe.a_matrix.shape[1])
    exact = scenario1.solve_binary_mip(model.lp, int_vars, rel_gap=0.0)
    loose = scenario1.solve_binary_mip(model.lp, int_vars, rel_gap=0.01)
    assert exact.status == "optimal"
    assert loose.nodes < exact.nodes
    assert loose.gap <= 0.01
    assert loose.objective <= exact.objective + 0.01 * abs(exact.objective)
