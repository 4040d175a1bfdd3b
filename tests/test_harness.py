import dataclasses
import itertools
import json

import numpy as np
import pytest
from conftest import make_assignment

from flowincentives import harness
from flowincentives.admm import round_counts
from flowincentives.choice import IncentiveMenu, build_choice_matrix, offer_column
from flowincentives.errors import InputError, OracleSizeError
from flowincentives.flow import build_location_matrix
from flowincentives.harness import (
    Scenario,
    appendix_c_scenario,
    brute_force_oracle,
    congested_route_estimates,
    generate_synthetic,
    load_scenario,
    prepare,
    realized_travel_time,
    report_csv_row,
    run_experiment,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    select_cohort,
    sweep,
    write_report_json,
    write_reports_csv,
    zero_assignment,
)
from flowincentives.network import Link, RoadNetwork, bpr_travel_time, enumerate_routes


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(generate_synthetic(nodes=8, richness=2, drivers=10, seed=9), a)
    save_scenario(generate_synthetic(nodes=8, richness=2, drivers=10, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    save_scenario(generate_synthetic(nodes=8, richness=2, drivers=10, seed=10), b)
    assert a.read_bytes() != b.read_bytes()


def test_generate_richness_one_single_routes():
    scenario = generate_synthetic(nodes=8, richness=1, drivers=8, seed=2)
    pipe = prepare(scenario)
    assert all(len(v) == 1 for v in pipe.routes.route_of_od.values())


def test_generate_multi_route_fraction():
    scenario = generate_synthetic(nodes=12, richness=2, drivers=12, seed=2, multi_route_fraction=0.5)
    pipe = prepare(scenario)
    counts = [len(v) for v in pipe.routes.route_of_od.values()]
    assert any(c >= 2 for c in counts) and any(c == 1 for c in counts)


def test_appendix_c_preset_matches_worked_network():
    scenario = appendix_c_scenario()
    assert [lk.t0_hours for lk in scenario.net.links] == [0.1, 0.2, 0.1]
    assert [lk.length_miles for lk in scenario.net.links] == [5.0, 10.0, 5.0]
    assert scenario.unit_length_hours == 0.2
    assert scenario.horizon == 3
    assert scenario.menu.amounts == (0.0, 5.0)
    assert scenario.total_drivers == 2


def test_scenario_json_round_trip(tmp_path):
    scenario = generate_synthetic(nodes=6, richness=2, drivers=7, seed=4, later_fraction=0.3)
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.demand == scenario.demand
    assert loaded.menu.amounts == scenario.menu.amounts
    assert loaded.net.links == scenario.net.links
    assert loaded.penetration_rate == scenario.penetration_rate


def test_scenario_validation():
    scenario = appendix_c_scenario()
    obj = scenario_to_json(scenario)
    obj["demand"] = [{"origin": "v1", "destination": "v2", "count": 1, "entrance_time": 1}]
    with pytest.raises(InputError):
        scenario_from_json(obj)


def test_select_cohort_full_and_half():
    assert select_cohort(range(10), 1.0, 0) == list(range(10))
    half = select_cohort(range(10), 0.5, 0)
    assert len(half) == 5
    assert half == select_cohort(range(10), 0.5, 0)
    # the floor is taken at the decimal rate: 0.29 * 100 is 28.999... in
    # binary floating point, but the cohort holds 29 drivers
    for rate, n, size in ((0.29, 100, 29), (0.57, 100, 57), (0.58, 100, 58), (0.58, 50, 29)):
        assert len(select_cohort(range(n), rate, 0)) == size
    rates = (0.28, 0.29, 0.3, 0.57, 0.58)
    cohorts = [set(select_cohort(range(100), rate, 0)) for rate in rates]
    assert all(small <= large for small, large in zip(cohorts, cohorts[1:]))


def test_select_cohort_nested_prefixes():
    for seed in range(5):
        small = set(select_cohort(range(20), 0.25, seed))
        large = set(select_cohort(range(20), 0.5, seed))
        assert small <= large


def test_congested_estimates_toggle():
    import dataclasses

    scenario = generate_synthetic(nodes=4, richness=2, tightness=2.0, drivers=10, seed=6)
    free = prepare(scenario)
    congested = prepare(dataclasses.replace(scenario, congested_estimates=True))
    # advertised times rise under congestion, shifting the offer matrix
    assert not np.allclose(free.probabilities.matrix, congested.probabilities.matrix)
    # round-trips through JSON
    obj = scenario_to_json(dataclasses.replace(scenario, congested_estimates=True))
    assert scenario_from_json(obj).congested_estimates is True
    assert scenario_from_json(scenario_to_json(scenario)).congested_estimates is False


def test_run_experiment_zero_budget_is_baseline():
    scenario = generate_synthetic(nodes=6, richness=2, drivers=6, seed=1)
    outcome = run_experiment(scenario, "linear", budget=0.0, alpha=10.0)
    r = outcome.report
    assert r.pct_rewarded_drivers == 0.0
    assert r.pct_reduction == 0.0
    assert r.achieved_tt_hours == r.baseline_tt_hours
    assert r.cost_used == 0.0


def test_report_invariants():
    scenario = generate_synthetic(nodes=6, richness=2, drivers=8, seed=7, later_fraction=0.25)
    outcome = run_experiment(scenario, "admm", budget=10.0, max_iters=1500, tol=1e-4)
    r = outcome.report
    assert r.cost_used <= r.budget + 1e-9
    assert sum(r.incentive_distribution.values()) == scenario.total_drivers
    assert r.value_of_saved_time == pytest.approx(
        (r.baseline_tt_hours - r.achieved_tt_hours) * scenario.vot
    )


def test_later_entrants_fixed_as_background():
    scenario = generate_synthetic(nodes=4, richness=2, drivers=8, seed=3, later_fraction=0.5, horizon=3)
    pipe = prepare(scenario)
    assert pipe.background.sum() > 0
    # background drivers are not decision variables
    assert pipe.demand.num_drivers == sum(c for _, t, c in scenario.demand if t == 1)


def test_generate_later_entrants_need_two_intervals():
    with pytest.raises(InputError, match="horizon"):
        generate_synthetic(nodes=8, drivers=24, later_fraction=0.5, horizon=1)
    scenario = generate_synthetic(nodes=8, drivers=24, later_fraction=0.5, horizon=2)
    assert scenario.total_drivers == 24


def _no_incentive_load(scenario, routes, probabilities, entrance, od_index, cache):
    """One driver's expected volume on the $0 offer of its pair's first route."""
    if entrance not in cache:
        cache[entrance] = build_location_matrix(
            scenario.net, routes, scenario.horizon, scenario.unit_length_hours, entrance_time=entrance
        )
    col = probabilities.matrix[:, offer_column(probabilities.menu, routes.route_of_od[od_index][0], 0)]
    return cache[entrance].matrix @ col


def _per_driver_background(pipe):
    scenario = pipe.scenario
    background = np.zeros(pipe.a_matrix.shape[0])
    if scenario.background_volume is not None:
        background = background + scenario.background_volume
    eligible, cache = set(pipe.eligible_ids), {}
    for n, (od_index, entrance) in enumerate(pipe.driver_ods):
        if n not in eligible:
            background = background + _no_incentive_load(
                scenario, pipe.routes, pipe.probabilities, entrance, od_index, cache
            )
    return background


def _per_entry_congested_estimates(scenario, routes):
    net = scenario.net
    tt_free = np.array([r.free_flow_time for r in routes.routes])
    probabilities = build_choice_matrix(routes, scenario.menu, tt_free, scenario.coeffs)
    volume = np.zeros(net.num_links * scenario.horizon)
    if scenario.background_volume is not None:
        volume = volume + scenario.background_volume
    cache = {}
    for od_index, entrance, count in scenario.demand:
        volume = volume + count * _no_incentive_load(
            scenario, routes, probabilities, entrance, od_index, cache
        )
    t0_row = np.tile(net.free_flow_times, scenario.horizon)
    w_row = np.tile(net.capacity_vector, scenario.horizon)
    link_time = bpr_travel_time(t0_row, w_row, volume).reshape(scenario.horizon, net.num_links)
    mean_link_time = link_time.mean(axis=0)
    return np.array([sum(mean_link_time[link] for link in route.links) for route in routes.routes])


@pytest.mark.parametrize(
    "penetration, later, extra_volume, congested, repeat_entries",
    [
        (0.5, 0.0, False, False, False),
        (1.0, 0.25, False, False, False),
        (0.5, 0.3, True, False, False),
        (0.5, 0.25, False, True, False),
        (0.4, 0.25, True, True, True),
    ],
)
def test_background_matches_per_driver_sum(penetration, later, extra_volume, congested, repeat_entries):
    scenario = generate_synthetic(
        nodes=12, richness=3, tightness=1.3, drivers=30, seed=5, later_fraction=later, horizon=3
    )
    rows = scenario.net.num_links * scenario.horizon
    scenario = dataclasses.replace(
        scenario,
        background_volume=np.linspace(0.0, 2.0, rows) if extra_volume else None,
        congested_estimates=congested,
        # the same (OD, entrance) listed twice must add up
        demand=scenario.demand + scenario.demand if repeat_entries else scenario.demand,
    )
    pipe = prepare(scenario, penetration=penetration, seed=3)
    first = [n for n, (_, entrance) in enumerate(pipe.driver_ods) if entrance == 1]
    assert pipe.eligible_ids == select_cohort(first, penetration, 3)
    reference = _per_driver_background(pipe)
    assert np.any(reference > 0)
    np.testing.assert_allclose(pipe.background, reference, rtol=1e-12, atol=1e-12 * reference.max())
    if congested:
        np.testing.assert_allclose(
            congested_route_estimates(scenario, pipe.routes),
            _per_entry_congested_estimates(scenario, pipe.routes),
            rtol=1e-12,
        )
    expected = np.zeros((pipe.a_matrix.shape[1], pipe.demand.num_drivers))
    for n, od_index in enumerate(pipe.demand.driver_to_od):
        expected[offer_column(scenario.menu, pipe.routes.route_of_od[od_index][0], 0), n] = 1.0
    assert np.array_equal(zero_assignment(pipe), expected)


def test_congested_estimates_on_a_three_link_route():
    # the generator's routes have at most two links; the first route here
    # has three, so its estimate sums more than two link times
    net = RoadNetwork(
        nodes=("a", "b", "c", "d"),
        links=(
            Link(0, "a", "b", 0.05, 3.0, 2.5),
            Link(1, "b", "c", 0.07, 2.0, 3.5),
            Link(2, "c", "d", 0.03, 4.0, 1.5),
            Link(3, "a", "d", 0.2, 5.0, 10.0),
        ),
    )
    scenario = Scenario(
        net=net,
        od_pairs=[("a", "d")],
        demand=[(0, 1, 8), (0, 2, 4)],
        horizon=3,
        unit_length_hours=0.1,
        menu=IncentiveMenu((0.0, 2.0)),
        congested_estimates=True,
    )
    routes = enumerate_routes(net, scenario.od_pairs)
    assert [route.links for route in routes.routes] == [(0, 1, 2), (3,)]
    estimates = congested_route_estimates(scenario, routes)
    np.testing.assert_allclose(estimates, _per_entry_congested_estimates(scenario, routes), rtol=1e-12)
    assert np.all(estimates > [route.free_flow_time for route in routes.routes])
    offers = build_choice_matrix(routes, scenario.menu, estimates, scenario.coeffs)
    assert np.array_equal(prepare(scenario).probabilities.matrix, offers.matrix)


def test_zero_eligible_drivers_fall_back_to_baseline():
    # floor(0.1 * 5) = 0 eligible drivers: nothing to optimize
    scenario = generate_synthetic(nodes=4, richness=2, drivers=5, seed=4)
    outcome = run_experiment(scenario, "admm", budget=50.0, penetration=0.1)
    assert outcome.report.achieved_tt_hours == outcome.report.baseline_tt_hours
    assert outcome.report.cost_used == 0.0
    assert sum(outcome.report.incentive_distribution.values()) == scenario.total_drivers
    assert "note" in outcome.report.extra


def test_run_experiment_never_deals_s(monkeypatch):
    # every branch hands back offer counts; S is dealt once, on first read
    calls = []
    real_deal = harness.deal_counts

    def counting_deal(counts, demand):
        calls.append(1)
        return real_deal(counts, demand)

    monkeypatch.setattr(harness, "deal_counts", counting_deal)
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    run_experiment(scenario, "linear", budget=100.0, alpha=6.0)
    run_experiment(generate_synthetic(nodes=4, richness=2, drivers=5, seed=4), "admm", 50.0, penetration=0.1)
    outcome = run_experiment(scenario, "admm", budget=100.0)
    assert calls == []
    first = outcome.assignment
    assert outcome.assignment is first
    assert calls == [1]
    assert np.array_equal(first, real_deal(outcome.counts, outcome.pipeline.demand))


def test_oracle_hands_back_counts(monkeypatch):
    # the oracle searches offer counts and returns them; S is dealt once,
    # on first read
    calls = []
    real_deal = harness.deal_counts

    def counting_deal(counts, demand):
        calls.append(1)
        return real_deal(counts, demand)

    monkeypatch.setattr(harness, "deal_counts", counting_deal)
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)
    pipe = prepare(scenario)
    result = brute_force_oracle(scenario, budget=100.0, objective="bpr", pipe=pipe)
    assert calls == []
    first = result.assignment
    assert result.assignment is first
    assert calls == [1]
    assert np.array_equal(first, real_deal(result.counts, pipe.demand))


@pytest.mark.parametrize("penetration", [0.1, 1.0])
def test_unknown_model_rejected_before_any_work(monkeypatch, penetration):
    # 0.1 leaves an empty cohort, 1.0 all six drivers: both fail before prepare
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepare ran for an unknown model")

    monkeypatch.setattr(harness, "prepare", no_prepare)
    with pytest.raises(InputError, match="'bogus'"):
        run_experiment(scenario, "bogus", 10.0, penetration=penetration)


@pytest.mark.parametrize("penetration", [0.1, 1.0])
def test_admm_settings_rejected_before_any_work(monkeypatch, penetration):
    # 0.1 leaves an empty cohort, which never runs the model
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepare ran with invalid admm settings")

    monkeypatch.setattr(harness, "prepare", no_prepare)
    with pytest.raises(InputError, match="rho must be positive"):
        run_experiment(scenario, "admm", 10.0, penetration=penetration, rho=0.0, lambda_reg=-1.0)
    # a max_iters that is not an integer would fail in range() after prepare
    for bad in (1e3, 5000.0, "5000", True):
        with pytest.raises(InputError, match="max_iters must be an integer"):
            run_experiment(scenario, "admm", 10.0, penetration=penetration, max_iters=bad)


def test_penetration_shrinks_decision_set():
    scenario = generate_synthetic(nodes=6, richness=2, drivers=10, seed=3)
    full = prepare(scenario, penetration=1.0)
    half = prepare(scenario, penetration=0.5)
    assert half.demand.num_drivers == 5
    assert set(half.eligible_ids) <= set(full.eligible_ids)
    # the non-selected half still loads the network
    assert half.background.sum() > full.background.sum()


def test_oracle_single_driver_two_offers():
    scenario = appendix_c_scenario()
    obj = scenario_to_json(scenario)
    obj["demand"] = [{"origin": "v1", "destination": "v3", "count": 1, "entrance_time": 1}]
    one = scenario_from_json(obj)
    result = brute_force_oracle(one, budget=5.0, objective="bpr")
    assert result.feasible_count == 4  # two routes x {$0, $5}
    pipe = prepare(one)
    values = []
    for col in pipe.columns[0]:
        counts = np.zeros(pipe.a_matrix.shape[1])
        counts[col] = 1.0
        values.append(realized_travel_time(pipe, counts))
    assert result.objective == pytest.approx(min(values), abs=1e-12)


def _per_driver_reference(pipe, budget, objective, alpha):
    """Walk every per-driver choice vector in lexicographic order.

    A later vector replaces the best only when lower by more than 1e-15.
    Returns (best assignment, best objective, feasible count).
    """
    n_cols = pipe.a_matrix.shape[1]
    best, best_obj, count = None, np.inf, 0
    for combo in itertools.product(*[list(c) for c in pipe.columns]):
        s = make_assignment(pipe.columns, n_cols, combo)
        u = s.sum(axis=1)
        if pipe.costs @ u > budget + 1e-9:
            continue
        if alpha is not None and np.any(pipe.a_matrix @ u + pipe.background > alpha * pipe.w_row + 1e-9):
            continue
        count += 1
        obj = pipe.free_flow_cost @ u if objective == "free_flow" else realized_travel_time(pipe, u)
        if obj < best_obj - 1e-15:
            best, best_obj = s, obj
    return best, best_obj, count


def test_oracle_feasible_count_matches_combinatorics():
    one_od = generate_synthetic(
        nodes=4, richness=2, tightness=1.0, drivers=3, seed=5, menu_amounts=(0.0, 2.0, 10.0)
    )
    two_od = generate_synthetic(
        nodes=6, richness=2, tightness=1.0, drivers=4, seed=5, menu_amounts=(0.0, 2.0, 10.0)
    )
    budget = 12.0
    # (scenario, penetration, objective, alpha, OD pairs with drivers, feasible count)
    cases = [
        (one_od, None, "bpr", None, 1, 136),
        # alpha 1.2 prunes 136 budget-feasible assignments to 32 and moves the optimum
        (one_od, None, "free_flow", 1.2, 1, 32),
        (two_od, None, "bpr", None, 2, 512),
        (one_od, 0.2, "bpr", None, 0, 1),
    ]
    for scenario, penetration, objective, alpha, n_od, expected in cases:
        pipe = prepare(scenario, penetration=penetration)
        assert np.count_nonzero(pipe.demand.q) == n_od
        result = brute_force_oracle(
            scenario, budget=budget, objective=objective, alpha=alpha, pipe=pipe
        )
        best, best_obj, count = _per_driver_reference(pipe, budget, objective, alpha)
        assert count == expected
        assert result.feasible_count == count
        assert np.array_equal(result.assignment, best)
        assert result.objective == pytest.approx(best_obj, rel=1e-12)


def test_oracle_ties_go_to_smallest_choice_vector():
    """Two identical parallel links: columns 0 and 2 ($0 on either route)
    have identical A columns, so count vectors tie exactly."""
    obj = {
        "network": {
            "nodes": ["a", "b"],
            "links": [
                {"id": 0, "from": "a", "to": "b", "t0_hours": 0.1, "capacity": 2.0, "length_miles": 5.0},
                {"id": 1, "from": "a", "to": "b", "t0_hours": 0.1, "capacity": 2.0, "length_miles": 5.0},
            ],
            "od_pairs": [{"origin": "a", "destination": "b", "demand": 3}],
        },
        "horizon": 2,
        "unit_length_hours": 0.2,
        "choice": {"incentive_amounts": [0, 2]},
    }
    scenario = scenario_from_json(obj)
    pipe = prepare(scenario)
    assert np.array_equal(pipe.a_matrix[:, 0], pipe.a_matrix[:, 2])
    for budget in (0.0, 4.0):
        result = brute_force_oracle(scenario, budget=budget, objective="bpr", pipe=pipe)
        assert result.assignment.sum(axis=1).tolist() == [3.0, 0.0, 0.0, 0.0]


def test_oracle_count_exceeds_int64():
    # one OD pair, 6 columns, 25 drivers: 142,506 count vectors
    scenario = generate_synthetic(nodes=3, richness=2, drivers=25, seed=1)
    pipe = prepare(scenario)
    assert pipe.a_matrix.shape[1] == 6
    assert pipe.costs.max() * 25 < 1000.0
    result = brute_force_oracle(scenario, budget=1000.0, objective="bpr", pipe=pipe)
    assert result.feasible_count == 6**25
    assert result.feasible_count > np.iinfo(np.int64).max


def test_oracle_lower_bounds_solvers():
    scenario = generate_synthetic(
        nodes=4, richness=2, tightness=1.3, drivers=4, seed=6, menu_amounts=(0.0, 2.0, 10.0)
    )
    oracle = brute_force_oracle(scenario, budget=12.0, objective="bpr")
    admm = run_experiment(scenario, "admm", budget=12.0, max_iters=3000, tol=1e-5)
    linear = run_experiment(scenario, "linear", budget=12.0, alpha=5.0)
    assert oracle.objective <= admm.report.achieved_tt_hours + 1e-9
    assert oracle.objective <= linear.report.achieved_tt_hours + 1e-9


def test_oracle_rejects_unknown_objective(monkeypatch):
    scenario = generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated for an unknown objective")

    monkeypatch.setattr(harness.kernels, "enumerate_assignments", no_enumeration)
    with pytest.raises(InputError) as err:
        brute_force_oracle(scenario, budget=100.0, objective="freeflow", penetration=0.5)
    assert "'bpr'" in str(err.value) and "'free_flow'" in str(err.value)


def test_oracle_size_guard():
    scenario = generate_synthetic(nodes=12, richness=3, drivers=40, seed=2)
    with pytest.raises(OracleSizeError):
        brute_force_oracle(scenario, budget=10.0, limit=1000)


def test_reports_reproducible():
    scenario = generate_synthetic(nodes=6, richness=2, drivers=6, seed=11)
    rows = []
    for _ in range(2):
        outcome = run_experiment(scenario, "admm", budget=6.0, max_iters=800, tol=1e-4)
        rows.append(report_csv_row(outcome.report))
    assert rows[0] == rows[1]


def test_report_json_carries_admm_counters(tmp_path):
    # the one admm run explains itself in report.json: its iteration count,
    # converged flag, the rounding's L1 distance to the relaxed counts, the
    # number of polish moves and the u-factor's block structure; at 5
    # iterations the run does not converge
    for max_iters, converged in ((5, False), (5000, True)):
        outcome = run_experiment(
            generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7),
            "admm",
            budget=100.0,
            max_iters=max_iters,
        )
        extra = outcome.report.extra
        assert extra["converged"] is converged
        assert extra["iterations"] == outcome.admm_result.iterations
        if not converged:
            assert extra["iterations"] == max_iters
        rounded, l1 = round_counts(
            outcome.admm_result.u, outcome.pipeline.demand, outcome.pipeline.costs, 100.0
        )
        assert extra["rounding_l1"] == l1 == pytest.approx(
            np.abs(rounded - np.clip(outcome.admm_result.u, 0.0, None)).sum()
        )
        assert isinstance(extra["polish_moves"], int) and extra["polish_moves"] >= 0
        # the u step's factor: one block of 6 columns per OD pair
        assert (extra["u_factor_blocks"], extra["u_factor_largest_block"]) == (2, 6)
        path = tmp_path / "report.json"
        write_report_json(outcome.report, path)
        saved = json.loads(path.read_text())["extra"]
        for key in (
            "iterations", "converged", "rounding_l1", "polish_moves",
            "u_factor_blocks", "u_factor_largest_block",
        ):
            assert saved[key] == extra[key], key
    assert extra["polish_moves"] > 0  # measured: 2 moves on the converged run


def test_admm_report_row_at_100_drivers_is_frozen():
    # frozen from the masked class relaxation (numpy 2.4.6), which the
    # masked per-driver iteration matches to rounding; the report must
    # stay byte for byte, at 100 drivers and at the benchmark's 480
    frozen = {
        (40, 100): (
            91,
            "admm,100,1,7,100,46,2.173913043,18.96426131,18.89701221,0.3546096519,"
            "10.61190814,0:54;2:45;10:1",
        ),
        (160, 480): (
            604,
            "admm,100,1,7,64,5,2.666666667,93.49353741,93.15539863,0.3616707436,"
            "53.35829821,0:456;2:22;10:2",
        ),
    }
    for (nodes, drivers), (sweeps, row) in frozen.items():
        scenario = generate_synthetic(nodes=nodes, richness=2, tightness=1.3, drivers=drivers, seed=7)
        outcome = run_experiment(scenario, "admm", 100.0)
        assert outcome.admm_result.iterations == sweeps, drivers
        assert report_csv_row(outcome.report) == row, drivers


def test_sweep_rows_and_csv(tmp_path):
    scenario = generate_synthetic(nodes=4, richness=2, drivers=4, seed=8)
    reports = sweep(scenario, "linear", budgets=(0.0, 4.0), penetrations=(0.5, 1.0), alpha=6.0)
    assert len(reports) == 4
    path = tmp_path / "report.csv"
    write_reports_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("model,budget,penetration_rate")
