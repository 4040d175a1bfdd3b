import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from conftest import scenario1_expected_volume, total_travel_time_loop
from flowincentives.choice import IncentiveMenu
from flowincentives.errors import DomainError, InputError
from flowincentives.flow import (
    DemandModel,
    build_demand_model,
    build_location_matrix,
    compose_a,
    deal_counts,
    value_of_saved_time,
)
from flowincentives.harness import Scenario, generate_synthetic, prepare, realized_travel_time
from flowincentives.network import Link, RoadNetwork, enumerate_routes

# Golden location matrix for the three-link example, 9 rows (time, link) by
# 6 columns (entrance time, route), as originally hand-tabulated. The second
# route's entries in that tabulation sit one row above where its own link
# sequence (link 1 then link 2) puts them: route 2 never touches link 0 and
# must traverse link 2 to reach the destination, so those columns cannot
# come from any walk of route 2 and carry a row slip. The builder follows
# the route; the affected entries are asserted against the row-shift
# relation below and documented here rather than silently patched.
GOLDEN_R = np.array(
    [
        # (t1,r1) (t1,r2) (t2,r1) (t2,r2) (t3,r1) (t3,r2)
        [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # t=1, link 0
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # t=1, link 1
        [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],  # t=1, link 2
        [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],  # t=2, link 0
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # t=2, link 1
        [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],  # t=2, link 2
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],  # t=3, link 0
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # t=3, link 1
        [0.0, 0.0, 0.5, 0.0, 0.5, 0.0],  # t=3, link 2
    ]
)
R1_COLUMNS = (0, 2, 4)
R2_COLUMNS = (1, 3, 5)


def stacked_location_matrix(scenario, routes):
    cols = []
    for entrance in (1, 2, 3):
        loc = build_location_matrix(
            scenario.net, routes, scenario.horizon, scenario.unit_length_hours, entrance
        )
        cols.append(loc.matrix)
    out = np.zeros((scenario.net.num_links * scenario.horizon, 6))
    for e, block in enumerate(cols):
        out[:, 2 * e] = block[:, 0]
        out[:, 2 * e + 1] = block[:, 1]
    return out


def test_location_matrix_first_route_matches_golden_table(appendix_c, appendix_c_pipe):
    generated = stacked_location_matrix(appendix_c, appendix_c_pipe.routes)
    for col in R1_COLUMNS:
        assert np.array_equal(generated[:, col], GOLDEN_R[:, col])


def test_location_matrix_first_route_entries(appendix_c_pipe):
    r = appendix_c_pipe.location.matrix
    assert r[0, 0] == 1.0  # t=1, entry link fills its whole first unit
    assert r[2, 0] == 0.5  # t=1, 0.1 h link inside a 0.2 h unit
    assert r[5, 0] == 0.5  # t=2, same link's second half
    assert r[:, 0].sum() == 2.0


def test_location_matrix_entries_are_exact_halves(appendix_c, appendix_c_pipe):
    generated = stacked_location_matrix(appendix_c, appendix_c_pipe.routes)
    assert set(np.unique(generated)) <= {0.0, 0.5, 1.0}


def test_location_matrix_second_route_row_shift(appendix_c, appendix_c_pipe):
    # the generated column reproduces every golden value exactly one row
    # below its tabulated position, consistent with a row slip in the
    # original tabulation; see the module-level note
    generated = stacked_location_matrix(appendix_c, appendix_c_pipe.routes)
    for col in R2_COLUMNS:
        golden_rows = np.nonzero(GOLDEN_R[:, col])[0]
        for row in golden_rows:
            assert generated[row + 1, col] == GOLDEN_R[row, col]
        # and the walk puts presence only on the route's own links
        links_touched = {int(r % 3) for r in np.nonzero(generated[:, col])[0]}
        assert links_touched <= {1, 2}
    assert not np.array_equal(generated[:, 1], GOLDEN_R[:, 1])


def test_location_matrix_single_link_unit_route():
    net = RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "b", 0.2, 5.0, 10.0),))
    routes = enumerate_routes(net, [("a", "b")])
    loc = build_location_matrix(net, routes, horizon=3, unit_length_hours=0.2)
    col = loc.matrix[:, 0]
    assert np.count_nonzero(col) == 1
    assert col[0] == 1.0
    assert loc.truncated_routes == ()


def test_location_matrix_truncation_flag(appendix_c, appendix_c_pipe):
    loc = build_location_matrix(
        appendix_c.net, appendix_c_pipe.routes, appendix_c.horizon, 0.2, entrance_time=3
    )
    assert loc.truncated_routes == (0, 1)


def fraction_walk(net, routes, horizon, unit_length_hours, entrance_time):
    """R by the plain walk in exact Fractions, unit by unit over the horizon."""
    t0 = [Fraction(str(lk.t0_hours)) for lk in net.links]
    unit = Fraction(str(float(unit_length_hours)))
    matrix = np.zeros((net.num_links * horizon, routes.num_routes))
    truncated = set()
    for j, route in enumerate(routes.routes):
        cursor = (entrance_time - 1) * unit
        for link_id in route.links:
            end = cursor + max(t0[link_id], unit)
            if end > horizon * unit:
                truncated.add(j)
            for t in range(horizon):
                overlap = min(end, (t + 1) * unit) - max(cursor, t * unit)
                if overlap > 0:
                    matrix[t * net.num_links + link_id, j] = float(overlap / unit)
            cursor += t0[link_id]
    return matrix, tuple(sorted(truncated))


def test_location_matrix_integer_ticks_match_fraction_walk(appendix_c):
    # the walk in integer ticks must give the exact-Fraction walk's R to the
    # bit, at units off the decimal grid too (1/3 h), from every entrance
    scenarios = [appendix_c, generate_synthetic(nodes=12, richness=3, tightness=1.3, drivers=12, seed=5)]
    for scenario in scenarios:
        routes = enumerate_routes(scenario.net, scenario.od_pairs)
        for horizon in (1, 2, 5):
            for unit in (0.2, 1 / 3, 0.15, 0.7):
                for entrance in range(1, horizon + 1):
                    loc = build_location_matrix(scenario.net, routes, horizon, unit, entrance)
                    matrix, truncated = fraction_walk(scenario.net, routes, horizon, unit, entrance)
                    assert np.array_equal(loc.matrix, matrix)
                    assert loc.truncated_routes == truncated


def test_location_matrix_validation(appendix_c, appendix_c_pipe):
    with pytest.raises(InputError):
        build_location_matrix(appendix_c.net, appendix_c_pipe.routes, 0, 0.2)
    with pytest.raises(InputError):
        build_location_matrix(appendix_c.net, appendix_c_pipe.routes, 3, -0.2)
    with pytest.raises(InputError):
        build_location_matrix(appendix_c.net, appendix_c_pipe.routes, 3, 0.2, entrance_time=4)


def test_compose_identity_like(appendix_c, appendix_c_pipe):
    loc = appendix_c_pipe.location
    probs = appendix_c_pipe.probabilities

    class OneColumn:
        matrix = np.eye(2)

    assert np.array_equal(compose_a(loc, OneColumn()), loc.matrix)


def test_compose_matches_hand_product(appendix_c_pipe):
    r = appendix_c_pipe.location.matrix
    p = appendix_c_pipe.probabilities.matrix
    a = compose_a(appendix_c_pipe.location, appendix_c_pipe.probabilities)
    hand = np.zeros_like(a)
    for i in range(r.shape[0]):
        for j in range(p.shape[1]):
            hand[i, j] = sum(r[i, k] * p[k, j] for k in range(r.shape[1]))
    assert np.allclose(a, hand, atol=1e-14)


def test_compose_dimension_mismatch(appendix_c_pipe):
    class Wrong:
        matrix = np.eye(3)

    with pytest.raises(InputError):
        compose_a(appendix_c_pipe.location, Wrong())


def test_compose_zero_location(appendix_c_pipe):
    class ZeroLoc:
        matrix = np.zeros((9, 2))

    a = compose_a(ZeroLoc(), appendix_c_pipe.probabilities)
    assert not a.any()


def test_expected_volume_deterministic_choice(appendix_c_pipe):
    r = appendix_c_pipe.location.matrix

    class Deterministic:
        matrix = np.eye(2)

    a = compose_a(appendix_c_pipe.location, Deterministic())
    counts = np.array([1.0, 1.0])  # one driver on each route
    assert np.allclose(a @ counts, r[:, 0] + r[:, 1])


def test_expected_volume_empty_and_baseline(appendix_c_pipe):
    a = appendix_c_pipe.a_matrix
    assert not (a @ np.zeros(a.shape[1])).any()
    # both drivers on the $0 column
    v = a @ appendix_c_pipe.demand.zero_counts(appendix_c_pipe.costs)
    assert np.allclose(v, 2.0 * a[:, 0])


def test_scenario1_volume_matches_matrix_product(appendix_c_pipe):
    rng = np.random.default_rng(7)
    n_cols = appendix_c_pipe.a_matrix.shape[1]
    s = rng.dirichlet(np.ones(n_cols), size=3).T  # column-stochastic, 3 drivers
    slices = scenario1_expected_volume(
        s, appendix_c_pipe.probabilities, appendix_c_pipe.location
    )
    full = appendix_c_pipe.a_matrix @ s.sum(axis=1)
    n_links = appendix_c_pipe.location.num_links
    for t, block in enumerate(slices):
        assert np.allclose(block, full[t * n_links : (t + 1) * n_links], atol=1e-12)


def test_total_travel_time_values():
    # one 0.1 h link of capacity 10 filling a 0.1 h unit, so A = [[1]]
    net = RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "b", 0.1, 10.0, 5.0),))
    scenario = Scenario(
        net=net,
        od_pairs=[("a", "b")],
        demand=[(0, 1, 10)],
        horizon=1,
        unit_length_hours=0.1,
        menu=IncentiveMenu((0.0,)),
    )
    pipe = prepare(scenario)
    assert realized_travel_time(pipe, np.zeros(1)) == 0.0
    # ten vehicles at capacity, each taking 1.15 * t0
    assert realized_travel_time(pipe, np.array([10.0])) == pytest.approx(1.15)
    with pytest.raises(DomainError):
        realized_travel_time(dataclasses.replace(pipe, background=np.array([-11.0])), np.array([10.0]))


def test_total_travel_time_matches_loop(appendix_c_pipe):
    rng = np.random.default_rng(3)
    counts = rng.uniform(0.0, 250.0, size=appendix_c_pipe.a_matrix.shape[1])
    v = appendix_c_pipe.a_matrix @ counts + appendix_c_pipe.background
    assert realized_travel_time(appendix_c_pipe, counts) == pytest.approx(
        total_travel_time_loop(v, appendix_c_pipe.scenario.net), rel=1e-12
    )


def test_total_travel_time_convex(appendix_c_pipe):
    rng = np.random.default_rng(5)
    n_cols = appendix_c_pipe.a_matrix.shape[1]
    for _ in range(20):
        u = rng.uniform(0.0, 150.0, size=n_cols)
        d = rng.uniform(0.0, 1.0, size=n_cols)
        h = 1e-3
        f = lambda x: realized_travel_time(appendix_c_pipe, x)
        second = f(u + 2 * h * d) - 2 * f(u + h * d) + f(u)
        assert second >= -1e-10


def test_value_of_saved_time():
    assert value_of_saved_time(2.0, 1.0) == pytest.approx(157.8)
    assert value_of_saved_time(1.0, 1.0) == 0.0
    assert value_of_saved_time(1.0, 2.0) == pytest.approx(-157.8)
    with pytest.raises(InputError):
        value_of_saved_time(1.0, 1.0, vot=0.0)


def test_conservation_and_linearity(appendix_c_pipe):
    rng = np.random.default_rng(11)
    probs = appendix_c_pipe.probabilities.matrix
    a = appendix_c_pipe.a_matrix
    n_cols = a.shape[1]
    for n_drivers in (1, 3, 6):
        s = rng.dirichlet(np.ones(n_cols), size=n_drivers).T
        route_mass = probs @ s.sum(axis=1)
        assert route_mass.sum() == pytest.approx(n_drivers, abs=1e-9)
        s2 = rng.dirichlet(np.ones(n_cols), size=n_drivers).T
        lam = 0.3
        u, u2 = s.sum(axis=1), s2.sum(axis=1)
        mix = a @ (lam * u + (1 - lam) * u2)
        split = lam * (a @ u) + (1 - lam) * (a @ u2)
        assert np.allclose(mix, split, atol=1e-12)


def test_demand_model_constraint(appendix_c_pipe):
    demand = build_demand_model(
        appendix_c_pipe.routes, appendix_c_pipe.scenario.menu, [0, 0, 0]
    )
    assert np.all(demand.d_matrix.sum(axis=0) == 1.0)
    # any feasible binary assignment keeps D S 1 = q
    n_cols = appendix_c_pipe.a_matrix.shape[1]
    for choice in ([0, 1, 2], [3, 3, 0], [2, 2, 2]):
        s = np.zeros((n_cols, 3))
        for n, col in enumerate(choice):
            s[col, n] = 1.0
        assert np.allclose(demand.d_matrix @ s.sum(axis=1), demand.q)


def test_demand_model_validation(appendix_c_pipe):
    from flowincentives.flow import DemandModel

    with pytest.raises(InputError):
        DemandModel(
            q=np.array([2.0]),
            d_matrix=np.zeros((1, 4)),
            driver_to_od=(0, 0),
        )


def test_deal_counts_deals_ascending():
    # two OD pairs, drivers interleaved: each pair's drivers in ascending
    # order take its columns in ascending order
    demand = DemandModel(
        q=np.array([3.0, 2.0]),
        d_matrix=np.array([[1.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]]),
        driver_to_od=(0, 1, 0, 0, 1),
    )
    s = deal_counts(np.array([1, 0, 2, 0, 2]), demand)
    expected = np.zeros((5, 5))
    for col, driver in ((0, 0), (2, 2), (2, 3), (4, 1), (4, 4)):
        expected[col, driver] = 1.0
    assert np.array_equal(s, expected)


def test_deal_counts_rejects_bad_counts():
    demand = DemandModel(
        q=np.array([2.0]), d_matrix=np.ones((1, 3)), driver_to_od=(0, 0)
    )
    for counts in ([3, -1, 0], [1, 0, 0], [1.5, 0.5, 0], [1, 1]):
        with pytest.raises(InputError):
            deal_counts(np.array(counts, dtype=float), demand)
