import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_simple_paths
from flowincentives.errors import DomainError, InfeasibleDemandError, InputError
from flowincentives.network import (
    Link,
    RoadNetwork,
    bpr_travel_time,
    enumerate_routes,
    network_from_json,
    network_to_json,
    shortest_path,
)


def test_shortest_path_worked_example(appendix_c):
    net = appendix_c.net
    route = shortest_path(net, "v1", "v3")
    assert route.links == (0, 2)
    assert route.free_flow_time == pytest.approx(0.2)

    masked = shortest_path(net, "v1", "v3", mask={0})
    assert masked.links == (1, 2)
    assert masked.free_flow_time == pytest.approx(0.3)

    assert shortest_path(net, "v3", "v1") is None


def test_shortest_path_input_errors(appendix_c):
    with pytest.raises(InputError):
        shortest_path(appendix_c.net, "v1", "nope")
    with pytest.raises(InputError):
        shortest_path(appendix_c.net, "v1", "v1")


def test_shortest_path_lexicographic_tie_break():
    # two equal-cost two-link paths; ids (0, 3) beat (1, 2)
    net = RoadNetwork(
        nodes=("a", "m1", "m2", "b"),
        links=(
            Link(0, "a", "m1", 0.1, 10.0, 5.0),
            Link(1, "a", "m2", 0.1, 10.0, 5.0),
            Link(2, "m2", "b", 0.1, 10.0, 5.0),
            Link(3, "m1", "b", 0.1, 10.0, 5.0),
        ),
    )
    assert shortest_path(net, "a", "b").links == (0, 3)


def test_enumerate_routes_worked_example(appendix_c):
    routes = enumerate_routes(appendix_c.net, appendix_c.od_pairs, max_routes=4)
    assert [r.links for r in routes.routes] == [(0, 2), (1, 2)]
    assert routes.route_of_od == {0: [0, 1]}


def test_enumerate_routes_single_link():
    net = RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "b", 0.1, 5.0, 5.0),))
    routes = enumerate_routes(net, [("a", "b")], max_routes=4)
    assert len(routes.routes) == 1


def test_enumerate_routes_parallel_ascending(parallel_links_net):
    routes = enumerate_routes(parallel_links_net, [("a", "b")], max_routes=4)
    times = [r.free_flow_time for r in routes.routes]
    assert [r.links for r in routes.routes] == [(1,), (2,), (0,)]
    assert times == sorted(times)
    # exhaustive oracle: these are exactly the simple paths, cheapest first
    oracle = all_simple_paths(parallel_links_net, "a", "b")
    assert [r.links for r in routes.routes] == [links for _, links in oracle]


def test_enumerate_routes_masked_links_avoided(appendix_c):
    # successive routes reuse a link only when every path needs it
    routes = enumerate_routes(appendix_c.net, appendix_c.od_pairs, max_routes=4)
    first, second = routes.routes
    shared = set(first.links) & set(second.links)
    for link_id in shared:
        assert shortest_path(appendix_c.net, "v1", "v3", mask={link_id}) is None


def test_enumerate_routes_infeasible_pair(appendix_c):
    with pytest.raises(InfeasibleDemandError) as err:
        enumerate_routes(appendix_c.net, [("v1", "v3"), ("v3", "v1")])
    assert err.value.od_pairs == [("v3", "v1")]


def test_route_free_flow_time_matches_incidence(appendix_c_pipe):
    t0 = appendix_c_pipe.scenario.net.free_flow_times
    for route in appendix_c_pipe.routes.routes:
        assert route.free_flow_time == pytest.approx(t0[list(route.links)].sum())


def test_bpr_values():
    assert bpr_travel_time(0.1, 100.0, 0.0) == pytest.approx(0.1)
    assert bpr_travel_time(0.1, 100.0, 100.0) == pytest.approx(0.115)
    assert bpr_travel_time(0.2, 50.0, 75.0) == pytest.approx(0.351875, abs=1e-15)


def test_bpr_domain_errors():
    with pytest.raises(DomainError):
        bpr_travel_time(0.1, 100.0, -1.0)
    with pytest.raises(DomainError):
        bpr_travel_time(-0.1, 100.0, 1.0)
    with pytest.raises(DomainError):
        bpr_travel_time(0.1, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    t0=st.floats(0.01, 2.0),
    w=st.floats(0.1, 500.0),
    v=st.floats(0.0, 1000.0),
)
def test_bpr_increasing_and_convex(t0, w, v):
    # step large enough that the quartic increment stays float-resolvable
    h = 0.01 * w + 0.001 * v
    lo, mid, hi = bpr_travel_time(t0, w, v), bpr_travel_time(t0, w, v + h), bpr_travel_time(t0, w, v + 2 * h)
    assert mid > lo  # strictly increasing
    assert hi - 2 * mid + lo >= -1e-12  # nonnegative second difference


def test_network_validation():
    with pytest.raises(InputError):
        RoadNetwork(nodes=("a", "b"), links=(Link(1, "a", "b", 0.1, 1.0, 1.0),))  # gap in ids
    with pytest.raises(InputError):
        RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "a", 0.1, 1.0, 1.0),))
    with pytest.raises(InputError):
        RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "c", 0.1, 1.0, 1.0),))
    with pytest.raises(InputError):
        RoadNetwork(nodes=("a", "b"), links=(Link(0, "a", "b", -0.1, 1.0, 1.0),))


def test_network_json_round_trip(appendix_c):
    obj = network_to_json(appendix_c.net, [("v1", "v3", 2)])
    net, od = network_from_json(obj)
    assert net.nodes == appendix_c.net.nodes
    assert net.links == appendix_c.net.links
    assert od == [("v1", "v3", 2)]
    assert np.allclose(net.free_flow_times, [0.1, 0.2, 0.1])
    assert np.allclose(net.capacity_vector, [100.0, 100.0, 100.0])
