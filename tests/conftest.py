import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowincentives.harness import appendix_c_scenario, prepare
from flowincentives.network import Link, RoadNetwork


@pytest.fixture(scope="session")
def appendix_c():
    return appendix_c_scenario()


@pytest.fixture(scope="session")
def appendix_c_pipe(appendix_c):
    return prepare(appendix_c)


@pytest.fixture
def parallel_links_net():
    """One OD pair, three parallel links with distinct free-flow times."""
    return RoadNetwork(
        nodes=("a", "b"),
        links=(
            Link(0, "a", "b", 0.15, 10.0, 7.5),
            Link(1, "a", "b", 0.05, 10.0, 2.5),
            Link(2, "a", "b", 0.10, 10.0, 5.0),
        ),
    )


def all_simple_paths(net, origin, destination):
    """Exhaustive DFS over simple paths; independent of the package's search."""
    adjacency = {}
    for lk in net.links:
        adjacency.setdefault(lk.tail, []).append(lk)
    paths = []

    def walk(node, visited, links, cost):
        if node == destination:
            paths.append((cost, tuple(links)))
            return
        for lk in adjacency.get(node, []):
            if lk.head not in visited:
                walk(lk.head, visited | {lk.head}, links + [lk.id], cost + lk.t0_hours)

    walk(origin, {origin}, [], 0.0)
    return sorted(paths)


def total_travel_time_loop(vhat, net):
    """Naive double-loop evaluation of the total-travel-time sum."""
    n_links = net.num_links
    total = 0.0
    for t in range(len(vhat) // n_links):
        for ell in range(n_links):
            v = vhat[t * n_links + ell]
            lk = net.links[ell]
            total += v * lk.t0_hours * (1.0 + 0.15 * (v / lk.capacity) ** 4)
    return total


def scenario1_expected_volume(s_matrix, probabilities, location):
    """Per-time expected volume vectors accumulated driver by driver.

    Returns a list of length-E vectors, one per time unit. Computed by an
    explicit sum over drivers and offer columns so it can cross-check the
    matrix product A @ S @ 1.
    """
    s = np.asarray(s_matrix, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    n_links = location.num_links
    route_mass = np.zeros(probabilities.num_routes)
    for n in range(s.shape[1]):
        for col in np.nonzero(s[:, n])[0]:
            route_mass += s[col, n] * probabilities.matrix[:, col]
    flat = location.matrix @ route_mass
    return [flat[t * n_links : (t + 1) * n_links] for t in range(location.horizon)]


def make_assignment(columns, n_cols, choices):
    """Binary assignment matrix from one chosen column per driver."""
    s = np.zeros((n_cols, len(choices)))
    for n, col in enumerate(choices):
        s[col, n] = 1.0
    return s


def per_driver_incidence(columns, n_cols):
    """Matrices of a per-driver binary model with one x per (driver, column).

    Returns (onehot, assign): onehot @ x gives the column counts and
    assign @ x each driver's number of offers. Lets scipy solve the
    per-driver formulation the package's count-space programs replace.
    """
    pairs = [(n, int(c)) for n, cols in enumerate(columns) for c in cols]
    onehot = np.zeros((n_cols, len(pairs)))
    assign = np.zeros((len(columns), len(pairs)))
    for j, (n, c) in enumerate(pairs):
        onehot[c, j] = 1.0
        assign[n, j] = 1.0
    return onehot, assign


def scipy_milp_cases(count=6, seed=31):
    """Frozen (scenario, budget) draws with 8-12 drivers, past the oracle's reach."""
    from flowincentives.harness import generate_synthetic

    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        drivers = int(rng.integers(8, 13))
        richness = int(rng.integers(2, 4))
        tightness = float(rng.uniform(0.8, 1.5))
        budget = float(rng.choice([0.0, 4.0, 12.0, 30.0]))
        scenario = generate_synthetic(
            nodes=9 if richness == 3 else 8,
            richness=richness,
            tightness=tightness,
            drivers=drivers,
            seed=300 + i,
        )
        cases.append((scenario, budget))
    return cases
