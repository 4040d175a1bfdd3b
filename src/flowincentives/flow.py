"""Flow propagation: link-presence matrices, demand and offer counts.

The location matrix R maps a route choice to expected link presence over the
horizon: row t * E + link holds the fraction of time unit t a driver on that
route occupies the link. Presence on each link starts at the link's true
cumulative entry time and lasts at least one full time unit (longer links
keep their true traversal time), matching the worked-example convention in
which a 0.1 h link inside a 0.2 h unit contributes 0.5 to two consecutive
units while the entry link fills its whole first unit.

Composing R with the offer matrix P gives A = R @ P, so offer counts u, one
per (route, incentive) column, load the (time, link) rows with expected
volume A @ u. ``deal_counts`` deals counts to a per-driver assignment S
only when a caller asks for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .choice import column_offers
from .errors import InputError

DEFAULT_VALUE_OF_TIME = 157.8  # dollars per hour


@dataclass(frozen=True)
class LocationMatrix:
    """Per-(time, link) presence fractions for each route.

    ``matrix`` has E * horizon rows (row = t * E + link) and one column per
    route, for drivers entering at the entrance time it was built for.
    ``truncated_routes`` flags routes whose tail occupancy ran past the
    horizon and was dropped.
    """

    matrix: np.ndarray = field(compare=False)
    horizon: int
    num_links: int
    truncated_routes: tuple


@dataclass(frozen=True)
class DemandModel:
    """Decision-driver demand: per-OD counts and the column-to-OD map.

    ``d_matrix`` is K x (routes * menu) with exactly one 1 per column,
    ``q`` the per-OD driver counts, ``driver_to_od`` one OD index per driver.
    """

    q: np.ndarray = field(compare=False)
    d_matrix: np.ndarray = field(compare=False)
    driver_to_od: tuple

    def __post_init__(self):
        if not np.all(self.d_matrix.sum(axis=0) == 1):
            raise InputError("every (route, incentive) column must map to one OD pair")
        if int(self.q.sum()) != len(self.driver_to_od):
            raise InputError("per-OD counts must sum to the driver count")

    @property
    def num_drivers(self):
        return len(self.driver_to_od)

    @cached_property
    def blocks(self):
        """Each OD pair's columns, ascending: its routes' offers."""
        return [np.nonzero(row > 0)[0] for row in self.d_matrix]

    def zero_counts(self, costs, q=None):
        """Offer counts with each pair's ``q`` drivers (default: this model's)
        on its cheapest column, which is the $0 offer on its first route."""
        u = np.zeros(self.d_matrix.shape[1])
        u[np.where(self.d_matrix > 0, costs, np.inf).argmin(axis=1)] = self.q if q is None else q
        return u


def build_demand_model(routes, menu, driver_to_od):
    """Build D, q and the driver map from a RouteSet and driver OD indices."""
    n_od = len(routes.od_pairs)
    od_of_route = np.zeros(routes.num_routes, dtype=int)
    for od_index, members in routes.route_of_od.items():
        od_of_route[members] = od_index
    od_of_column = od_of_route[column_offers(menu, routes.num_routes)[0]]
    d_matrix = (od_of_column == np.arange(n_od)[:, None]).astype(float)
    q = np.bincount(np.asarray(driver_to_od, dtype=int), minlength=n_od).astype(float)
    return DemandModel(q=q, d_matrix=d_matrix, driver_to_od=tuple(int(k) for k in driver_to_od))


def deal_counts(counts, demand):
    """Per-driver binary assignment S with column sums equal to ``counts``.

    Each OD pair's drivers, in ascending order, take that pair's columns in
    ascending order, one column per unit of count. Drivers of one pair are
    interchangeable, so this is the only place the package builds S from
    the offer counts its integer programs choose.
    """
    u = np.asarray(counts, dtype=float)
    if (
        u.shape != (demand.d_matrix.shape[1],)
        or np.any(u < 0)
        or np.any(u != np.round(u))
        or not np.array_equal(demand.d_matrix @ u, demand.q)
    ):
        raise InputError("offer counts must be nonnegative integers with D u = q")
    s_matrix = np.zeros((u.size, demand.num_drivers))
    driver_to_od = np.asarray(demand.driver_to_od, dtype=int)
    for k, cols in enumerate(demand.blocks):
        drivers = np.nonzero(driver_to_od == k)[0]
        s_matrix[np.repeat(cols, u[cols].astype(int)), drivers] = 1.0
    return s_matrix


def build_location_matrix(net, routes, horizon, unit_length_hours, entrance_time=1):
    """Walk each route at free-flow speed and record per-unit link presence.

    Drivers enter at the start of time unit ``entrance_time`` (1-based).
    A link entered at cumulative time c occupies [c, c + max(t0, unit)];
    each (time, link) entry is that window's overlap with the unit divided
    by the unit length. Occupancy past the horizon is dropped and the route
    is flagged as truncated.

    The walk runs in exact integer ticks of 1 / lcm of the denominators of
    every t0 and of the unit, each read through its decimal representation,
    so grid-aligned inputs produce exact entries like 0.5 instead of
    accumulated float noise; an entry is ticks / ticks, correctly rounded.
    """
    if not (math.isfinite(unit_length_hours) and unit_length_hours > 0):
        raise InputError("unit length must be positive and finite")
    if horizon < 1:
        raise InputError("horizon must be at least one unit")
    if entrance_time < 1 or entrance_time > horizon:
        raise InputError("entrance time must fall inside the horizon")
    n_links = net.num_links
    t0 = [Fraction(str(lk.t0_hours)) for lk in net.links]
    unit = Fraction(str(float(unit_length_hours)))
    ticks = math.lcm(unit.denominator, *(f.denominator for f in t0))
    t0 = [int(f * ticks) for f in t0]
    unit = int(unit * ticks)
    matrix = np.zeros((n_links * horizon, routes.num_routes))
    truncated = []
    end_of_horizon = horizon * unit
    for j, route in enumerate(routes.routes):
        cursor = (entrance_time - 1) * unit
        for link_id in route.links:
            occ_start = cursor
            occ_end = cursor + max(t0[link_id], unit)
            if occ_end > end_of_horizon:
                truncated.append(j)
            # the units the window overlaps, each by a positive amount
            for t in range(occ_start // unit, min(horizon, -(-occ_end // unit))):
                overlap = min(occ_end, (t + 1) * unit) - max(occ_start, t * unit)
                matrix[t * n_links + link_id, j] = overlap / unit
            cursor += t0[link_id]
    return LocationMatrix(
        matrix=matrix,
        horizon=horizon,
        num_links=n_links,
        truncated_routes=tuple(sorted(set(truncated))),
    )


def compose_a(location, probabilities):
    """Composite presence-per-offer matrix A = R @ P."""
    r = location.matrix
    p = probabilities.matrix
    if r.shape[1] != p.shape[0]:
        raise InputError(
            f"location matrix has {r.shape[1]} routes but choice matrix has {p.shape[0]}"
        )
    return r @ p


def value_of_saved_time(baseline_tt, new_tt, vot=DEFAULT_VALUE_OF_TIME):
    """Dollar value of the travel-time change; negative when time got worse."""
    if not (math.isfinite(vot) and vot > 0):
        raise InputError("value of time must be positive and finite")
    return (baseline_tt - new_tt) * vot
