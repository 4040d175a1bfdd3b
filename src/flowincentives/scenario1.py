"""Free-flow incentive assignment as a mixed-integer linear program.

Chooses how many eligible drivers of each OD pair receive each (route,
incentive) offer, minimizing the expected free-flow travel time subject to
the budget and to per-(time, link) expected-volume caps scaled by the
multiplier ``alpha``. The multiplier exists because heavily congested
instances admit no assignment under the raw capacities; it applies only
inside the optimization, never when realized travel time is evaluated
afterwards.

Offer cost is charged per offer made, not per offer accepted.

The MILP fixes two kinds of column at 0 through its upper bounds: every
column equal to an earlier one in cost, budget, capacity and demand rows
(each route's $0 offer leaves the driver's choice unchanged, so a pair's
$0 columns are exact copies), and every column of a pair with no drivers.
Both are exact: a copy's count can move to its original without changing
any row or the objective. The model keeps every column, so decoding and
the rest of the pipeline see the full offer layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choice import amount_tally
from .errors import InfeasibleModelError, InputError, SolverLimitError
from .flow import compose_a, entry_pairs
from .lp import LinearProgram, solve_binary_mip

_CAP_TOL = 1e-9


@dataclass(frozen=True)
class Scenario1Config:
    """Budget in dollars, capacity multiplier, and solver gap."""

    budget: float
    alpha: float = 1.0
    rel_gap: float = 0.01

    def __post_init__(self):
        # alpha = 0 is degenerate but legal: it makes every loaded capacity
        # row infeasible, which the solver then reports
        for name in ("budget", "alpha", "rel_gap"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise InputError(f"{name} must be nonnegative and finite")


@dataclass
class Scenario1Model:
    """Built MILP plus the metadata needed to decode and diagnose it."""

    lp: LinearProgram
    demand: object  # DemandModel: the D u = q rows and zero counts
    num_links: int
    free_flow_cost: np.ndarray
    costs: np.ndarray
    background: np.ndarray
    capacity_rhs: np.ndarray
    rel_gap: float  # the config's gap, which solve_scenario1 uses by default


@dataclass
class Scenario1Report:
    counts: np.ndarray  # offer count per column, over the eligible drivers
    objective: float  # expected free-flow hours of the decision drivers
    cost_used: float
    offer_counts: dict  # dollar amount -> number of offers
    status: str
    gap: float
    nodes: int  # branch-and-bound nodes
    pivots: int  # simplex pivots over the root and every node LP
    fixed_columns: int  # columns the MILP fixes at 0: copies and empty pairs


def build_scenario1(routes, probabilities, location, demand, net, cfg, background, columns=None):
    """Assemble the MILP: one integer offer count per (route, incentive) column.

    ``demand`` supplies the eligible drivers; its rows D u = q make each OD
    pair's counts add up to its driver count. Drivers of one pair are
    interchangeable, so ``columns`` (each driver's allowed columns) must be
    that driver's whole OD block. Capacity rows cap the expected volume of
    every (time, link) cell at alpha times the link capacity minus the fixed
    background volume. The objective coefficient of a column is the expected
    free-flow time of a driver given that offer: the per-link free-flow
    times, stacked over the horizon, pushed through A = R P.
    """
    a_matrix = compose_a(location, probabilities)
    background = np.asarray(background, dtype=float)
    if columns is not None and not np.array_equal(entry_pairs(demand.d_matrix, columns), demand.driver_to_od):
        raise InputError("each driver's columns must be its OD pair's whole block")

    free_flow_cost = a_matrix.T @ np.tile(net.free_flow_times, location.horizon)
    col_cost = probabilities.costs
    capacity_rhs = cfg.alpha * np.tile(net.capacity_vector, location.horizon) - background
    used = demand.d_matrix[demand.q > 0].any(axis=0)
    # all-zero rows only matter when background already busts the cap
    kept = np.any(a_matrix[:, used] > 0.0, axis=1) | (capacity_rhs < -_CAP_TOL)
    a_ub = np.vstack([col_cost, a_matrix[kept]])
    # fix at 0 every column equal to an earlier one, and every column of a
    # pair with no drivers, so branch-and-bound never splits between copies
    stacked = np.vstack([free_flow_cost, a_ub, demand.d_matrix]).T
    _, first = np.unique(stacked, axis=0, return_index=True)
    ub = np.zeros(free_flow_cost.size)
    ub[first] = np.inf
    ub[~used] = 0.0
    lp = LinearProgram(
        c=free_flow_cost,
        a_ub=a_ub,
        b_ub=np.concatenate([[cfg.budget], capacity_rhs[kept]]),
        a_eq=demand.d_matrix,
        b_eq=demand.q,
        ub=ub,
    )
    return Scenario1Model(
        lp=lp,
        demand=demand,
        num_links=net.num_links,
        free_flow_cost=free_flow_cost,
        costs=col_cost,
        background=background,
        capacity_rhs=capacity_rhs,
        rel_gap=cfg.rel_gap,
    )


def candidate_binding_rows(model, a_matrix):
    """Capacity cells violated even by the all-$0 assignment, as (link, t).

    When the model is infeasible these are the usual culprits; incentives
    can only shift expected volume between a pair's routes, so a cell that
    the cheapest assignment already busts is a strong suspect.
    """
    zero_load = model.background + a_matrix @ model.demand.zero_counts(model.costs)
    cap_abs = model.capacity_rhs + model.background
    violated = np.nonzero(zero_load > cap_abs + _CAP_TOL)[0]
    return [(int(r % model.num_links), int(r // model.num_links)) for r in violated]


def _check_counts(model, counts):
    """Raise AssertionError unless the counts are nonnegative integers that
    meet every OD pair's demand exactly and every kept row of the MILP (the
    budget and the capacity rows) to within 1e-6."""
    if np.any(counts < 0) or not np.array_equal(counts, np.round(counts)):
        raise AssertionError("scenario-1 counts are not nonnegative integers")
    if not np.array_equal(model.demand.d_matrix @ counts, model.demand.q):
        raise AssertionError("scenario-1 counts do not meet the per-OD demand")
    excess = model.lp.a_ub @ counts - model.lp.b_ub
    if excess[0] > 1e-6:
        raise AssertionError("scenario-1 solution exceeds the budget")
    if np.any(excess[1:] > 1e-6):
        raise AssertionError("scenario-1 solution exceeds a capacity row")


def solve_scenario1(model, menu, a_matrix, rel_gap=None, node_limit=200_000):
    """Solve the built MILP for its optimal offer counts.

    ``rel_gap`` defaults to the gap of the config the model was built with.

    Raises InfeasibleModelError naming candidate binding capacity rows when
    no assignment fits under the alpha-scaled capacities; callers may retry
    with a larger alpha. Raises SolverLimitError when ``node_limit`` runs
    out before any assignment is found, or a simplex run its pivot budget.
    """
    rel_gap = model.rel_gap if rel_gap is None else rel_gap
    res = solve_binary_mip(model.lp, range(a_matrix.shape[1]), rel_gap=rel_gap, node_limit=node_limit)
    if res.status == "infeasible":
        raise InfeasibleModelError(
            "no offer assignment satisfies the scaled capacity rows",
            binding_rows=candidate_binding_rows(model, a_matrix),
            nodes=res.nodes,
            pivots=res.pivots,
        )
    if res.x is None:
        raise SolverLimitError("node_limit", node_limit)
    counts = res.x
    _check_counts(model, counts)
    return Scenario1Report(
        counts=counts,
        objective=float(model.free_flow_cost @ counts),
        cost_used=float(model.costs @ counts),
        offer_counts=amount_tally(menu, counts),
        status=res.status,
        gap=res.gap,
        nodes=res.nodes,
        pivots=res.pivots,
        fixed_columns=int(np.count_nonzero(model.lp.ub == 0.0)),
    )
