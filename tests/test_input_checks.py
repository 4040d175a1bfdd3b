"""Input checks that no other test reaches: each case trips one check and
matches its message, so deleting the check fails the case."""

import dataclasses
import math
import re

import numpy as np
import pytest

from flowincentives.admm import AdmmProblem, round_counts
from flowincentives.choice import build_choice_matrix
from flowincentives.errors import InfeasibleModelError, InputError
from flowincentives.flow import DemandModel
from flowincentives.harness import (
    appendix_c_scenario,
    brute_force_oracle,
    generate_synthetic,
    prepare,
    select_cohort,
)
from flowincentives.lp import LinearProgram, solve_binary_mip
from flowincentives.network import Link, RoadNetwork, enumerate_routes, network_from_json


def scenario(**changes):
    return dataclasses.replace(appendix_c_scenario(), **changes)


def admm_problem(**changes):
    pipe = prepare(appendix_c_scenario())
    fields = dict(
        a_matrix=pipe.a_matrix,
        d_matrix=pipe.demand.d_matrix,
        costs=pipe.costs,
        q=pipe.demand.q,
        budget=5.0,
        t0_row=pipe.t0_row,
        w_row=pipe.w_row,
        columns=pipe.columns,
        background=pipe.background,
    )
    return AdmmProblem(**{**fields, **changes})


def rounding(costs, budget):
    pipe = prepare(appendix_c_scenario())
    return round_counts(np.full(pipe.costs.size, 0.5), pipe.demand, costs, budget)


def routes():
    return prepare(appendix_c_scenario()).routes


CASES = {
    "scenario penetration": (
        lambda: scenario(penetration_rate=0.0),
        InputError,
        "penetration rate must lie in (0, 1]",
    ),
    "scenario unknown OD": (lambda: scenario(demand=[(1, 1, 2)]), InputError, "unknown OD pair 1"),
    "scenario entrance": (
        lambda: scenario(demand=[(0, 4, 2)]),
        InputError,
        "entrance time must fall inside the horizon",
    ),
    "scenario negative count": (
        lambda: scenario(demand=[(0, 1, -1)]),
        InputError,
        "demand counts must be nonnegative",
    ),
    "scenario background shape": (
        lambda: scenario(background_volume=np.zeros(8)),
        InputError,
        "background volume must have E * horizon entries",
    ),
    "synthetic richness": (lambda: generate_synthetic(richness=0), InputError, "richness must be at least 1"),
    "cohort penetration": (
        lambda: select_cohort(range(10), 1.5, 0),
        InputError,
        "penetration must lie in (0, 1]",
    ),
    "network duplicate nodes": (
        lambda: RoadNetwork(nodes=("a", "a", "b"), links=(Link(0, "a", "b", 0.1, 1.0, 1.0),)),
        InputError,
        "duplicate node ids",
    ),
    "network JSON": (
        lambda: network_from_json({"nodes": ["a", "b"]}),
        InputError,
        "malformed network JSON",
    ),
    "max routes": (
        lambda: enumerate_routes(appendix_c_scenario().net, [("v1", "v3")], max_routes=0),
        InputError,
        "max_routes must be >= 1",
    ),
    "choice estimates": (
        lambda: build_choice_matrix(routes(), appendix_c_scenario().menu, [0.2]),
        InputError,
        "need one travel-time estimate per route",
    ),
    "demand q sum": (
        lambda: DemandModel(q=np.array([2.0]), d_matrix=np.ones((1, 3)), driver_to_od=(0,)),
        InputError,
        "per-OD counts must sum to the driver count",
    ),
    "admm column dims": (
        lambda: admm_problem(d_matrix=np.ones((1, 3))),
        InputError,
        "column dimensions disagree",
    ),
    "admm q length": (
        lambda: admm_problem(q=np.array([2.0, 0.0])),
        InputError,
        "demand vector must have one entry per OD pair",
    ),
    "admm row parameters": (
        lambda: admm_problem(t0_row=np.ones(2)),
        InputError,
        "per-row link parameters must match the volume rows",
    ),
    "admm NaN budget": (
        lambda: admm_problem(budget=math.nan),
        InputError,
        "budget must be nonnegative and finite",
    ),
    "admm background length": (
        lambda: admm_problem(background=np.zeros(2)),
        InputError,
        "background volume must have one entry per volume row",
    ),
    "rounding negative costs": (
        lambda: rounding(np.array([0.0, -5.0, 0.0, 5.0]), 5.0),
        InputError,
        "offer costs must be nonnegative",
    ),
    "rounding infeasible budget": (
        lambda: rounding(np.array([1.0, 5.0, 1.0, 5.0]), 1.0),
        InfeasibleModelError,
        "no integer offer counts meet the budget",
    ),
    "oracle NaN budget": (
        lambda: brute_force_oracle(appendix_c_scenario(), math.nan),
        InputError,
        "budget must be nonnegative and finite",
    ),
    "oracle infeasible": (
        lambda: brute_force_oracle(appendix_c_scenario(), 5.0, objective="free_flow", alpha=0.001),
        InfeasibleModelError,
        "no feasible assignment under the given constraints",
    ),
    "LP bound length": (
        lambda: LinearProgram(c=[1.0, 2.0], ub=np.array([1.0])),
        InputError,
        "bound vectors must have one entry per variable",
    ),
    "MIP negative gap": (
        lambda: solve_binary_mip(LinearProgram(c=[1.0], ub=[1.0]), [0], rel_gap=-0.1),
        InputError,
        "rel_gap must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_raises(case):
    make, error, message = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        make()
