"""Input checks that no other test reaches: each case trips one check and
matches its message, so deleting the check fails the case."""

import dataclasses
import math
import re

import numpy as np
import pytest

from flowincentives import harness
from flowincentives.admm import AdmmConfig, AdmmProblem, round_counts
from flowincentives.choice import build_choice_matrix
from flowincentives.errors import InfeasibleModelError, InputError
from flowincentives.flow import DemandModel
from flowincentives.harness import (
    appendix_c_scenario,
    brute_force_oracle,
    generate_synthetic,
    prepare,
    run_experiment,
    scenario_from_json,
    scenario_to_json,
    select_cohort,
    sweep,
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


def loaded(key, value, where=lambda obj: obj):
    """The worked example's JSON with ``where(obj)[key] = value``, loaded."""
    obj = scenario_to_json(appendix_c_scenario())
    where(obj)[key] = value
    return scenario_from_json(obj)


def one_link_network(**changes):
    """The JSON of a network with one link a -> b, its fields changed."""
    link = {"id": 0, "from": "a", "to": "b", "t0_hours": 0.1, "capacity": 1, "length_miles": 1, **changes}
    return {"nodes": ["a", "b"], "links": [link], "od_pairs": []}


def first_demand(obj):
    return obj["demand"][0]


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
    "JSON fractional count": (
        lambda: loaded("count", 2.7, first_demand),
        InputError,
        "count must be a whole number, got 2.7",
    ),
    "JSON bool entrance": (
        lambda: loaded("entrance_time", True, first_demand),
        InputError,
        "entrance_time must be a whole number, got True",
    ),
    "JSON fractional horizon": (lambda: loaded("horizon", 2.9), InputError, "horizon must be a whole number, got 2.9"),
    "JSON fractional seed": (lambda: loaded("seed", 0.5), InputError, "seed must be a whole number, got 0.5"),
    "JSON fractional OD demand": (
        lambda: loaded("demand", 2.5, lambda obj: obj["network"]["od_pairs"][0]),
        InputError,
        "od_pairs demand must be a whole number, got 2.5",
    ),
    "JSON fractional link id": (
        lambda: loaded("id", 1.5, lambda obj: obj["network"]["links"][1]),
        InputError,
        "link id must be a whole number, got 1.5",
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
    **{
        f"network JSON string {field}": (
            lambda field=field: network_from_json(one_link_network(**{field: "fast"})),
            InputError,
            "malformed network JSON: could not convert string to float: 'fast'",
        )
        for field in ("t0_hours", "capacity", "length_miles")
    },
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
    "admm negative seed": (lambda: AdmmConfig(seed=-1), InputError, "seed must be nonnegative"),
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
    "oracle alpha with bpr": (
        lambda: brute_force_oracle(appendix_c_scenario(), 5.0, alpha=0.001),
        InputError,
        "alpha caps the free_flow objective's capacity rows; objective is 'bpr'",
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


def test_integral_floats_still_load():
    obj = scenario_to_json(appendix_c_scenario())
    obj["horizon"], obj["seed"], obj["demand"][0]["count"] = 3.0, 0.0, 2.0
    obj["network"]["links"][1]["id"] = 1.0
    assert scenario_from_json(obj) == appendix_c_scenario()


def readme_6():
    return generate_synthetic(nodes=8, richness=2, tightness=1.3, drivers=6, seed=7)


# each call hands the library something it would never read
REFUSALS = {
    "linear given admm settings": (
        lambda s, pipe: run_experiment(s, "linear", 100.0, rho=5.0, max_iters=1),
        "model 'linear' reads no rho, max_iters",
    ),
    "linear given a NaN rho": (
        lambda s, pipe: run_experiment(s, "linear", 100.0, rho=math.nan),
        "model 'linear' reads no rho",
    ),
    "admm given linear settings": (
        lambda s, pipe: run_experiment(s, "admm", 100.0, alpha=1.0, alpha_retry=False),
        "model 'admm' reads no alpha, alpha_retry",
    ),
    "sweep admm given linear settings": (
        lambda s, pipe: sweep(s, "admm", [0.0], [1.0], alpha=0.0, rel_gap=5.0),
        "model 'admm' reads no alpha, rel_gap",
    ),
    "oracle pipe with penetration": (
        lambda s, pipe: brute_force_oracle(s, 100.0, penetration=0.5, pipe=pipe),
        "a ready pipe carries its cohort",
    ),
    "oracle pipe with seed": (
        lambda s, pipe: brute_force_oracle(s, 100.0, seed=3, pipe=pipe),
        "a ready pipe carries its cohort",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_unread_input_is_refused_before_any_work(case, monkeypatch):
    call, message = REFUSALS[case]
    scenario = readme_6()
    pipe = prepare(scenario)

    def no_work(*args, **kwargs):
        raise AssertionError("prepare ran")

    monkeypatch.setattr(harness, "prepare", no_work)
    with pytest.raises(InputError, match=re.escape(message)):
        call(scenario, pipe)
