"""Experiment pipeline: scenarios, cohorts, solver runs, reports, oracle.

A scenario bundles a road network, per-OD driver demand by entrance time,
the incentive menu and choice coefficients, and run parameters. Only
first-interval drivers inside the penetration cohort are decision
variables; everyone else (later entrants and non-selected drivers) is held
at the no-incentive distribution and folded into a fixed background volume.

Realized travel time is always evaluated with the original link capacities,
whatever capacity multiplier the linear model used internally.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from . import kernels
from .admm import AdmmConfig, AdmmProblem, polish_counts, run_admm
from .choice import ChoiceCoefficients, IncentiveMenu, amount_tally, build_choice_matrix
from .errors import InfeasibleModelError, InputError, OracleSizeError
from .flow import (
    build_demand_model,
    build_location_matrix,
    compose_a,
    deal_counts,
    value_of_saved_time,
    DEFAULT_VALUE_OF_TIME,
)
from .network import (
    RoadNetwork,
    bpr_travel_time,
    enumerate_routes,
    network_from_json,
    network_to_json,
    whole_number,
)
from .rounding import round_counts
from .scenario1 import Scenario1Config, build_scenario1, solve_scenario1

ORACLE_LIMIT = 10_000_000
DEFAULT_MENU_AMOUNTS = (0.0, 2.0, 10.0)


def _check_seed(seed):
    """numpy's generators take nonnegative seeds only."""
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


@dataclass
class Scenario:
    """A complete experiment input; serializable to a single JSON file.
    ``demand`` is sorted, stably, by (entrance, OD index) when it is built."""

    net: RoadNetwork
    od_pairs: list  # (origin, destination)
    demand: list  # (od_index, entrance_time, count), entrance 1-based
    horizon: int
    unit_length_hours: float
    menu: IncentiveMenu
    coeffs: ChoiceCoefficients = field(default_factory=ChoiceCoefficients)
    penetration_rate: float = 1.0
    seed: int = 0
    background_volume: np.ndarray = None
    vot: float = DEFAULT_VALUE_OF_TIME
    congested_estimates: bool = False  # advertise congested times in offers
    name: str = ""

    def __post_init__(self):
        if self.horizon < 1 or not (math.isfinite(self.unit_length_hours) and self.unit_length_hours > 0):
            raise InputError("horizon must be at least 1 and unit length positive and finite")
        if not (math.isfinite(self.vot) and self.vot > 0):
            raise InputError("value of time must be positive and finite")
        if not 0 < self.penetration_rate <= 1:
            raise InputError("penetration rate must lie in (0, 1]")
        _check_seed(self.seed)
        for od_index, entrance, count in self.demand:
            if not 0 <= od_index < len(self.od_pairs):
                raise InputError(f"demand references unknown OD pair {od_index}")
            if not 1 <= entrance <= self.horizon:
                raise InputError("entrance time must fall inside the horizon")
            if count < 0:
                raise InputError("demand counts must be nonnegative")
        self.demand = sorted(self.demand, key=lambda e: (e[1], e[0]))
        if self.background_volume is not None:
            bg = np.asarray(self.background_volume, dtype=float)
            if bg.shape != (self.net.num_links * self.horizon,):
                raise InputError("background volume must have E * horizon entries")
            if not np.all(np.isfinite(bg) & (bg >= 0)):
                raise InputError("background volume must be finite and nonnegative")
            self.background_volume = bg

    @property
    def total_drivers(self):
        return sum(count for _, _, count in self.demand)


def scenario_to_json(scenario):
    obj = {
        "name": scenario.name,
        "network": network_to_json(
            scenario.net, [(o, d, int(n)) for (o, d), n in zip(scenario.od_pairs, _entrance_counts(scenario)[0])]
        ),
        "horizon": scenario.horizon,
        "unit_length_hours": scenario.unit_length_hours,
        "demand": [
            {
                "origin": scenario.od_pairs[k][0],
                "destination": scenario.od_pairs[k][1],
                "count": c,
                "entrance_time": t,
            }
            for (k, t, c) in scenario.demand
        ],
        "penetration_rate": scenario.penetration_rate,
        "seed": scenario.seed,
        "choice": {
            "theta_tt": scenario.coeffs.theta_tt,
            "theta_inc": scenario.coeffs.theta_inc,
            "incentive_amounts": list(scenario.menu.amounts),
            "congested_estimates": scenario.congested_estimates,
        },
        "vot": scenario.vot,
    }
    if scenario.background_volume is not None:
        obj["background_volume"] = list(scenario.background_volume)
    return obj


def _present(obj, **parsers):
    """The keys of ``obj`` that ``parsers`` names, each value parsed by its
    parser (None keeps it as read). Absent keys are left out, so they take
    the constructor's own default."""
    return {key: parse(obj[key]) if parse else obj[key] for key, parse in parsers.items() if key in obj}


def scenario_from_json(obj):
    try:
        net, od_rows = network_from_json(obj["network"])
        od_pairs = [(o, d) for (o, d, _) in od_rows]
        od_index = {pair: i for i, pair in enumerate(od_pairs)}
        if "demand" in obj and obj["demand"]:
            demand = []
            for entry in obj["demand"]:
                pair = (entry["origin"], entry["destination"])
                if pair not in od_index:
                    raise InputError(f"demand entry references unknown OD pair {pair}")
                entrance = whole_number(entry.get("entrance_time", 1), "entrance_time")
                demand.append((od_index[pair], entrance, whole_number(entry["count"], "count")))
        else:
            demand = [(i, 1, n) for i, (_, _, n) in enumerate(od_rows) if n > 0]
        choice = obj.get("choice", {})
        seed = partial(whole_number, name="seed")
        return Scenario(
            net=net,
            od_pairs=od_pairs,
            demand=demand,
            horizon=whole_number(obj["horizon"], "horizon"),
            unit_length_hours=float(obj["unit_length_hours"]),
            menu=IncentiveMenu(tuple(choice.get("incentive_amounts", DEFAULT_MENU_AMOUNTS))),
            coeffs=ChoiceCoefficients(**_present(choice, theta_tt=float, theta_inc=float)),
            **_present(choice, congested_estimates=bool),
            **_present(obj, penetration_rate=float, seed=seed, background_volume=None, vot=float, name=None),
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed scenario JSON: {exc}") from exc


def save_scenario(scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return scenario_from_json(json.load(fh))


def appendix_c_scenario():
    """The three-link worked example: two parallel upstream links, one shared
    downstream link, one OD pair with two drivers and a {$0, $5} menu."""
    from .network import Link

    net = RoadNetwork(
        nodes=("v1", "v2", "v3"),
        links=(
            Link(0, "v1", "v2", 0.1, 100.0, 5.0),
            Link(1, "v1", "v2", 0.2, 100.0, 10.0),
            Link(2, "v2", "v3", 0.1, 100.0, 5.0),
        ),
    )
    return Scenario(
        net=net,
        od_pairs=[("v1", "v3")],
        demand=[(0, 1, 2)],
        horizon=3,
        unit_length_hours=0.2,
        menu=IncentiveMenu((0.0, 5.0)),
        name="appendix-c",
    )


def generate_synthetic(
    nodes=12,
    richness=2,
    tightness=1.0,
    drivers=24,
    seed=0,
    horizon=2,
    unit_length_hours=0.2,
    menu_amounts=DEFAULT_MENU_AMOUNTS,
    multi_route_fraction=1.0,
    later_fraction=0.0,
    detour_capacity_factor=1.0,
):
    """Deterministic synthetic scenario with parallel route alternatives.

    Each OD pair gets a direct link plus ``richness - 1`` two-link detours;
    only the first ``multi_route_fraction`` share of OD pairs receives the
    detours. ``tightness`` is the ratio of an even per-route driver share to
    link capacity, so values above 1 congest links at the no-incentive
    baseline; ``detour_capacity_factor`` scales the detour links' capacity
    relative to that rule, letting congested instances keep roomy
    alternatives. ``later_fraction`` of each pair's drivers enters at time 2
    and is never incentivized, so it needs a horizon of at least 2.
    """
    from .network import Link

    if richness < 1:
        raise InputError("richness must be at least 1")
    if not tightness > 0:
        raise InputError("tightness must be positive")
    # written so that NaN fails too
    if not (0 <= multi_route_fraction <= 1 and 0 <= later_fraction <= 1):
        raise InputError("multi-route and later-entrant fractions must lie in [0, 1]")
    if later_fraction > 0 and horizon < 2:
        raise InputError("later entrants need a horizon of at least 2")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    nodes_per_od = 2 + (richness - 1)
    n_od = max(1, nodes // nodes_per_od)
    node_names = []
    links = []
    od_pairs = []
    n_multi = int(np.ceil(multi_route_fraction * n_od))
    for k in range(n_od):
        origin, dest = f"o{k}", f"d{k}"
        node_names += [origin, dest]
        od_pairs.append((origin, dest))
        t0_direct = float(rng.uniform(0.08, 0.18))
        links.append((origin, dest, t0_direct, False))
        if k < n_multi:
            for j in range(richness - 1):
                mid = f"m{k}_{j}"
                node_names.append(mid)
                total = t0_direct * float(rng.uniform(1.15, 1.6))
                split = float(rng.uniform(0.35, 0.65))
                links.append((origin, mid, total * split, True))
                links.append((mid, dest, total * (1.0 - split), True))
    per_od = drivers // n_od
    extra = drivers - per_od * n_od
    counts = [per_od + (1 if k < extra else 0) for k in range(n_od)]
    demand = []
    for k, count in enumerate(counts):
        later = int(round(later_fraction * count))
        if count - later > 0:
            demand.append((k, 1, count - later))
        if later > 0:
            demand.append((k, 2, later))
    link_objs = []
    for lid, (tail, head, t0, is_detour) in enumerate(links):
        od_k = int(tail[1:].split("_")[0])  # node names are o<k>, d<k>, m<k>_<j>
        share = counts[od_k] / max(richness, 1)
        capacity = max(0.5, share / tightness) * float(rng.uniform(0.9, 1.1))
        if is_detour:
            capacity *= detour_capacity_factor
        link_objs.append(Link(lid, tail, head, round(t0, 6), round(capacity, 6), round(t0 * 50.0, 6)))
    net = RoadNetwork(nodes=tuple(node_names), links=tuple(link_objs))
    return Scenario(
        net=net,
        od_pairs=od_pairs,
        demand=demand,
        horizon=horizon,
        unit_length_hours=unit_length_hours,
        menu=IncentiveMenu(tuple(menu_amounts)),
        seed=seed,
        name=f"synthetic-{seed}",
    )


def _entrance_counts(scenario):
    """Drivers per (entrance, OD pair): a horizon x K table, row e - 1 for unit e."""
    counts = np.zeros((scenario.horizon, len(scenario.od_pairs)), dtype=int)
    for od_index, entrance, count in scenario.demand:
        counts[entrance - 1, od_index] += count
    return counts


def _no_incentive_volume(scenario, location, probabilities, demand, counts):
    """Expected volume of the drivers ``counts`` holds at the $0 offer, plus the
    scenario's background. Row e - 1 of ``counts`` (per OD pair, placed by
    ``demand``'s D) loads R at entrance 1 shifted (e - 1) * E rows down, rows
    past the horizon dropped."""
    rows = location.matrix.shape[0]
    volume = np.zeros(rows)
    if scenario.background_volume is not None:
        volume += scenario.background_volume
    for shift, q in zip(range(0, rows, location.num_links), counts):
        if q.any():
            load = location.matrix @ (probabilities.matrix @ demand.zero_counts(probabilities.costs, q))
            volume[shift:] += load[: rows - shift]
    return volume


def congested_route_estimates(scenario, routes, location):
    """Route travel-time estimates under the no-incentive traffic pattern.

    One pass, no equilibrium loop: put every driver on the no-incentive
    distribution at free-flow times, load R (``location``, entrance 1), turn
    the (time, link) volumes into congested link times, average each link
    over the horizon, and sum along routes. Off by default; the estimates
    drivers see are free-flow unless the scenario opts in.
    """
    net = scenario.net
    tt_free = np.array([r.free_flow_time for r in routes.routes])
    probabilities = build_choice_matrix(routes, scenario.menu, tt_free, scenario.coeffs)
    pairs = build_demand_model(routes, scenario.menu, ())  # D alone, no drivers
    volume = _no_incentive_volume(scenario, location, probabilities, pairs, _entrance_counts(scenario))
    volume = volume.reshape(scenario.horizon, net.num_links)
    link_time = bpr_travel_time(net.free_flow_times, net.capacity_vector, volume)
    mean_link_time = link_time.mean(axis=0)
    return np.array([mean_link_time[list(route.links)].sum() for route in routes.routes])


def select_cohort(driver_ids, penetration, seed):
    """Deterministic uniform sample: a prefix of one seeded permutation.

    Because the permutation depends only on the seed, cohorts are nested
    across penetration rates: cohort(seed, p1) is a subset of
    cohort(seed, p2) whenever p1 <= p2. The cohort size is the floor of
    penetration * n taken exactly at the rate's decimal form (the shortest
    one that reads back as the same float), so 0.29 of 100 drivers is 29.
    """
    if not 0 < penetration <= 1:
        raise InputError("penetration must lie in (0, 1]")
    ids = list(driver_ids)
    take = math.floor(Fraction(repr(float(penetration))) * len(ids))
    perm = np.random.default_rng(seed).permutation(len(ids))
    return sorted(ids[i] for i in perm[:take])


@dataclass
class Pipeline:
    """Everything derived from a scenario that solvers and metrics need."""

    scenario: Scenario
    routes: object
    probabilities: object
    location: object
    a_matrix: np.ndarray
    demand: object  # DemandModel over eligible drivers
    columns: list
    costs: np.ndarray
    eligible_ids: list
    background: np.ndarray
    t0_row: np.ndarray
    w_row: np.ndarray
    free_flow_cost: np.ndarray


def prepare(scenario, penetration=None, seed=None):
    """Build routes, matrices, the eligible cohort and the background load."""
    pen = scenario.penetration_rate if penetration is None else penetration
    seed = scenario.seed if seed is None else seed
    _check_seed(seed)
    net = scenario.net
    routes = enumerate_routes(net, scenario.od_pairs)
    location = build_location_matrix(net, routes, scenario.horizon, scenario.unit_length_hours)
    tt_hat = np.array([r.free_flow_time for r in routes.routes])
    if scenario.congested_estimates:
        tt_hat = congested_route_estimates(scenario, routes, location)
    probabilities = build_choice_matrix(routes, scenario.menu, tt_hat, scenario.coeffs)
    a_matrix = compose_a(location, probabilities)

    counts = _entrance_counts(scenario)
    # first-interval driver ids run through the OD pairs in index order
    eligible = select_cohort(range(counts[0].sum()), pen, seed)
    driver_od = np.repeat(np.arange(counts.shape[1]), counts[0])
    demand = build_demand_model(routes, scenario.menu, driver_od[eligible])
    counts[0] -= demand.q.astype(int)  # the cohort's drivers are not held
    background = _no_incentive_volume(scenario, location, probabilities, demand, counts)
    t0_row = np.tile(net.free_flow_times, scenario.horizon)
    return Pipeline(
        scenario=scenario,
        routes=routes,
        probabilities=probabilities,
        location=location,
        a_matrix=a_matrix,
        demand=demand,
        columns=[demand.blocks[k] for k in demand.driver_to_od],
        costs=probabilities.costs,
        eligible_ids=eligible,
        background=background,
        t0_row=t0_row,
        w_row=np.tile(net.capacity_vector, scenario.horizon),
        free_flow_cost=a_matrix.T @ t0_row,
    )


def zero_assignment(pipe):
    """Every eligible driver on the $0 column of their pair's first route."""
    return deal_counts(pipe.demand.zero_counts(pipe.costs), pipe.demand)


def realized_travel_time(pipe, counts):
    """Total vehicle-hours of offer counts at the ORIGINAL capacities: the
    BPR delay of each (time, link) row's expected volume, times that volume."""
    v = pipe.a_matrix @ counts + pipe.background
    return float(np.sum(v * bpr_travel_time(pipe.t0_row, pipe.w_row, v)))


@dataclass
class ExperimentOutcome:
    """Report plus the artifacts behind it, for callers that need them."""

    report: "ExperimentReport"
    counts: np.ndarray  # offer count per column over the eligible drivers
    pipeline: Pipeline
    admm_result: object = None

    @cached_property
    def assignment(self):
        """The per-driver S, dealt from ``counts`` the first time it is read."""
        return deal_counts(self.counts, self.pipeline.demand)


_FIELD_PARSERS = {"str": str, "float": float, "int": int, "dict": dict}


@dataclass
class ExperimentReport:
    model: str
    budget: float
    cost_used: float
    pct_rewarded_drivers: float
    avg_incentive_rewarded: float
    baseline_tt_hours: float
    achieved_tt_hours: float
    pct_reduction: float
    value_of_saved_time: float
    incentive_distribution: dict
    penetration_rate: float
    seed: int
    wall_time_s: float
    extra: dict = field(default_factory=dict)

    def to_json_dict(self):
        obj = dataclasses.asdict(self)
        obj["incentive_distribution"] = {str(k): v for k, v in self.incentive_distribution.items()}
        return obj

    @classmethod
    def from_json_dict(cls, obj):
        """Inverse of ``to_json_dict``: each field parsed as its annotated
        type, a missing ``wall_time_s`` read as 0, and malformed input
        raised as InputError."""
        try:
            values = {
                f.name: _FIELD_PARSERS[f.type](obj[f.name]) for f in dataclasses.fields(cls) if f.name in obj
            }
            values.setdefault("wall_time_s", 0.0)
            values["incentive_distribution"] = {float(k): v for k, v in obj["incentive_distribution"].items()}
            return cls(**values)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed report JSON: {exc}") from exc


_NUMBER = "{:.10g}".format
# each CSV column, in order, with the formatter of its report field
_CSV_FORMATS = {
    "model": str,
    "budget": _NUMBER,
    "penetration_rate": _NUMBER,
    "seed": str,
    "cost_used": _NUMBER,
    "pct_rewarded_drivers": _NUMBER,
    "avg_incentive_rewarded": _NUMBER,
    "baseline_tt_hours": _NUMBER,
    "achieved_tt_hours": _NUMBER,
    "pct_reduction": _NUMBER,
    "value_of_saved_time": _NUMBER,
    "incentive_distribution": lambda dist: ";".join(f"{_NUMBER(a)}:{n}" for a, n in sorted(dist.items())),
}
CSV_COLUMNS = tuple(_CSV_FORMATS)


def report_csv_row(report):
    """Stable text row; excludes wall time so reruns are byte-identical."""
    return ",".join(fmt(getattr(report, column)) for column, fmt in _CSV_FORMATS.items())


_MAX_ALPHA_DOUBLINGS = 20


def solve_linear(pipe, cfg, alpha_retry=True):
    """Build and solve the free-flow MILP under Scenario1Config ``cfg``,
    doubling alpha on infeasibility at most ``_MAX_ALPHA_DOUBLINGS`` times.
    The report's ``nodes`` and ``pivots`` add up every alpha's search."""
    retries = nodes = pivots = 0
    while True:
        model = build_scenario1(
            pipe.routes,
            pipe.probabilities,
            pipe.location,
            pipe.demand,
            pipe.scenario.net,
            cfg,
            background=pipe.background,
        )
        try:
            report = solve_scenario1(model, pipe.scenario.menu, pipe.a_matrix)
        except InfeasibleModelError as exc:
            if not alpha_retry or retries >= _MAX_ALPHA_DOUBLINGS:
                raise
            nodes += exc.nodes
            pivots += exc.pivots
            cfg = dataclasses.replace(cfg, alpha=2.0 * cfg.alpha)
            retries += 1
        else:
            report = dataclasses.replace(report, nodes=report.nodes + nodes, pivots=report.pivots + pivots)
            return report, cfg.alpha, retries


def solve_admm_model(pipe, budget, cfg):
    """One relaxation (``run_admm`` under ``cfg``), its exact L1 rounding to
    offer counts (``round_counts``) and one exchange polish on realized
    travel time (``polish_counts``). Returns (offer counts, AdmmResult,
    rounding L1 distance, polish moves, wall seconds of each of the three).
    """
    started = time.perf_counter()
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
    result = run_admm(problem, cfg)
    relaxed = time.perf_counter()
    counts, rounding_l1 = round_counts(result.u, pipe.demand, pipe.costs, budget)
    rounded = time.perf_counter()
    counts, moves = polish_counts(counts, problem)
    seconds = {"relax": relaxed - started, "round": rounded - relaxed, "polish": time.perf_counter() - rounded}
    return counts, result, rounding_l1, moves, seconds


def run_experiment(
    scenario,
    model,
    budget,
    penetration=None,
    seed=None,
    alpha=None,
    alpha_retry=None,
    rel_gap=None,
    rho=None,
    lambda_reg=None,
    max_iters=None,
    tol=None,
    vot=None,
):
    """End-to-end run: prepare, solve, evaluate realized travel time, report.

    A model setting left at None takes its default from ``Scenario1Config``,
    ``AdmmConfig`` or ``solve_linear``; one the model never reads raises
    InputError naming it, before any other check and before ``prepare``.
    """
    reads = {  # the settings each model reads; tol is AdmmConfig's residual_tol
        "linear": dict(alpha=alpha, alpha_retry=alpha_retry, rel_gap=rel_gap),
        "admm": dict(rho=rho, lambda_reg=lambda_reg, max_iters=max_iters, tol=tol),
    }
    if model not in reads:
        raise InputError(f"unknown model {model!r}; expected 'linear' or 'admm'")
    unread = [name for other in reads if other != model for name, value in reads[other].items() if value is not None]
    if unread:
        raise InputError(f"model {model!r} reads no {', '.join(unread)}")
    started = time.perf_counter()
    run_seed = scenario.seed if seed is None else seed
    # checked and built before prepare, so bad settings fail even where an
    # empty cohort would never run the model; both models check the budget here
    given = {name: value for name, value in reads[model].items() if value is not None}
    retry = {"alpha_retry": given.pop("alpha_retry")} if "alpha_retry" in given else {}
    cfg = Scenario1Config(budget=budget, **(given if model == "linear" else {}))
    if model == "admm":
        cfg = AdmmConfig(**{"residual_tol" if name == "tol" else name: value for name, value in given.items()})
    vot = scenario.vot if vot is None else vot
    if not (math.isfinite(vot) and vot > 0):
        raise InputError("value of time must be positive and finite")
    pen = scenario.penetration_rate if penetration is None else penetration
    pipe = prepare(scenario, penetration=pen, seed=run_seed)
    prepared = time.perf_counter()
    zero_counts = pipe.demand.zero_counts(pipe.costs)
    baseline_tt = realized_travel_time(pipe, zero_counts)

    # wall seconds per stage; report.json carries them, the CSV never does
    stages = {"prepare": prepared - started}
    extra, trace = {"stage_seconds": stages}, None
    solving = time.perf_counter()
    if pipe.demand.num_drivers == 0:
        counts = zero_counts
        extra["note"] = "no eligible drivers; baseline assignment"
    elif model == "linear":
        report1, alpha_used, retries = solve_linear(pipe, cfg, **retry)
        stages["mip"] = time.perf_counter() - solving
        counts = report1.counts
        extra.update(
            {
                "alpha_used": alpha_used,
                "alpha_retries": retries,
                "mip_status": report1.status,
                "mip_gap": report1.gap,
                "mip_nodes": report1.nodes,
                "lp_pivots": report1.pivots,
                "mip_fixed_columns": report1.fixed_columns,
                "expected_free_flow_hours": report1.objective,
            }
        )
    else:
        counts, trace, rounding_l1, moves, seconds = solve_admm_model(pipe, budget, cfg)
        stages.update(seconds)
        extra.update(
            {
                "iterations": trace.iterations,
                "converged": trace.converged,
                "anderson_steps": trace.anderson_steps,
                "anderson_restarts": trace.anderson_restarts,
                "final_residuals": [float(v) for v in trace.residuals[-1]],
                "relaxed_objective": float(trace.objectives[-1]),
                "rounding_l1": rounding_l1,
                "polish_moves": moves,
                "u_factor_blocks": trace.u_factor.blocks,
                "u_factor_largest_block": trace.u_factor.largest_block,
            }
        )

    evaluating = time.perf_counter()
    achieved_tt = realized_travel_time(pipe, counts)
    cost_used = float(pipe.costs @ counts)
    rewarded = int(round(counts[pipe.costs > 0].sum()))
    total = scenario.total_drivers
    dist = amount_tally(scenario.menu, counts)
    dist[0.0] += total - pipe.demand.num_drivers  # everyone else holds the $0 offer
    finished = time.perf_counter()
    # the baseline's evaluation comes before the solve, the achieved one after
    stages["evaluate"] = solving - prepared + finished - evaluating
    report = ExperimentReport(
        model=model,
        budget=budget,
        cost_used=cost_used,
        pct_rewarded_drivers=100.0 * rewarded / total if total else 0.0,
        avg_incentive_rewarded=cost_used / rewarded if rewarded else 0.0,
        baseline_tt_hours=baseline_tt,
        achieved_tt_hours=achieved_tt,
        pct_reduction=100.0 * (baseline_tt - achieved_tt) / baseline_tt if baseline_tt else 0.0,
        value_of_saved_time=value_of_saved_time(baseline_tt, achieved_tt, vot),
        incentive_distribution=dist,
        penetration_rate=pen,
        seed=run_seed,
        wall_time_s=finished - started,
        extra=extra,
    )
    return ExperimentOutcome(report=report, counts=counts, pipeline=pipe, admm_result=trace)


@dataclass
class OracleResult:
    counts: np.ndarray
    objective: float
    feasible_count: int
    demand: object = field(repr=False)

    @cached_property
    def assignment(self):
        """The per-driver S, dealt from ``counts`` the first time it is read."""
        return deal_counts(self.counts, self.demand)


def brute_force_oracle(
    scenario,
    budget,
    objective="bpr",
    alpha=None,
    penetration=None,
    seed=None,
    limit=ORACLE_LIMIT,
    pipe=None,
):
    """Exhaustive search over all feasible binary assignments.

    ``objective`` selects what is minimized: realized total travel time
    ("bpr", no capacity rows, matching the congestion-aware model) or
    expected free-flow time with optional alpha-scaled capacity rows
    ("free_flow", matching the linear model, the only objective that takes
    ``alpha``). Drivers of one OD pair are interchangeable, so the search
    runs over offer counts: every composition of each pair's drivers over
    its columns, in the order ``kernels.enumerate_assignments`` documents,
    and the winning counts are returned (``OracleResult.assignment`` deals
    them to drivers). Ties return the lexicographically smallest per-driver
    choice vector, and ``feasible_count`` still counts per-driver
    assignments. Refuses instances with more than ``limit`` count vectors.
    A ready ``pipe`` carries its cohort, so ``penetration`` and ``seed``
    given with it are an error, as is ``alpha`` with the bpr objective.
    """
    if pipe is not None and (penetration is not None or seed is not None):
        raise InputError("a ready pipe carries its cohort; pass penetration and seed to prepare instead")
    if objective not in ("bpr", "free_flow"):
        raise InputError(f"unknown objective {objective!r}; expected 'bpr' or 'free_flow'")
    if not (math.isfinite(budget) and budget >= 0):
        raise InputError("budget must be nonnegative and finite")
    if not math.isfinite(limit):
        raise InputError("limit must be finite")
    if alpha is not None and objective != "free_flow":
        raise InputError(f"alpha caps the free_flow objective's capacity rows; objective is {objective!r}")
    if pipe is None:
        pipe = prepare(scenario, penetration=penetration, seed=seed)
    q = pipe.demand.q
    widths = pipe.demand.d_matrix.sum(axis=1)
    total = math.prod(math.comb(int(q_k + m_k) - 1, int(m_k) - 1) for q_k, m_k in zip(q, widths))
    if total > limit:
        raise OracleSizeError(total, limit)
    best_obj, best_u, count = kernels.enumerate_assignments(
        pipe.a_matrix,
        pipe.background,
        pipe.demand.blocks,
        q,
        pipe.costs,
        budget,
        pipe.free_flow_cost,
        pipe.t0_row,
        pipe.w_row,
        objective=objective,
        capacity=None if alpha is None else alpha * pipe.w_row,
    )
    if count == 0:
        raise InfeasibleModelError("no feasible assignment under the given constraints")
    return OracleResult(counts=best_u, objective=best_obj, feasible_count=count, demand=pipe.demand)


def sweep(scenario, model, budgets, penetrations, **kwargs):
    """Run the model over a budget x penetration grid in a fixed order; ``run_experiment`` checks ``kwargs``."""
    reports = []
    for budget in budgets:
        for pen in penetrations:
            outcome = run_experiment(scenario, model, budget, penetration=pen, **kwargs)
            reports.append(outcome.report)
    return reports


def write_reports_csv(reports, path):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for report in reports:
            fh.write(report_csv_row(report) + "\n")


def write_report_json(report, path):
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_residuals_csv(result, path):
    """Iteration trace: seven residual norms plus the relaxed objective."""
    from .admm import RESIDUAL_LABELS

    with open(path, "w") as fh:
        fh.write("iteration," + ",".join(RESIDUAL_LABELS) + ",relaxed_objective\n")
        for i, (norms, obj) in enumerate(zip(result.residuals, result.objectives), start=1):
            row = ",".join(f"{v:.10g}" for v in norms)
            fh.write(f"{i},{row},{obj:.10g}\n")
