"""Tests of the benchmark itself: every output check fires on a deliberately
corrupted output, the tracer accounts for all traced time, and
BENCHMARK.json lists exactly the metrics the benchmark reports. The speed
probe's normalisation is tested too.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

from flowincentives import admm, harness  # noqa: E402
from pg_reference import project_feasible, solve_reference  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def two_od():
    """Two OD pairs with two routes each, so offers can leave their block."""
    scenario = harness.generate_synthetic(
        nodes=6, richness=2, tightness=1.4, drivers=4, seed=3, menu_amounts=(0.0, 2.0, 10.0)
    )
    pipe = harness.prepare(scenario)
    oracle = harness.brute_force_oracle(scenario, budget=12.0, objective="bpr", pipe=pipe)
    return scenario, pipe, oracle


def test_oracle_assignment_passes_every_check(two_od):
    _, pipe, oracle = two_od
    assert len(pipe.demand.q) == 2
    assert checks.check_assignment(oracle.assignment, pipe, 12.0) == []
    assert checks.check_reported_tt(oracle.objective, oracle.assignment, pipe) == []
    assert checks.check_against_oracle(oracle.objective, oracle.objective) == []


def _fires(reasons, text):
    return any(text in reason for reason in reasons)


def test_non_binary_assignment_fires(two_od):
    _, pipe, oracle = two_od
    s_mat = oracle.assignment.copy()
    col = pipe.columns[0][0]
    s_mat[:, 0] = 0.0
    s_mat[col, 0] = 0.5
    s_mat[pipe.columns[0][1], 0] = 0.5
    assert _fires(checks.check_assignment(s_mat, pipe, 12.0), "not binary")


def test_second_offer_fires(two_od):
    _, pipe, oracle = two_od
    s_mat = oracle.assignment.copy()
    free = [c for c in pipe.columns[0] if s_mat[c, 0] == 0.0][0]
    s_mat[free, 0] = 1.0
    assert _fires(checks.check_assignment(s_mat, pipe, 1e9), "exactly one offer")


def test_offer_outside_od_pair_fires_and_breaks_totals(two_od):
    _, pipe, oracle = two_od
    s_mat = oracle.assignment.copy()
    other = [n for n, od in enumerate(pipe.demand.driver_to_od) if od != pipe.demand.driver_to_od[0]]
    s_mat[:, 0] = 0.0
    s_mat[pipe.columns[other[0]][0], 0] = 1.0
    reasons = checks.check_assignment(s_mat, pipe, 1e9)
    assert _fires(reasons, "outside its OD pair")
    assert _fires(reasons, "per-OD offer totals")


def test_budget_overrun_fires(two_od):
    _, pipe, oracle = two_od
    s_mat = oracle.assignment.copy()
    priciest = max(pipe.columns[0], key=lambda c: pipe.costs[c])
    s_mat[:, 0] = 0.0
    s_mat[priciest, 0] = 1.0
    assert _fires(checks.check_assignment(s_mat, pipe, 0.0), "exceeds budget")


def test_wrong_shape_fires(two_od):
    _, pipe, oracle = two_od
    assert _fires(checks.check_assignment(oracle.assignment[:, :-1], pipe, 12.0), "shape")


def test_misreported_travel_time_fires(two_od):
    _, pipe, oracle = two_od
    assert _fires(
        checks.check_reported_tt(oracle.objective * 1.001, oracle.assignment, pipe), "recomputed"
    )


def test_beating_the_oracle_fires(two_od):
    _, _, oracle = two_od
    assert _fires(checks.check_against_oracle(oracle.objective * 0.999, oracle.objective), "below")


@pytest.fixture(scope="module")
def relaxation():
    scenario = harness.generate_synthetic(
        nodes=8, richness=2, tightness=1.3, drivers=20, seed=11, detour_capacity_factor=2.0
    )
    pipe = harness.prepare(scenario)
    problem = admm.AdmmProblem(
        a_matrix=pipe.a_matrix,
        d_matrix=pipe.demand.d_matrix,
        costs=pipe.costs,
        q=pipe.demand.q,
        budget=20.0,
        t0_row=pipe.t0_row,
        w_row=pipe.w_row,
        columns=pipe.columns,
        background=pipe.background,
    )
    result = admm.run_admm(problem, admm.AdmmConfig(**workloads.RELAX_CONFIG))
    blocks = checks.od_blocks(pipe.demand.d_matrix)
    project = lambda y: project_feasible(y, blocks, pipe.demand.q, pipe.costs, 20.0)  # noqa: E731
    return problem, result, project, blocks


def test_lower_bound_is_below_and_close_to_the_reference(relaxation):
    problem, result, project, blocks = relaxation
    p = problem
    _, f_ref = solve_reference(
        p.a_matrix, p.background, blocks, p.q, p.costs, p.budget, p.t0_row, p.w_row
    )
    bound = checks.relaxation_lower_bound(p, result.u, project)
    assert bound <= f_ref + 1e-9 * f_ref
    assert (f_ref - bound) / f_ref < checks.RELAX_GAP_TOL / 2


def test_lower_bound_holds_far_from_the_optimum(relaxation):
    problem, result, project, blocks = relaxation
    p = problem
    _, f_ref = solve_reference(
        p.a_matrix, p.background, blocks, p.q, p.costs, p.budget, p.t0_row, p.w_row
    )
    start = np.zeros(p.num_columns)
    assert checks.relaxation_lower_bound(p, start, project) <= f_ref


def test_relaxation_checks_fire(relaxation):
    problem, result, project, _ = relaxation
    p = problem
    objective = checks.bpr_total(p.a_matrix, p.background, p.t0_row, p.w_row, result.u)
    bound = checks.relaxation_lower_bound(p, result.u, project)
    assert checks.check_relaxation(result, objective, bound) == []
    assert _fires(checks.check_relaxation(result, objective * 1.02, bound), "above the certified")
    cut = admm.run_admm(p, admm.AdmmConfig(**{**workloads.RELAX_CONFIG, "max_iters": 5}))
    reasons = checks.check_relaxation(cut, objective, bound)
    assert _fires(reasons, "did not converge")
    assert _fires(reasons, "final residuals")


def test_tracer_accounts_for_traced_time_and_restores_functions():
    scenario = harness.appendix_c_scenario()
    original, original_run_admm = admm.u_update, admm.run_admm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert admm.u_update is not original
        assert harness.run_admm is admm.run_admm
        outcome = harness.run_experiment(scenario, "admm", 5.0)
    finally:
        tracer.uninstall()
    assert admm.u_update is original
    assert harness.run_admm is original_run_admm
    layer = spans.layer_metrics(tracer, tracer.top_level_s)
    assert list(layer) == [name for name, _, _ in metrics.PER_LAYER[:-1]]
    self_total = sum(layer[f"{name}.s"] for name in metrics.TRACED_FUNCTIONS)
    assert self_total == pytest.approx(tracer.top_level_s, rel=1e-9)
    assert layer["admm.run_admm.calls"] == 4
    assert layer["admm.iters"] >= outcome.report.extra["iterations"]
    assert layer["kernels.gamma_solve.calls"] == layer["admm.iters"]
    assert len(tracer.codes) == sum(tracer.calls)


class _StubWorker:
    """Answers the first call of a pass, then stops answering."""

    calls = ["oracle:x", "admm:x", "linear:x"]

    def __init__(self):
        self.replies = [
            ("call", {"label": "oracle:x", "kind": "oracle", "seconds": 0.1, "reasons": [], "quality": {}})
        ]
        self.conn = self

    def send(self, message):
        pass

    def receive(self, deadline):
        if not self.replies:
            raise run.WorkerGone("timeout")
        return self.replies.pop(0)


def test_calls_cut_off_by_the_cap_are_timeout_failures():
    records, info = run.run_pass(_StubWorker(), traced=False, deadline=0.0)
    assert info is None
    assert [r["label"] for r in records] == _StubWorker.calls
    failed = run.failures([(records, info)])
    assert failed == [("admm:x", ["timeout"]), ("linear:x", ["timeout"])]


def test_output_that_changes_between_passes_is_a_failure():
    def record(ratio):
        return {"label": "admm:x", "kind": "admm", "seconds": 1.0, "reasons": [], "quality": {"tt_ratio_opt": ratio}}

    passes = [([record(1.0)], {}), ([record(1.0)], {}), ([record(1.1)], {})]
    assert run.failures(passes) == [("admm:x", ["output differs from an earlier pass"])]


def test_normalised_time_takes_out_the_machine_speed():
    # the same work at half the speed: twice the wall time, probes twice as long
    fast = speed.normalise(2.0 + 10 * 0.001, [0.001] * 10)
    slow = speed.normalise(4.0 + 10 * 0.002, [0.002] * 10)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(2.0 * speed.NOMINAL_S / 0.001)


def test_sampler_probes_while_running_and_not_after():
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 4 * speed.INTERVAL_S
    while time.perf_counter() < end:
        pass
    samples = sampler.stop()
    assert len(samples) >= 2 and all(s > 0 for s in samples)
    time.sleep(2 * speed.INTERVAL_S)
    assert sampler.stop() == []


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = lambda entries: [(m["name"], m["unit"], m["better"]) for m in entries]  # noqa: E731
    assert listed(spec["end_to_end"]) == list(metrics.END_TO_END)
    assert listed(spec["per_layer"]) == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
