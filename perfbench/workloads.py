"""Benchmark workloads: one frozen instance each and the calls made on it.

Each workload is a list of timed calls into the library's public entry
points. The instances are frozen, so every run does the same work whatever
the workload seed (see README.md for why). Every call's output is checked
outside the timed region.
"""

from flowincentives import admm, harness
from pg_reference import project_feasible

import checks

README_SEED = 7
RELAX_CONFIG = dict(rho=1.0, lambda_reg=0.0, max_iters=5000, residual_tol=1e-4)


class Instance:
    """A scenario, its budget, and the pipeline the checks read."""

    def __init__(self, label, scenario, budget):
        self.label = label
        self.scenario = scenario
        self.budget = budget
        self.pipe = harness.prepare(scenario)


class Call:
    def __init__(self, kind, instance):
        self.kind = kind  # "oracle", "admm", "linear" or "relax"
        self.instance = instance

    @property
    def label(self):
        return f"{self.kind}:{self.instance.label}"


class SolverWorkload:
    """Oracle, ADMM and linear model on one instance, oracle first so the
    other two are checked against the exhaustive optimum of the same pass."""

    min_passes = 2

    def __init__(self, instance):
        self.calls = [Call(kind, instance) for kind in ("oracle", "admm", "linear")]
        self._optimum = {}

    def warm_up(self):
        """One short untimed call per entry point on the three-link preset."""
        tiny = harness.appendix_c_scenario()
        harness.brute_force_oracle(tiny, budget=5.0, objective="bpr")
        harness.run_experiment(tiny, "admm", 5.0, max_iters=20)
        harness.run_experiment(tiny, "linear", 5.0)

    def run(self, call):
        inst = call.instance
        if call.kind == "oracle":
            return harness.brute_force_oracle(inst.scenario, budget=inst.budget, objective="bpr")
        return harness.run_experiment(inst.scenario, call.kind, inst.budget)

    def check(self, call, output):
        """Failure reasons and quality figures for one call's output."""
        inst = call.instance
        if call.kind == "oracle":
            self._optimum[inst.label] = output.objective
            reasons = checks.check_assignment(output.assignment, inst.pipe, inst.budget)
            reasons += checks.check_reported_tt(output.objective, output.assignment, inst.pipe)
            return reasons, {}
        report = output.report
        reasons = checks.check_assignment(output.assignment, inst.pipe, inst.budget)
        reasons += checks.check_reported_tt(report.achieved_tt_hours, output.assignment, inst.pipe)
        optimum = self._optimum.get(inst.label)
        if optimum is None:
            return reasons + ["no oracle optimum for this instance in this pass"], {}
        reasons += checks.check_against_oracle(report.achieved_tt_hours, optimum)
        quality = {
            "tt_ratio_opt": report.achieved_tt_hours / optimum,
            "pct_reduction": report.pct_reduction,
        }
        return reasons, quality

    def end_pass(self):
        self._optimum = {}


class RelaxWorkload:
    """The convex relaxation alone, with no rounding or MILP."""

    min_passes = 2

    def __init__(self, instance):
        pipe = instance.pipe
        self.problem = admm.AdmmProblem(
            a_matrix=pipe.a_matrix,
            d_matrix=pipe.demand.d_matrix,
            costs=pipe.costs,
            q=pipe.demand.q,
            budget=instance.budget,
            t0_row=pipe.t0_row,
            w_row=pipe.w_row,
            columns=pipe.columns,
            background=pipe.background,
        )
        self.calls = [Call("relax", instance)]
        blocks = checks.od_blocks(pipe.demand.d_matrix)
        self._project = lambda y: project_feasible(
            y, blocks, pipe.demand.q, pipe.costs, instance.budget
        )

    def warm_up(self):
        admm.run_admm(self.problem, admm.AdmmConfig(**{**RELAX_CONFIG, "max_iters": 3}))

    def run(self, call):
        return admm.run_admm(self.problem, admm.AdmmConfig(**RELAX_CONFIG))

    def check(self, call, output):
        p = self.problem
        objective = checks.bpr_total(p.a_matrix, p.background, p.t0_row, p.w_row, output.u)
        bound = checks.relaxation_lower_bound(p, output.u, self._project)
        reasons = checks.check_relaxation(output, objective, bound)
        quality = {"tt_ratio_opt": objective / bound, "relax_gap": (objective - bound) / bound}
        return reasons, quality

    def end_pass(self):
        pass


def readme_6():
    scenario = harness.generate_synthetic(
        nodes=8, richness=2, tightness=1.3, drivers=6, seed=README_SEED
    )
    return SolverWorkload(Instance(f"readme{README_SEED}", scenario, 100.0))


def relax_480():
    scenario = harness.generate_synthetic(nodes=160, richness=2, tightness=1.3, drivers=480, seed=7)
    return RelaxWorkload(Instance("relax480", scenario, 100.0))


WORKLOADS = {"readme-6": readme_6, "relax-480": relax_480}
