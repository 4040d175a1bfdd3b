"""The two scale rungs of the synthetic generator: the admm model at 7,200
drivers (the run's memory and sweep count) and at 2,400 drivers with a
budget of 1,000 (the rounding-heavy run's sweep count and report row)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from flowincentives.harness import generate_synthetic, report_csv_row, run_experiment

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a child process, so that ru_maxrss is this run's peak alone
RUNG_7200 = """
import json
import resource

from flowincentives.harness import generate_synthetic, run_experiment

scenario = generate_synthetic(nodes=2400, richness=2, tightness=1.3, drivers=7200, seed=7)
extra = run_experiment(scenario, "admm", 100.0).report.extra
max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"iterations": extra["iterations"], "converged": extra["converged"], "max_rss_mb": max_rss_mb}))
"""


def test_admm_at_7200_drivers_converges_in_bounded_memory():
    # the relaxation, rounding and polish hold no n_cols x n_cols array
    # (this run took 40 s and 3.1 GB of max RSS while they did), the run
    # deals no per-driver S (697 MB with it), and routes carry no dense
    # one-hot over all links (436 MB with it, 407-409 MB without)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", RUNG_7200], capture_output=True, text=True, timeout=180, env=env, check=True
    )
    run = json.loads(child.stdout.splitlines()[-1])
    assert (run["iterations"], run["converged"]) == (1830, True)
    assert run["max_rss_mb"] <= 480, run


def test_admm_at_2400_drivers_budget_1000_report_is_pinned():
    # the relaxation converges in 236 sweeps, and the row is the one the
    # column-at-a-time rounding DP gave
    scenario = generate_synthetic(nodes=800, richness=2, tightness=1.3, drivers=2400, seed=7)
    report = run_experiment(scenario, "admm", 1000.0).report
    assert report.extra["iterations"] == 236
    assert report_csv_row(report) == (
        "admm,1000,1,7,956,8.416666667,4.732673267,485.8284627,483.6763964,0.4429683504,339.5960664,0:2198;2:133;10:69"
    )
