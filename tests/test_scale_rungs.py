"""The scale rungs of the synthetic generator: the admm model at 7,200
drivers (the run's memory and sweep count), at 2,400 drivers with a budget
of 1,000 (the rounding-heavy run's sweep count and report row), and at
2,400 drivers with a budget of 100 under one and two BLAS threads (the
same sweeps and report row under both)."""

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


# the 2,400-driver rung at budget 100, run under the BLAS thread count set
# in the child's environment
RUNG_2400 = """
import json

from flowincentives.harness import generate_synthetic, report_csv_row, run_experiment

scenario = generate_synthetic(nodes=800, richness=2, tightness=1.3, drivers=2400, seed=7)
report = run_experiment(scenario, "admm", 100.0).report
print(json.dumps({"iterations": report.extra["iterations"], "row": report_csv_row(report)}))
"""


def run_child(code, **env):
    """The last line of ``code``'s stdout, read as JSON, from a child
    process that imports the package from this checkout, with ``env``
    added to its environment."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]), **env}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=180, env=env, check=True
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_admm_at_7200_drivers_converges_in_bounded_memory():
    # the relaxation, rounding and polish hold no n_cols x n_cols array
    # (this run took 40 s and 3.1 GB of max RSS while they did), the run
    # deals no per-driver S (697 MB with it), and routes carry no dense
    # one-hot over all links (436 MB with it, 407-409 MB without)
    run = run_child(RUNG_7200)
    assert (run["iterations"], run["converged"]) == (583, True)
    assert run["max_rss_mb"] <= 480, run


def test_admm_at_2400_drivers_budget_1000_report_is_pinned():
    # the relaxation converges in 117 sweeps
    scenario = generate_synthetic(nodes=800, richness=2, tightness=1.3, drivers=2400, seed=7)
    report = run_experiment(scenario, "admm", 1000.0).report
    assert report.extra["iterations"] == 117
    assert report_csv_row(report) == (
        "admm,1000,1,7,842,12.20833333,2.873720137,485.8284627,483.8116286,0.4151329542,318.256413,0:2107;2:261;10:32"
    )


def test_admm_at_2400_drivers_is_the_same_under_one_and_two_blas_threads():
    # OpenBLAS splits a long dot product across its threads, so a sum over
    # the ~10,000 floats of the Anderson step's vectors would round by the
    # thread count; the run must take the same sweeps to the same row
    # under either count
    runs = [run_child(RUNG_2400, OPENBLAS_NUM_THREADS=str(threads)) for threads in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0]["iterations"] == 472
