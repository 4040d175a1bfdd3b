import json
import shlex
import time
from pathlib import Path

import pytest

import flowincentives.cli as cli
from flowincentives import harness
from flowincentives.cli import main
from flowincentives.errors import DivergenceError, SolverLimitError


def test_generate_preset_and_solve(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--preset", "appendix-c", "--out", str(scenario)]) == 0
    out_dir = tmp_path / "run"
    code = main(
        [
            "solve",
            str(scenario),
            "--model",
            "admm",
            "--budget",
            "5",
            "--max-iters",
            "1500",
            "--tol",
            "1e-5",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "residuals.csv").exists()
    header = (out_dir / "residuals.csv").read_text().splitlines()[0]
    assert header.startswith("iteration,offer_mass,column_sum,demand,volume")
    report = json.loads((out_dir / "report.json").read_text())
    assert report["model"] == "admm"
    assert report["budget"] == 5.0


def test_solve_linear_writes_no_residuals(tmp_path):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "4", "--seed", "1", "--out", str(scenario)])
    out_dir = tmp_path / "lin"
    code = main(
        ["solve", str(scenario), "--model", "linear", "--budget", "2", "--alpha", "6",
         "--out-dir", str(out_dir)]
    )
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert not (out_dir / "residuals.csv").exists()


def test_sweep_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "4", "--seed", "2", "--out", str(scenario)])
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    for d in dirs:
        code = main(
            ["sweep", str(scenario), "--model", "linear", "--budgets", "0,4",
             "--penetrations", "0.5,1.0", "--alpha", "6", "--out-dir", str(d)]
        )
        assert code == 0
    assert (dirs[0] / "report.csv").read_bytes() == (dirs[1] / "report.csv").read_bytes()


def test_oracle_verb(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    capsys.readouterr()
    assert main(["oracle", str(scenario), "--budget", "5"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{") :])
    # 4 columns per driver = 16 combos, minus the 4 where both take a $5 offer
    assert data["feasible_assignments"] == 12


def _readme_command(prefix):
    """The README's CLI line that starts with ``prefix``, as argv."""
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    line = next(line for line in text.splitlines() if line.strip().startswith(prefix))
    return shlex.split(line)[1:]


def test_readme_oracle_example(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_readme_command("flowincentives generate --nodes")) == 0
    capsys.readouterr()
    assert main(_readme_command("flowincentives oracle")) == 0
    out = capsys.readouterr().out
    assert isinstance(json.loads(out)["objective"], float)


def test_readme_admm_example(tmp_path, capsys, monkeypatch):
    # the README's admm solve on its 24-driver scenario, at the defaults:
    # converges without a warning, well inside its time bound (about 0.1 s)
    monkeypatch.chdir(tmp_path)
    assert main(_readme_command("flowincentives generate --nodes")) == 0
    capsys.readouterr()
    started = time.perf_counter()
    assert main(_readme_command("flowincentives solve scenario.json --model admm")) == 0
    assert time.perf_counter() - started < 30.0
    assert "warning:" not in capsys.readouterr().err
    assert json.loads((tmp_path / "results" / "report.json").read_text())["extra"]["converged"]


def test_readme_linear_example_at_full_penetration(tmp_path, capsys, monkeypatch):
    # the README's linear solve on its 24-driver scenario with every driver
    # in the cohort: the 1% gap stops the search after about a hundred nodes
    monkeypatch.chdir(tmp_path)
    assert main(_readme_command("flowincentives generate --nodes")) == 0
    capsys.readouterr()
    argv = _readme_command("flowincentives solve scenario.json --model linear")
    argv[argv.index("--penetration") + 1] = "1"
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 15.0
    report = json.loads((tmp_path / "results" / "report.json").read_text())
    assert report["penetration_rate"] == 1.0
    assert report["extra"]["mip_gap"] <= 0.01


def test_unconverged_admm_warns(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    capsys.readouterr()
    code = main(
        ["solve", str(scenario), "--model", "admm", "--budget", "5", "--max-iters", "5",
         "--out-dir", str(tmp_path / "admm")]
    )
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: ") and "5 iterations" in err[0]
    code = main(
        ["solve", str(scenario), "--model", "linear", "--budget", "5", "--out-dir", str(tmp_path / "lin")]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_unknown_preset_exit_code(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    assert main(["generate", "--preset", "appendix-d", "--out", str(scenario)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: unknown preset 'appendix-d'"]
    assert not scenario.exists()


def test_node_limited_linear_warns(tmp_path, capsys, monkeypatch):
    # the README generator at 6 drivers: under a 20-node limit the search
    # stops with an incumbent at gap 0.014, above the 1% asked for
    solve = harness.solve_scenario1
    monkeypatch.setattr(harness, "solve_scenario1", lambda *args: solve(*args, node_limit=20))
    scenario = tmp_path / "scenario.json"
    generate = "generate --nodes 8 --tightness 1.3 --drivers 6 --seed 7 --out"
    main([*generate.split(), str(scenario)])
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "linear", "--budget", "100", "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: linear run at budget 100, penetration 1 stopped at its node limit "
        "(status iteration-limit, gap 0.014)"
    ]


def test_report_verb(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    out_dir = tmp_path / "run"
    main(["solve", str(scenario), "--model", "linear", "--budget", "0", "--out-dir", str(out_dir)])
    csv_path = tmp_path / "again.csv"
    assert main(["report", str(out_dir / "report.json"), "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    assert (out_dir / "report.csv").read_text().splitlines()[1] == csv_path.read_text().splitlines()[1]


def test_report_verb_rejects_malformed_report(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    out_dir = tmp_path / "run"
    main(["solve", str(scenario), "--model", "linear", "--budget", "0", "--out-dir", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    broken = [
        {k: v for k, v in report.items() if k != "budget"},
        {**report, "budget": "lots"},
        {**report, "incentive_distribution": [0, 2]},
        [report],
    ]
    for obj in broken:
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["report", str(path), "--csv", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: malformed report JSON")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("breakage", ["no horizon", "demand without count"])
def test_solve_rejects_malformed_scenario(tmp_path, capsys, breakage):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "4", "--seed", "1", "--out", str(scenario)])
    obj = json.loads(scenario.read_text())
    if breakage == "no horizon":
        del obj["horizon"]
    else:
        del obj["demand"][0]["count"]
    scenario.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "admm", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: malformed scenario JSON")
    assert not (tmp_path / "x").exists()


def test_infeasible_exit_code(tmp_path):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "8", "--tightness", "3.0", "--seed", "3",
          "--out", str(scenario)])
    code = main(
        ["solve", str(scenario), "--model", "linear", "--budget", "2", "--alpha", "0.001",
         "--no-alpha-retry", "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2


def test_error_exit_code(tmp_path):
    assert main(["solve", str(tmp_path / "missing.json"), "--model", "linear"]) == 1


def test_negative_rel_gap_exit_code(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "linear", "--rel-gap", "-1",
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "rel_gap" in capsys.readouterr().err
    assert not (tmp_path / "x" / "report.json").exists()


def test_nan_tolerance_exit_code(tmp_path, capsys):
    # NaN passes every comparison-based check; the run would use up max_iters
    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "admm", "--tol", "nan",
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1
    assert "residual_tol" in capsys.readouterr().err
    assert not (tmp_path / "x" / "report.json").exists()


@pytest.mark.parametrize("where", ["solve --seed", "sweep --seed", "oracle --seed", "generate --seed", "scenario"])
def test_negative_seed_exit_code(tmp_path, capsys, where):
    # numpy's generators reject negative seeds; the CLI must say so in one
    # error line before any work, not end in a traceback
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "4", "--seed", "1", "--out", str(scenario)])
    if where == "scenario":
        obj = json.loads(scenario.read_text())
        obj["seed"] = -1
        scenario.write_text(json.dumps(obj))
    out_dir = tmp_path / "x"
    argv = {
        "solve --seed": ["solve", str(scenario), "--model", "admm", "--seed", "-1", "--out-dir", str(out_dir)],
        "sweep --seed": ["sweep", str(scenario), "--model", "linear", "--budgets", "0", "--seed", "-2",
                         "--out-dir", str(out_dir)],
        "oracle --seed": ["oracle", str(scenario), "--budget", "1", "--seed", "-1"],
        "generate --seed": ["generate", "--nodes", "4", "--drivers", "4", "--seed", "-3",
                            "--out", str(tmp_path / "other.json")],
        "scenario": ["solve", str(scenario), "--model", "linear", "--out-dir", str(out_dir)],
    }[where]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
    assert not out_dir.exists() and not (tmp_path / "other.json").exists()


def test_generate_later_entrants_need_two_intervals(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    code = main(["generate", "--nodes", "8", "--drivers", "24", "--later-fraction", "0.5",
                 "--horizon", "1", "--out", str(scenario)])
    assert code == 1
    assert "horizon" in capsys.readouterr().err
    assert not scenario.exists()


def test_solver_limit_exit_code(tmp_path, capsys, monkeypatch):
    def stopped(*args, **kwargs):
        raise SolverLimitError("node_limit", 0)

    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    monkeypatch.setattr(cli, "run_experiment", stopped)
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "linear", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: stopped at node_limit=0 before finding a feasible point"]


def _links(obj):
    return obj["network"]["links"]


def _set_background(obj, first):
    """A background volume of ``first`` on the first (time, link) row, 0 elsewhere."""
    obj["background_volume"] = [first] + [0.0] * (len(_links(obj)) * obj["horizon"] - 1)


# each case: how it breaks the scenario JSON, the command's flags, and a
# word the error line names
ADMM = ["--model", "admm"]
NON_FINITE_CASES = {
    "t0": (lambda obj: _links(obj)[0].update(t0_hours=float("nan")), ADMM, "t0"),
    "capacity": (lambda obj: _links(obj)[1].update(capacity=float("nan")), ADMM, "capacity"),
    "length": (lambda obj: _links(obj)[0].update(length_miles=float("inf")), ADMM, "length"),
    "unit length": (lambda obj: obj.update(unit_length_hours=float("nan")), ADMM, "unit length"),
    "theta": (lambda obj: obj["choice"].update(theta_tt=float("nan")), ADMM, "theta_tt"),
    "amount": (lambda obj: obj["choice"]["incentive_amounts"].__setitem__(1, float("nan")), ADMM, "amounts"),
    "vot": (lambda obj: obj.update(vot=float("nan")), ADMM, "value of time"),
    "background nan": (lambda obj: _set_background(obj, float("nan")), ADMM, "finite and nonnegative"),
    "background negative": (lambda obj: _set_background(obj, -1.0), ADMM, "finite and nonnegative"),
    "--budget nan": (None, ADMM + ["--budget", "nan"], "budget"),
    "--budget inf": (None, ADMM + ["--budget", "inf"], "budget"),
    "--alpha nan": (None, ["--model", "linear", "--alpha", "nan"], "alpha"),
    "--vot nan": (None, ADMM + ["--vot", "nan"], "value of time"),
    "--rel-gap nan": (None, ["--model", "linear", "--rel-gap", "nan"], "rel_gap"),
    "oracle --limit nan": (None, ["--limit", "nan"], "limit"),
    "generate --tightness nan": (None, ["--tightness", "nan"], "tightness"),
    "generate --later-fraction nan": (None, ["--later-fraction", "nan"], "fractions"),
    "generate --multi-route-fraction nan": (None, ["--multi-route-fraction", "nan"], "fractions"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_input_exit_code(tmp_path, capsys, case):
    # NaN slips past every comparison-based check and infinity past the
    # sign checks; each must end in one error line before any work, not in
    # a traceback, an exact search or a NaN report
    breakage, flags, word = NON_FINITE_CASES[case]
    scenario = tmp_path / "scenario.json"
    main(["generate", "--nodes", "4", "--drivers", "4", "--seed", "1", "--out", str(scenario)])
    if breakage is not None:
        obj = json.loads(scenario.read_text())
        breakage(obj)
        scenario.write_text(json.dumps(obj))
    out_dir = tmp_path / "x"
    if case.startswith("oracle"):
        argv = ["oracle", str(scenario), "--budget", "1", *flags]
    elif case.startswith("generate"):
        argv = ["generate", "--nodes", "4", "--drivers", "4", *flags, "--out", str(out_dir)]
    else:
        argv = ["solve", str(scenario), *flags, "--out-dir", str(out_dir)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and word in err[0], err
    assert not out_dir.exists()


def test_divergence_exit_code(tmp_path, capsys, monkeypatch):
    def diverged(*args, **kwargs):
        raise DivergenceError("w", 3)

    scenario = tmp_path / "scenario.json"
    main(["generate", "--preset", "appendix-c", "--out", str(scenario)])
    monkeypatch.setattr(cli, "run_experiment", diverged)
    capsys.readouterr()
    code = main(["solve", str(scenario), "--model", "admm", "--out-dir", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite values in block 'w' at iteration 3")
