"""Command-line interface.

Verbs: ``generate`` (synthetic or preset scenario files), ``solve`` (one
model run, writing report.json/report.csv and, for the splitting solver,
residuals.csv), ``sweep`` (budget x penetration grid into one report.csv),
``oracle`` (exhaustive reference optimum), ``report`` (render a saved
report.json as a table / CSV).

Each verb hands its flags by name to one library call (``generate_synthetic``,
``run_experiment``, ``sweep``, ``brute_force_oracle``) and passes only the
flags given on the command line, so every default is the library's own.
``sweep`` takes the grid flags ``--budgets`` and ``--penetrations`` in place
of ``solve``'s ``--budget`` and ``--penetration``.

Exit codes: 0 success, 2 infeasible model, 1 any other error (a usage error,
an input the library refuses, or a solver limit), after one ``error:`` line
on stderr. A splitting solver run that stops at ``--max-iters`` unconverged,
or a linear run whose search stops at its node limit with an assignment in
hand, still exits 0, after one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DivergenceError, InfeasibleModelError, InputError, OracleSizeError, SolverLimitError
from .harness import (
    ExperimentReport,
    appendix_c_scenario,
    brute_force_oracle,
    generate_synthetic,
    load_scenario,
    run_experiment,
    save_scenario,
    sweep,
    write_report_json,
    write_reports_csv,
    write_residuals_csv,
)


class _Parser(argparse.ArgumentParser):
    """A usage error raises InputError, which ``main`` reports as one
    ``error:`` line and exit code 1, not argparse's exit code 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _floats(text):
    """A comma-separated list of numbers, as an argparse ``type``."""
    try:
        return tuple(float(v) for v in text.split(",") if v != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}") from None


def _add_run_flags(parser):
    """The scenario, model and ``run_experiment`` settings of ``solve`` and ``sweep``."""
    parser.add_argument("scenario")
    parser.add_argument("--model", choices=("linear", "admm"), required=True)
    parser.add_argument("--seed", type=int, help="override the scenario's seed")
    parser.add_argument("--vot", type=float, help="value of time, dollars per hour")
    parser.add_argument("--alpha", type=float, help="capacity multiplier for the linear model")
    parser.add_argument(
        "--no-alpha-retry",
        dest="alpha_retry",
        action="store_false",
        help="fail instead of doubling alpha on infeasibility",
    )
    parser.add_argument("--rel-gap", type=float, help="relative MIP optimality gap")
    parser.add_argument("--rho", type=float, help="dual update step")
    parser.add_argument("--lambda-reg", type=float, help="binary-forcing regularization weight, below --rho")
    parser.add_argument("--max-iters", type=int, help="iteration cap for the splitting solver")
    parser.add_argument("--tol", type=float, help="residual tolerance for early exit")
    parser.add_argument("--out-dir", default=".")


def _warn_unconverged(report):
    """One stderr line when the splitting-solver run hit max_iters or the
    linear run's search hit its node limit."""
    extra = report.extra
    where = f"at budget {report.budget:g}, penetration {report.penetration_rate:g}"
    if not extra.get("converged", True):
        print(
            f"warning: admm run {where} did not converge in {extra['iterations']} iterations "
            f"(largest final residual {max(extra['final_residuals']):.3g})",
            file=sys.stderr,
        )
    if extra.get("mip_status") == "iteration-limit":
        print(
            f"warning: linear run {where} stopped at its node limit "
            f"(status {extra['mip_status']}, gap {extra['mip_gap']:.3g})",
            file=sys.stderr,
        )


def cmd_generate(out, preset=None, **synthetic):
    if preset is None:
        scenario = generate_synthetic(**synthetic)
    elif synthetic:
        raise InputError("--preset takes no synthetic scenario flags")
    elif preset == "appendix-c":
        scenario = appendix_c_scenario()
    else:
        raise InputError(f"unknown preset {preset!r}")
    save_scenario(scenario, out)
    print(f"wrote {out}")
    return 0


def cmd_solve(scenario, out_dir, **run_args):
    outcome = run_experiment(load_scenario(scenario), **run_args)
    os.makedirs(out_dir, exist_ok=True)
    write_report_json(outcome.report, os.path.join(out_dir, "report.json"))
    write_reports_csv([outcome.report], os.path.join(out_dir, "report.csv"))
    if outcome.admm_result is not None:
        write_residuals_csv(outcome.admm_result, os.path.join(out_dir, "residuals.csv"))
    r = outcome.report
    _warn_unconverged(r)
    print(
        f"{r.model}: baseline {r.baseline_tt_hours:.4f} h -> {r.achieved_tt_hours:.4f} h "
        f"({r.pct_reduction:+.2f}%), cost ${r.cost_used:.2f} of ${r.budget:.2f}"
    )
    print(f"reports in {out_dir}")
    return 0


def cmd_sweep(scenario, out_dir, **grid_args):
    reports = sweep(load_scenario(scenario), **grid_args)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.csv")
    write_reports_csv(reports, path)
    for report in reports:
        _warn_unconverged(report)
    print(f"wrote {len(reports)} rows to {path}")
    return 0


def cmd_oracle(scenario, **oracle_args):
    result = brute_force_oracle(load_scenario(scenario), **oracle_args)
    print(
        json.dumps(
            {
                "objective": result.objective,
                "feasible_assignments": result.feasible_count,
                "offers": result.counts.tolist(),
            },
            indent=2,
        )
    )
    return 0


def cmd_report(report, csv):
    with open(report) as fh:
        obj = json.load(fh)
    parsed = ExperimentReport.from_json_dict(obj)
    width = max(len(k) for k in obj)
    for key in sorted(obj):
        print(f"{key:<{width}}  {obj[key]}")
    if csv:
        write_reports_csv([parsed], csv)
        print(f"wrote {csv}")
    return 0


def build_parser():
    """Each verb's flags carry the library's keyword names; flags left out
    are absent from the parsed namespace (``argparse.SUPPRESS``)."""
    parser = _Parser(prog="flowincentives", description=__doc__)
    sub = parser.add_subparsers(required=True)
    absent = argparse.SUPPRESS

    p = sub.add_parser("generate", help="write a scenario JSON file", argument_default=absent)
    p.add_argument("--preset", help="named scenario, e.g. appendix-c")
    p.add_argument("--nodes", type=int)
    p.add_argument("--richness", type=int, help="route alternatives per OD pair")
    p.add_argument("--tightness", type=float, help="per-route driver share over capacity")
    p.add_argument("--drivers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--unit-hours", dest="unit_length_hours", type=float)
    p.add_argument("--menu", dest="menu_amounts", type=_floats, help="comma-separated dollar amounts")
    p.add_argument("--multi-route-fraction", type=float)
    p.add_argument("--later-fraction", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one model and write reports", argument_default=absent)
    _add_run_flags(p)
    p.add_argument("--budget", type=float, default=0.0, help="incentive budget in dollars")
    p.add_argument("--penetration", type=float, help="override the scenario's penetration rate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="budget x penetration grid", argument_default=absent)
    _add_run_flags(p)
    p.add_argument("--budgets", type=_floats, required=True, help="comma-separated budgets")
    p.add_argument("--penetrations", type=_floats, default=(1.0,), help="comma-separated rates")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive reference optimum", argument_default=absent)
    p.add_argument("scenario")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--objective", choices=("bpr", "free_flow"))
    p.add_argument("--alpha", type=float, help="capacity multiplier, free_flow objective only")
    p.add_argument("--penetration", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--limit", type=float)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="print a saved report.json")
    p.add_argument("report")
    p.add_argument("--csv", help="also write this CSV path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = vars(build_parser().parse_args(argv))
        return args.pop("func")(**args)
    except InfeasibleModelError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.binding_rows:
            print(f"candidate binding (link, time) rows: {exc.binding_rows}", file=sys.stderr)
        return 2
    except (InputError, OracleSizeError, SolverLimitError, DivergenceError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
