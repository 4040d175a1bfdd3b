"""Command-line interface.

Verbs: ``generate`` (synthetic or preset scenario files), ``solve`` (one
model run, writing report.json/report.csv and, for the splitting solver,
residuals.csv), ``sweep`` (budget x penetration grid into one report.csv),
``oracle`` (exhaustive reference optimum), ``report`` (render a saved
report.json as a table / CSV).

Exit codes: 0 success, 2 infeasible model, 1 any other error. A splitting
solver run that stops at ``--max-iters`` unconverged, or a linear run whose
search stops at its node limit with an assignment in hand, still exits 0,
after one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DivergenceError, InfeasibleModelError, InputError, OracleSizeError, SolverLimitError
from .harness import (
    ORACLE_LIMIT,
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


def _floats(text):
    return [float(v) for v in text.split(",") if v != ""]


def _add_solver_flags(parser):
    parser.add_argument("--budget", type=float, default=0.0, help="incentive budget in dollars")
    parser.add_argument("--penetration", type=float, default=None, help="override the scenario's penetration rate")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    parser.add_argument("--vot", type=float, default=None, help="value of time, dollars per hour")
    parser.add_argument("--alpha", type=float, default=1.0, help="capacity multiplier for the linear model")
    parser.add_argument("--no-alpha-retry", action="store_true", help="fail instead of doubling alpha on infeasibility")
    parser.add_argument("--rel-gap", type=float, default=0.01, help="relative MIP optimality gap")
    parser.add_argument("--rho", type=float, default=1.0, help="dual update step")
    parser.add_argument("--lambda-reg", type=float, default=0.0, help="binary-forcing regularization weight, below --rho")
    parser.add_argument("--max-iters", type=int, default=5000, help="iteration cap for the splitting solver")
    parser.add_argument("--tol", type=float, default=1e-4, help="residual tolerance for early exit")


def _solver_kwargs(args):
    return dict(
        budget=args.budget,
        penetration=args.penetration,
        seed=args.seed,
        vot=args.vot,
        alpha=args.alpha,
        alpha_retry=not args.no_alpha_retry,
        rel_gap=args.rel_gap,
        rho=args.rho,
        lambda_reg=args.lambda_reg,
        max_iters=args.max_iters,
        tol=args.tol,
    )


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


def cmd_generate(args):
    if args.preset == "appendix-c":
        scenario = appendix_c_scenario()
    elif args.preset:
        raise InputError(f"unknown preset {args.preset!r}")
    else:
        scenario = generate_synthetic(
            nodes=args.nodes,
            richness=args.richness,
            tightness=args.tightness,
            drivers=args.drivers,
            seed=args.seed,
            horizon=args.horizon,
            unit_length_hours=args.unit_hours,
            menu_amounts=tuple(_floats(args.menu)),
            multi_route_fraction=args.multi_route_fraction,
            later_fraction=args.later_fraction,
        )
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_solve(args):
    scenario = load_scenario(args.scenario)
    kwargs = _solver_kwargs(args)
    budget = kwargs.pop("budget")
    outcome = run_experiment(scenario, args.model, budget, **kwargs)
    os.makedirs(args.out_dir, exist_ok=True)
    write_report_json(outcome.report, os.path.join(args.out_dir, "report.json"))
    write_reports_csv([outcome.report], os.path.join(args.out_dir, "report.csv"))
    if outcome.admm_result is not None:
        write_residuals_csv(outcome.admm_result, os.path.join(args.out_dir, "residuals.csv"))
    r = outcome.report
    _warn_unconverged(r)
    print(
        f"{r.model}: baseline {r.baseline_tt_hours:.4f} h -> {r.achieved_tt_hours:.4f} h "
        f"({r.pct_reduction:+.2f}%), cost ${r.cost_used:.2f} of ${r.budget:.2f}"
    )
    print(f"reports in {args.out_dir}")
    return 0


def cmd_sweep(args):
    scenario = load_scenario(args.scenario)
    kwargs = _solver_kwargs(args)
    kwargs.pop("budget")
    kwargs.pop("penetration")
    reports = sweep(
        scenario,
        args.model,
        _floats(args.budgets),
        _floats(args.penetrations),
        **kwargs,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "report.csv")
    write_reports_csv(reports, path)
    for report in reports:
        _warn_unconverged(report)
    print(f"wrote {len(reports)} rows to {path}")
    return 0


def cmd_oracle(args):
    scenario = load_scenario(args.scenario)
    result = brute_force_oracle(
        scenario,
        args.budget,
        objective=args.objective,
        alpha=args.alpha if args.objective == "free_flow" else None,
        penetration=args.penetration,
        seed=args.seed,
        limit=args.limit,
    )
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


def cmd_report(args):
    from .harness import CSV_COLUMNS, ExperimentReport, report_csv_row

    with open(args.report) as fh:
        obj = json.load(fh)
    report = ExperimentReport.from_json_dict(obj)
    width = max(len(k) for k in obj)
    for key in sorted(obj):
        print(f"{key:<{width}}  {obj[key]}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            fh.write(report_csv_row(report) + "\n")
        print(f"wrote {args.csv}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="flowincentives", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scenario JSON file")
    p.add_argument("--preset", default="", help="named scenario, e.g. appendix-c")
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--richness", type=int, default=2, help="route alternatives per OD pair")
    p.add_argument("--tightness", type=float, default=1.0, help="per-route driver share over capacity")
    p.add_argument("--drivers", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=2)
    p.add_argument("--unit-hours", type=float, default=0.2)
    p.add_argument("--menu", default="0,2,10", help="comma-separated dollar amounts")
    p.add_argument("--multi-route-fraction", type=float, default=1.0)
    p.add_argument("--later-fraction", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one model and write reports")
    p.add_argument("scenario")
    p.add_argument("--model", choices=("linear", "admm"), required=True)
    _add_solver_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="budget x penetration grid")
    p.add_argument("scenario")
    p.add_argument("--model", choices=("linear", "admm"), required=True)
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--penetrations", default="1.0", help="comma-separated rates")
    _add_solver_flags(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="exhaustive reference optimum")
    p.add_argument("scenario")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--objective", choices=("bpr", "free_flow"), default="bpr")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--penetration", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--limit", type=float, default=ORACLE_LIMIT)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="print a saved report.json")
    p.add_argument("report")
    p.add_argument("--csv", default=None, help="also write this CSV path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
