"""The benchmark's metric catalogue: (name, unit, which direction is better).

BENCHMARK.json lists the same end-to-end and per-layer metrics; the
benchmark's tests keep the two in step.
"""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("admm_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("tt_ratio_opt.admm", "ratio", "lower"),
)

# printed for reading but not part of the JSON result, because not every
# workload has them
INFORMATIONAL = (
    ("wall_clock_s", "s", "lower"),
    ("setup_clock_s", "s", "lower"),
    ("linear_s", "s", "lower"),
    ("oracle_s", "s", "lower"),
    ("relax_s", "s", "lower"),
    ("pct_reduction.admm", "%", "higher"),
    ("pct_reduction.linear", "%", "higher"),
    ("tt_ratio_opt.admm.max", "ratio", "lower"),
    ("tt_ratio_opt.linear", "ratio", "lower"),
    ("relax_gap_ref", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("passes", "count", "higher"),
)

# layer functions the traced run wraps, as module.function
TRACED_FUNCTIONS = (
    "harness.run_experiment",
    "harness.brute_force_oracle",
    "harness.prepare",
    "harness.solve_linear",
    "harness.solve_admm_model",
    "harness.realized_travel_time",
    "network.enumerate_routes",
    "choice.build_choice_matrix",
    "flow.build_location_matrix",
    "flow.compose_a",
    "scenario1.build_scenario1",
    "scenario1.solve_scenario1",
    "lp.solve_binary_mip",
    "lp.solve_lp",
    "admm.run_admm",
    "admm.initial_state",
    "admm.build_u_factor",
    "admm.admm_iterate",
    "admm.u_update",
    "admm.w_update",
    "admm.h_update",
    "admm.s_update",
    "admm.gamma_subproblem",
    "admm.beta_update",
    "admm.residual_vectors",
    "admm.relaxed_objective",
    "admm.round_assignment",
    "kernels.gamma_solve",
    "kernels.enumerate_assignments",
)

PER_LAYER = (
    tuple((f"{name}.s", "s", "lower") for name in TRACED_FUNCTIONS)
    + (
        ("kernels.gamma_solve.calls", "count", "lower"),
        ("admm.run_admm.calls", "count", "lower"),
        ("lp.solve_lp.calls", "count", "lower"),
        ("lp.solve_binary_mip.calls", "count", "lower"),
        ("admm.round_assignment.calls", "count", "lower"),
        ("scenario1.solve_scenario1.calls", "count", "lower"),
        ("harness.prepare.calls", "count", "lower"),
        ("admm.iters", "count", "lower"),
        ("admm.converged_frac", "ratio", "higher"),
        ("admm.ms_per_iter", "ms", "lower"),
        ("lp.solve_lp.optimal_frac", "ratio", "higher"),
        ("lp.bb_nodes", "count", "lower"),
        ("harness.alpha_doublings", "count", "lower"),
        ("kernels.oracle_assignments", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    )
)
