"""Solver-free output checks for every timed benchmark call.

Each check returns a list of failure reasons; an empty list means the
output passed. Nothing here calls a solver: assignments are checked against
the pipeline's own structure, travel times are recomputed from the BPR
formula, and the relaxation is judged against a lower bound that needs only
a projection and a linear minimization over the feasible polytope.
"""

import numpy as np

# gate 4's tolerance for the relaxed objective against a reference optimum
RELAX_GAP_TOL = 0.01
RESIDUAL_TOL = 1e-4


def bpr_total(a_matrix, background, t0_row, w_row, counts):
    """Total travel time of the expected volumes A counts + background."""
    v = a_matrix @ counts + background
    return float(np.sum(v * t0_row * (1.0 + 0.15 * (v / w_row) ** 4)))


def check_assignment(s_mat, pipe, budget):
    """One binary offer per eligible driver, inside its own OD block,
    within the budget, with per-OD totals equal to the demand q."""
    reasons = []
    s_mat = np.asarray(s_mat, dtype=float)
    n_cols = pipe.a_matrix.shape[1]
    if s_mat.shape != (n_cols, pipe.demand.num_drivers):
        return [f"assignment shape {s_mat.shape} != {(n_cols, pipe.demand.num_drivers)}"]
    if not np.all((s_mat == 0.0) | (s_mat == 1.0)):
        reasons.append("assignment is not binary")
    if not np.all(s_mat.sum(axis=0) == 1.0):
        reasons.append("a driver does not get exactly one offer")
    for n, allowed in enumerate(pipe.columns):
        if np.any(np.delete(s_mat[:, n], allowed) != 0.0):
            reasons.append(f"driver {n} has an offer outside its OD pair")
            break
    counts = s_mat.sum(axis=1)
    cost = float(pipe.costs @ counts)
    if cost > budget + 1e-9:
        reasons.append(f"cost {cost:.6g} exceeds budget {budget:.6g}")
    if not np.array_equal(pipe.demand.d_matrix @ counts, pipe.demand.q):
        reasons.append("per-OD offer totals differ from the demand q")
    return reasons


def check_reported_tt(reported, s_mat, pipe):
    """The travel time a call reports is the one its assignment realizes."""
    counts = np.asarray(s_mat).sum(axis=1)
    own = bpr_total(pipe.a_matrix, pipe.background, pipe.t0_row, pipe.w_row, counts)
    if abs(reported - own) > 1e-9 * max(1.0, abs(own)):
        return [f"reported travel time {reported:.12g} != recomputed {own:.12g}"]
    return []


def check_against_oracle(achieved, optimum):
    """No feasible assignment beats the exhaustive optimum."""
    if achieved < optimum - 1e-9 * max(1.0, abs(optimum)):
        return [f"travel time {achieved:.12g} is below the oracle optimum {optimum:.12g}"]
    return []


def od_blocks(d_matrix):
    return [np.nonzero(row > 0)[0] for row in d_matrix]


def relaxation_lower_bound(problem, u, project):
    """Certified lower bound on the convex relaxation's optimum.

    ``project`` maps ``u`` onto the feasible polytope P = {u >= 0,
    per-OD sums = q, costs @ u <= budget}. The objective f is convex, so at
    the projected point x, f* >= f(x) + min over s in P of grad f(x) (s - x).
    That linear minimization is bounded below by its Lagrangian dual in the
    budget multiplier mu >= 0, valid for every mu; bisection on the dual's
    supergradient makes the bound tight.
    """
    p = problem
    blocks = od_blocks(p.d_matrix)
    x = project(np.asarray(u, dtype=float))
    v = p.a_matrix @ x + p.background
    f = float(np.sum(v * p.t0_row * (1.0 + 0.15 * (v / p.w_row) ** 4)))
    g = p.a_matrix.T @ (p.t0_row * (1.0 + 0.75 * (v / p.w_row) ** 4))

    def dual(mu):
        """Dual value at mu and its supergradient (spend minus budget)."""
        value, spend = -mu * p.budget, 0.0
        for k, cols in enumerate(blocks):
            reduced = g[cols] + mu * p.costs[cols]
            j = int(np.argmin(reduced))
            value += p.q[k] * reduced[j]
            spend += p.q[k] * p.costs[cols[j]]
        return value, spend - p.budget

    best, slope = dual(0.0)
    lo, hi = 0.0, 1.0
    if slope > 0:
        # every OD pair has a $0 column, so a large enough mu spends nothing
        while dual(hi)[1] > 0:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            value, slope = dual(mid)
            best = max(best, value)
            lo, hi = (mid, hi) if slope > 0 else (lo, mid)
    return f - float(g @ x) + best


def check_relaxation(result, objective, lower_bound):
    """Converged, every residual under tol, objective within 1% of optimal."""
    reasons = []
    if not result.converged:
        reasons.append(f"relaxation did not converge in {result.iterations} iterations")
    final = np.asarray(result.residuals[-1])
    if not np.all(final < RESIDUAL_TOL):
        reasons.append(f"final residuals {final.max():.3g} >= {RESIDUAL_TOL}")
    gap = (objective - lower_bound) / lower_bound
    if gap > RELAX_GAP_TOL:
        reasons.append(f"relaxed objective {gap:.3%} above the certified lower bound")
    return reasons
