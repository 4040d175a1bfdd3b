"""Independent first-order reference solver for the relaxed incentive problem.

Minimizes the expected total travel time f(u) = sum v * bpr(v), v = A u + bg
over the polytope {u >= 0, per-OD sums = q, costs @ u <= budget} by
projected gradient with Armijo backtracking.

The projection onto the feasible set is computed exactly through the dual
of the budget row: the projection equals P_simplex(y - mu * costs) for some
multiplier mu >= 0, and the budget usage of that point is nonincreasing in
mu, so a bisection pins mu to machine precision. P_simplex is the standard
sort-based Euclidean projection onto each OD block's scaled simplex.

Kept deliberately separate from the package so it shares no code with the
solver it checks.
"""

import numpy as np


def project_scaled_simplex(y, total):
    """Euclidean projection onto {x >= 0, sum(x) = total}."""
    if total <= 0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, y.size + 1)
    cond = u - css / idx > 0
    rho = np.nonzero(cond)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def project_demand_blocks(y, blocks, q):
    out = np.zeros_like(y)
    for k, cols in enumerate(blocks):
        out[cols] = project_scaled_simplex(y[cols], q[k])
    return out


def project_feasible(y, blocks, q, costs, budget, iters=200):
    """Exact projection onto the demand simplexes intersected with the budget.

    Raises ValueError when the intersection is empty, i.e. the budget is
    below the cheapest demand-feasible cost sum_k q_k * min(costs[block_k]).
    """
    x = project_demand_blocks(y, blocks, q)
    if float(costs @ x) <= budget + 1e-12:
        return x
    cheapest = sum(qk * float(np.min(costs[cols])) for cols, qk in zip(blocks, q))
    if budget < cheapest - 1e-12:
        raise ValueError(
            f"budget {budget} is below the cheapest demand-feasible cost {cheapest}"
        )
    # find mu with costs @ P(y - mu c) = budget; usage is nonincreasing in mu
    lo, hi = 0.0, 1.0
    for _ in range(100):
        x = project_demand_blocks(y - hi * costs, blocks, q)
        if float(costs @ x) <= budget:
            break
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x = project_demand_blocks(y - mid * costs, blocks, q)
        if float(costs @ x) > budget:
            lo = mid
        else:
            hi = mid
    return project_demand_blocks(y - hi * costs, blocks, q)


def solve_reference(a_matrix, background, blocks, q, costs, budget, t0_row, w_row,
                    max_iters=20000, ftol=1e-12):
    """Projected gradient with backtracking; returns (u, objective)."""

    def objective(u):
        v = a_matrix @ u + background
        return float(np.sum(v * t0_row * (1.0 + 0.15 * (v / w_row) ** 4)))

    def gradient(u):
        v = a_matrix @ u + background
        return a_matrix.T @ (t0_row * (1.0 + 0.75 * (v / w_row) ** 4))

    def project(y):
        return project_feasible(y, blocks, q, costs, budget)

    u = project(np.zeros(a_matrix.shape[1]))
    f = objective(u)
    step = 1.0
    stall = 0
    for _ in range(max_iters):
        g = gradient(u)
        while True:
            cand = project(u - step * g)
            f_cand = objective(cand)
            if f_cand <= f - 1e-4 * float(g @ (u - cand)) + 1e-15:
                break
            step *= 0.5
            if step < 1e-14:
                return u, f
        moved = np.max(np.abs(cand - u))
        rel = (f - f_cand) / max(abs(f), 1.0)
        u, f = cand, f_cand
        step = min(step * 2.0, 1e6)
        if rel < ftol and moved < 1e-10:
            stall += 1
            if stall >= 5:
                break
        else:
            stall = 0
    assert np.all(u >= -1e-9)
    assert float(costs @ u) <= budget + 1e-6
    for k, cols in enumerate(blocks):
        assert abs(float(u[cols].sum()) - q[k]) < 1e-6
    return u, f
