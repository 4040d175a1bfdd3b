"""Hot numeric kernels: volume-delay prox solves and exhaustive enumeration.

The prox kernel solves, independently for every (time, link) row,

    minimize over g >= 0:  g * d(g) - lam * g + (rho / 2) * (m - g)^2

with d the BPR delay t0 * (1 + 0.15 (g/w)^4). The derivative
t0 + 0.75 t0 g^4 / w^4 - lam + rho (g - m) is strictly increasing, so a
safeguarded Newton iteration with a bisection bracket always converges.
Rows whose derivative at 0 is already nonnegative have their root at 0;
they are dropped before the Newton loop, which runs on the compressed
remaining rows only and scatters its roots back at the end.

The enumeration kernel walks every per-driver offer combination within a
budget (and optional capacity bound), tracking the best objective; ties keep
the first, i.e. lexicographically smallest, choice vector.
"""

from __future__ import annotations

import numpy as np

DERIVATIVE_TOL = 1e-10

OBJECTIVE_BPR = 0
OBJECTIVE_FREE_FLOW = 1


def _gamma_bracket_high(m, lam, rho):
    # derivative at m + lam/rho is t0 * (1 + 0.15 (g/w)^4) > 0, so the root
    # lies in (0, m + lam/rho] wherever the derivative at 0 is negative
    return np.maximum(m + lam / rho, 1e-12)


def gamma_solve(m, lam, rho, t0, w, tol=DERIVATIVE_TOL):
    """Vectorized safeguarded Newton for the volume prox, one root per row."""
    m = np.asarray(m, dtype=float).ravel()
    rho = float(rho)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), m.shape)
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), m.shape)
    w = np.broadcast_to(np.asarray(w, dtype=float), m.shape)
    quart = 0.75 * t0 / w**4
    roots = np.zeros_like(m)
    # only rows with a negative derivative at 0 have a positive root
    active = t0 + quart * roots**4 - lam + rho * (roots - m) < 0.0
    m, lam, t0, quart = m[active], lam[active], t0[active], quart[active]
    quart4 = 4.0 * quart
    lo = np.zeros_like(m)
    hi = _gamma_bracket_high(m, lam, rho)
    g = np.clip(m, 1e-12, hi)
    for _ in range(200):
        d = t0 + quart * g**4 - lam + rho * (g - m)
        if np.abs(d).max(initial=0.0) < tol:
            break
        np.copyto(lo, g, where=d < 0.0)
        np.copyto(hi, g, where=d > 0.0)
        step = g - d / (quart4 * g**3 + rho)
        # false for NaN and +-inf steps too, which then bisect
        inside = (step > lo) & (step < hi)
        g = np.where(inside, step, 0.5 * (lo + hi))
    roots[active] = g
    return roots


def _enumerate(
    a_matrix,
    background,
    columns,
    lengths,
    costs,
    budget,
    objective_kind,
    free_flow_cost,
    capacity,
    t0_row,
    w_row,
):
    """Depth-first walk over padded per-driver column lists."""
    n_drivers = columns.shape[0]
    n_rows = a_matrix.shape[0]
    v_stack = np.zeros((n_drivers + 1, n_rows))
    v_stack[0] = background
    cost_stack = np.zeros(n_drivers + 1)
    lin_stack = np.zeros(n_drivers + 1)
    pos = np.zeros(n_drivers, dtype=np.int64)
    best_obj = np.inf
    best = np.full(n_drivers, -1, dtype=np.int64)
    count = 0
    has_cap = capacity is not None
    depth = 0
    while depth >= 0:
        if pos[depth] >= lengths[depth]:
            pos[depth] = 0
            depth -= 1
            if depth >= 0:
                pos[depth] += 1
            continue
        col = columns[depth, pos[depth]]
        new_cost = cost_stack[depth] + costs[col]
        if new_cost > budget + 1e-9:
            pos[depth] += 1
            continue
        v = v_stack[depth] + a_matrix[:, col]
        if has_cap and np.any(v > capacity + 1e-9):
            pos[depth] += 1
            continue
        v_stack[depth + 1] = v
        cost_stack[depth + 1] = new_cost
        lin_stack[depth + 1] = lin_stack[depth] + free_flow_cost[col]
        if depth + 1 == n_drivers:
            count += 1
            if objective_kind == OBJECTIVE_FREE_FLOW:
                obj = lin_stack[depth + 1]
            else:
                obj = float(np.sum(v * t0_row * (1.0 + 0.15 * (v / w_row) ** 4)))
            if obj < best_obj - 1e-15:
                best_obj = obj
                best = np.array(
                    [columns[k, pos[k]] for k in range(n_drivers)], dtype=np.int64
                )
            pos[depth] += 1
        else:
            depth += 1
    return best_obj, best, count


def enumerate_assignments(
    a_matrix,
    background,
    per_driver_columns,
    costs,
    budget,
    objective="bpr",
    free_flow_cost=None,
    capacity=None,
    t0_row=None,
    w_row=None,
):
    """Best feasible per-driver offer combination by exhaustive search.

    ``per_driver_columns`` is a list of int arrays (allowed columns per
    driver). Returns (best objective, chosen column per driver, number of
    feasible assignments); the chosen vector is -1s when nothing is feasible.
    """
    n_drivers = len(per_driver_columns)
    max_len = max((len(c) for c in per_driver_columns), default=0)
    columns = np.full((max(n_drivers, 1), max(max_len, 1)), -1, dtype=np.int64)
    lengths = np.zeros(max(n_drivers, 1), dtype=np.int64)
    for k, cols in enumerate(per_driver_columns):
        columns[k, : len(cols)] = cols
        lengths[k] = len(cols)
    a_matrix = np.asarray(a_matrix, dtype=float)
    background = np.asarray(background, dtype=float)
    costs = np.asarray(costs, dtype=float)
    kind = OBJECTIVE_FREE_FLOW if objective == "free_flow" else OBJECTIVE_BPR
    if free_flow_cost is None:
        free_flow_cost = np.zeros(a_matrix.shape[1])
    free_flow_cost = np.asarray(free_flow_cost, dtype=float)
    if t0_row is None:
        t0_row = np.ones(a_matrix.shape[0])
    if w_row is None:
        w_row = np.ones(a_matrix.shape[0])
    t0_row = np.asarray(t0_row, dtype=float)
    w_row = np.asarray(w_row, dtype=float)
    if n_drivers == 0:
        base = background
        if kind == OBJECTIVE_FREE_FLOW:
            return 0.0, np.zeros(0, dtype=np.int64), 1
        obj = float(np.sum(base * t0_row * (1.0 + 0.15 * (base / w_row) ** 4)))
        return obj, np.zeros(0, dtype=np.int64), 1
    cap = np.asarray(capacity, dtype=float) if capacity is not None else None
    return _enumerate(
        a_matrix,
        background,
        columns,
        lengths,
        costs,
        float(budget),
        kind,
        free_flow_cost,
        cap,
        t0_row,
        w_row,
    )
