"""Frozen copy of the per-driver ADMM sweep and volume-prox kernel.

The package's sweep weights each S column by the drivers it stands for,
computes A u + bg once per sweep and folds the finite check into the
residual norms. At one column per driver (unit weights, as
``initial_state`` gives for per-driver problems) none of that may change a
single bit of any iterate. This module keeps the plain unweighted form
every float is checked against: each block returns a fresh array, every
formula is written out once, in the order the package evaluates it.

The package's prox is no longer this one: it runs plain Newton on
compressed rows where ``gamma_solve`` here keeps the safeguarded,
bracketed Newton over every row. Both stop at the same |phi| < 1e-10, so
their roots agree to within 1e-9, not to the bit; the bit-identity test
runs the package's sweep with this prox substituted for its own.

Kept separate from the package so it shares no code with what it checks;
``sweep`` takes the package's problem and state objects and the u-update
inverse, nothing else.
"""

import numpy as np


def gamma_solve(m, lam, rho, t0, w, tol=1e-10):
    """Safeguarded Newton over every row, inactive rows pinned at 0."""
    m = np.asarray(m, dtype=float).ravel()
    rho = float(rho)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), m.shape)
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), m.shape)
    w = np.broadcast_to(np.asarray(w, dtype=float), m.shape)
    quart = 0.75 * t0 / w**4

    def deriv(g):
        return t0 + quart * g**4 - lam + rho * (g - m)

    active = deriv(np.zeros_like(m)) < 0.0
    lo = np.zeros_like(m)
    hi = np.where(active, np.maximum(m + lam / rho, 1e-12), 1e-12)
    g = np.where(active, np.clip(m, 1e-12, hi), 0.0)
    for _ in range(200):
        d = np.where(active, deriv(g), 0.0)
        if np.all(np.abs(d) < tol):
            break
        lo = np.where(d < 0.0, g, lo)
        hi = np.where(d > 0.0, g, hi)
        slope = 4.0 * quart * g**3 + rho
        step = g - d / slope
        outside = (step <= lo) | (step >= hi) | ~np.isfinite(step)
        g = np.where(active, np.where(outside, 0.5 * (lo + hi), step), 0.0)
    return g


def _volume(u, p):
    return p.a_matrix @ u + p.background


def sweep(state, problem, rho, lambda_reg, u_factor, order):
    """One sweep in the given block order; rebinds every state array."""
    p = problem
    for block in order:
        if block == 0:
            rhs = (
                (state.lam1 - p.d_matrix.T @ state.lam3 - p.a_matrix.T @ state.lam4
                 - state.lam6 * p.costs)
                / rho
                + state.s_mat.sum(axis=1)
                + p.d_matrix.T @ p.q
                + p.a_matrix.T @ (state.gamma - p.background)
                + (p.budget - state.beta) * p.costs
            )
            state.u = u_factor @ rhs
            m = state.s_mat.shape[0]
            g = 1.0 + state.s_mat - (state.lam7 + state.lam2[None, :]) / rho
            state.w_mat = g - g.sum(axis=0, keepdims=True) / (m + 1.0)
            x = (rho * state.s_mat - state.lam5 - lambda_reg / 2.0) / (rho - lambda_reg)
            state.h_mat = np.clip(x, 0.0, 1.0)
        else:
            n = state.h_mat.shape[1]
            g = (
                state.u[:, None]
                + (state.lam5 + state.lam7 - state.lam1[:, None]) / rho
                + state.h_mat
                + state.w_mat
            )
            state.s_mat = (g - g.sum(axis=1, keepdims=True) / (n + 2.0)) / 2.0
            state.gamma = gamma_solve(_volume(state.u, p), state.lam4, rho, p.t0_row, p.w_row)
            state.beta = max(0.0, p.budget - float(p.costs @ state.u) - state.lam6 / rho)

    residuals = (
        state.s_mat.sum(axis=1) - state.u,
        state.w_mat.sum(axis=0) - 1.0,
        p.d_matrix @ state.u - p.q,
        _volume(state.u, p) - state.gamma,
        state.h_mat - state.s_mat,
        np.array([float(p.costs @ state.u) + state.beta - p.budget]),
        state.w_mat - state.s_mat,
    )
    r1, r2, r3, r4, r5, r6, r7 = residuals
    state.lam1 = state.lam1 + rho * r1
    state.lam2 = state.lam2 + rho * r2
    state.lam3 = state.lam3 + rho * r3
    state.lam4 = state.lam4 + rho * r4
    state.lam5 = state.lam5 + rho * r5
    state.lam6 = state.lam6 + rho * float(r6[0])
    state.lam7 = state.lam7 + rho * r7

    state.iteration += 1
    state.residual_history.append(np.array([np.linalg.norm(r) for r in residuals]))
    v = np.maximum(_volume(state.u, p), 0.0)
    state.objective_history.append(
        float(np.sum(v * p.t0_row * (1.0 + 0.15 * (v / p.w_row) ** 4)))
    )
    return state
