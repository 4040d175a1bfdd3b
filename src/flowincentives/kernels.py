"""Hot numeric kernels: BPR terms, volume-delay prox solves and exhaustive enumeration.

The prox kernel solves, independently for every (time, link) row,

    minimize over g >= 0:  g * d(g) - lam * g + (rho / 2) * (m - g)^2

with d the BPR delay t0 * (1 + 0.15 (g/w)^4). Rows whose derivative
phi(g) = t0 + q g^4 - lam + rho (g - m), q = 0.75 t0 / w^4, is already
nonnegative at 0 have their root at 0. The Newton loop runs over every
row: those rows start at 0 with c0 = phi(0) = t0 - lam - rho m clamped to
0, where phi is exactly 0, so no pass moves them, and every other row
sees the operations it would see alone. A pass evaluates phi in Horner
form, c0 + g (q g^3 + rho), and reuses q g^3 for the slope. Plain Newton
needs no safeguard: on g >= 0, phi' = 4 q g^3 + rho >= rho > 0 and
phi'' = 12 q g^2 >= 0, and a tangent under-estimates a convex function,
so a step from any g >= 0 lands at or right of the root, and from there
the iterates decrease monotonically onto it (the Fourier condition;
Ortega & Rheinboldt, *Iterative Solution of Nonlinear Equations in
Several Variables*, 1970). A row already within the tolerance is only
refined, never knocked back. The loop stops once every row has
|phi| < ``DERIVATIVE_TOL``, or after 200 passes.

The enumeration kernel searches offer counts, not per-driver choices:
drivers of one OD pair are interchangeable, so each pair contributes its
compositions of q_k drivers over its m_k columns, listed in decreasing
lexicographic order of counts, and count vectors are their product with
OD 0 outermost (C order over the mixed-radix index). Dealt to drivers by
``flow.deal_counts``, this order gives ascending per-driver choice vectors.
Vectors are scored in chunks. A chunk's best is its first vector within
1e-15 of the chunk minimum, and it replaces the running best only when
lower by more than 1e-15, so ties go to the lexicographically smallest
per-driver choice vector.
"""

from __future__ import annotations

import math

import numpy as np

DERIVATIVE_TOL = 1e-10

# floats in one chunk's volume block (64 KB): the chunk's temporaries stay
# in cache, and an oracle call adds nothing to the peak RSS of a desk run
ENUMERATION_CHUNK = 1 << 13


def bpr_terms(v, t0, w):
    """Per-row BPR travel time v * t0 * (1 + 0.15 (v/w)^4)."""
    return v * t0 * (1.0 + 0.15 * (v / w) ** 4)


class ProxRows:
    """Row buffers that repeated ``gamma_solve`` calls reuse, with q as
    ``quart`` and ``out``, where each call writes its root."""

    def __init__(self, quart, out):
        self.quart, self.out = quart, out
        self.c0, self.q_cube, self.d, self.work = np.empty((4, out.size))


def gamma_solve(m, lam, rho, t0, w, quart=None):
    """Vectorized Newton for the volume prox, one root per entry of ``m``,
    which is raveled; the other arguments broadcast against it. ``quart``
    is q = 0.75 t0 / w^4, computed here when not given, or a ``ProxRows``
    whose buffers the loop runs in and whose ``out`` it returns; otherwise
    the root is a new array. ``m`` and ``lam`` are only read."""
    if type(m) is not np.ndarray or m.ndim != 1:
        m = np.asarray(m, dtype=float).ravel()
    if not isinstance(quart, ProxRows):
        quart = ProxRows(0.75 * t0 / w**4 if quart is None else quart, np.empty(m.size))
    q, g, c0, q_cube, d, work = quart.quart, quart.out, quart.c0, quart.q_cube, quart.d, quart.work
    # phi(0), clamped to 0: rows where it is nonnegative start at their root, 0, and stay
    np.subtract(np.subtract(t0, lam, c0), np.multiply(m, rho, d), c0)
    np.maximum(m, 0.0, out=g)
    np.copyto(g, 0.0, where=c0 >= 0.0)
    np.minimum(c0, 0.0, out=c0)
    for _ in range(200):
        # phi(g) = c0 + g (q g^3 + rho), phi'(g) = 4 q g^3 + rho
        np.multiply(q, np.multiply(np.multiply(g, g, q_cube), g, q_cube), q_cube)
        np.add(c0, np.multiply(g, np.add(q_cube, rho, d), d), d)
        if np.maximum.reduce(np.abs(d, work), initial=0.0) < DERIVATIVE_TOL:
            break
        # g - phi / phi'
        np.subtract(g, np.divide(d, np.add(np.multiply(q_cube, 4.0, work), rho, work), work), g)
    return g


def _compositions(total, parts, memo):
    """Nonnegative integer ``parts``-vectors summing to ``total``.

    Rows come in decreasing lexicographic order, most mass on the first
    part first; each comes with its multinomial coefficient
    total! / prod(u_j!) as an exact Python int (object array).
    """
    key = (total, parts)
    if key not in memo:
        if parts == 1:
            memo[key] = (np.array([[total]], dtype=np.int64), np.array([1], dtype=object))
        else:
            tables, weights = [], []
            for first in range(total, -1, -1):
                rest, rest_weights = _compositions(total - first, parts - 1, memo)
                tables.append(np.column_stack((np.full(len(rest), first), rest)))
                weights.append(rest_weights * math.comb(total, first))
            memo[key] = (np.concatenate(tables), np.concatenate(weights))
    return memo[key]


def enumerate_assignments(
    a_matrix,
    background,
    blocks,
    q,
    costs,
    budget,
    free_flow_cost,
    t0_row,
    w_row,
    objective="bpr",
    capacity=None,
):
    """Best feasible offer counts by exhaustive search over count vectors.

    ``blocks`` (``DemandModel.blocks``) lists each OD pair's columns,
    ascending, and ``q`` its driver count. Every ``u`` whose pair counts
    sum to ``q`` with ``costs . u <= budget`` (and ``A u + background <=
    capacity`` when ``capacity`` is given) is scored by its BPR total
    travel time, or by ``free_flow_cost . u`` when ``objective`` is
    "free_flow". Returns (best objective, best count vector, number of
    feasible per-driver assignments); the count is the exact int sum of
    prod_k q_k! / prod_j u_j! over feasible count vectors, and the best
    count vector is None when nothing is feasible.
    """
    memo = {}
    pairs = [(cols, *_compositions(int(q_k), len(cols), memo)) for cols, q_k in zip(blocks, q)]
    sizes = [len(table) for _, table, _ in pairs]
    n_vectors = math.prod(sizes)
    step = max(1, ENUMERATION_CHUNK // a_matrix.shape[0])
    best_obj, best_u, count = np.inf, None, 0
    for start in range(0, n_vectors, step):
        digits = np.unravel_index(np.arange(start, min(start + step, n_vectors)), sizes)
        u = np.zeros((len(digits[0]), a_matrix.shape[1]))
        for (cols, table, _), d in zip(pairs, digits):
            u[:, cols] = table[d]
        v = u @ a_matrix.T + background
        feasible = u @ costs <= budget + 1e-9
        if capacity is not None:
            feasible &= np.all(v <= capacity + 1e-9, axis=1)
        rows = np.nonzero(feasible)[0]
        if rows.size == 0:
            continue
        weight = 1
        for (_, _, weights), d in zip(pairs, digits):
            weight = weight * weights[d[rows]]
        count += int(weight.sum())
        if objective == "free_flow":
            obj = u[rows] @ free_flow_cost
        else:
            v = v[rows]
            obj = bpr_terms(v, t0_row, w_row).sum(axis=1)
        first = np.argmax(obj <= obj.min() + 1e-15)
        if obj[first] < best_obj - 1e-15:
            best_obj, best_u = float(obj[first]), u[rows[first]].copy()
    return best_obj, best_u, count
