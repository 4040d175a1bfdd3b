"""Desk-scale linear programming and integer branch-and-bound.

The LP solver is a dense two-phase tableau simplex with Bland's rule, which
trades speed for guaranteed termination; instances here are small (tens of
rows and a few hundred columns). The MIP solver runs depth-first
branch-and-bound on LP relaxations over general bounded integers (a binary
is an integer with ub = 1), splitting on floor / ceil of the most
fractional variable and diving into the child with the lower bound first,
with deterministic tie-breaking, so repeated solves of the same instance
return the same incumbent. A node is dropped once its bound cannot beat
the incumbent by more than the requested relative gap. It serves the
free-flow MILP of scenario 1 only, which chooses per-column offer counts,
not per-driver binaries; the admm model's rounding is a DP in
``admm.round_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

_PIVOT_TOL = 1e-10
_REDUCED_COST_TOL = 1e-9
_FEAS_TOL = 1e-8
_INT_TOL = 1e-6
_MAX_PIVOTS = 200_000


@dataclass
class LinearProgram:
    """min c @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  lb <= x <= ub.

    Lower bounds must be finite; upper bounds may be +inf.
    """

    c: np.ndarray
    a_ub: np.ndarray = None
    b_ub: np.ndarray = None
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.a_ub = (
            np.zeros((0, n)) if self.a_ub is None else np.atleast_2d(np.asarray(self.a_ub, float))
        )
        self.b_ub = np.zeros(0) if self.b_ub is None else np.atleast_1d(np.asarray(self.b_ub, float))
        self.a_eq = (
            np.zeros((0, n)) if self.a_eq is None else np.atleast_2d(np.asarray(self.a_eq, float))
        )
        self.b_eq = np.zeros(0) if self.b_eq is None else np.atleast_1d(np.asarray(self.b_eq, float))
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.a_ub.shape != (self.b_ub.size, n) or self.a_eq.shape != (self.b_eq.size, n):
            raise InputError("constraint matrix dimensions do not match")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise InputError("bound vectors must have one entry per variable")
        if not np.all(np.isfinite(self.lb)):
            raise InputError("lower bounds must be finite")
        if np.any(self.lb > self.ub + 1e-12):
            raise InputError("lower bound exceeds upper bound")

    @property
    def num_vars(self):
        return self.c.size


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = np.nan


@dataclass
class MipResult:
    """Branch-and-bound outcome.

    ``optimal`` means the gap closed to zero, ``gap-limit`` that nodes were
    dropped inside the requested relative gap, ``iteration-limit`` that the
    node budget ran out; in the last two cases ``x`` is the incumbent, which
    is None when the node budget ran out before any integer point was found.
    """

    status: str
    x: np.ndarray = None
    objective: float = np.nan
    gap: float = np.inf
    nodes: int = 0


def _pivot(tableau, cost_row, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    if abs(cost_row[col]) > 0.0:
        cost_row -= cost_row[col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, cost_row, basis, allowed_cols):
    """Bland's-rule simplex on a tableau in canonical form; mutates inputs."""
    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in allowed_cols:
            if cost_row[j] < -_REDUCED_COST_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        rows = np.where(tableau[:, entering] > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = tableau[rows, -1] / tableau[rows, entering]
        best = np.min(ratios)
        # ties leave the basic variable with the smallest index (Bland)
        candidates = rows[ratios <= best + 1e-12]
        leaving = min(candidates, key=lambda i: basis[i])
        _pivot(tableau, cost_row, basis, leaving, entering)
    raise RuntimeError("simplex exceeded the pivot budget")


def _reduced_cost_row(c_ext, tableau, basis):
    row = c_ext.copy()
    for i, b in enumerate(basis):
        if abs(row[b]) > 0.0:
            row -= row[b] * tableau[i]
    return row


def solve_lp(lp):
    """Two-phase dense simplex. Distinguishes infeasible from unbounded."""
    n = lp.num_vars
    shift = lp.lb
    # work in y = x - lb >= 0; finite upper bounds become explicit rows
    ub_rows = np.where(np.isfinite(lp.ub))[0]
    m_ub, m_eq, m_bd = lp.b_ub.size, lp.b_eq.size, ub_rows.size
    n_slack = m_ub + m_bd
    a = np.zeros((m_ub + m_bd + m_eq, n + n_slack))
    b = np.zeros(m_ub + m_bd + m_eq)
    if m_ub:
        a[:m_ub, :n] = lp.a_ub
        b[:m_ub] = lp.b_ub - lp.a_ub @ shift
    for k, j in enumerate(ub_rows):
        a[m_ub + k, j] = 1.0
        b[m_ub + k] = lp.ub[j] - shift[j]
    if m_eq:
        a[m_ub + m_bd :, :n] = lp.a_eq
        b[m_ub + m_bd :] = lp.b_eq - lp.a_eq @ shift
    for i in range(n_slack):
        a[i, n + i] = 1.0
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    m = b.size
    n_total = n + n_slack
    # phase 1: artificial variables, minimize their sum; infeasibility is
    # judged relative to the row scale so huge right-hand sides don't trip
    # the absolute tolerance
    tableau = np.hstack([a, np.eye(m), b[:, None]])
    basis = list(range(n_total, n_total + m))
    c1 = np.zeros(n_total + m + 1)
    c1[n_total : n_total + m] = 1.0
    cost_row = _reduced_cost_row(c1, tableau, basis)
    status = _run_simplex(tableau, cost_row, basis, range(n_total))
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if status != "optimal" or -cost_row[-1] > _FEAS_TOL * scale:
        return LpResult(status="infeasible")
    # drive artificials out of the basis; rows that cannot pivot are redundant
    drop_rows = []
    for i in range(m):
        if basis[i] >= n_total:
            pivot_col = -1
            for j in range(n_total):
                if abs(tableau[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                drop_rows.append(i)
            else:
                _pivot(tableau, cost_row, basis, i, pivot_col)
    if drop_rows:
        keep = [i for i in range(m) if i not in set(drop_rows)]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]

    tableau = np.hstack([tableau[:, :n_total], tableau[:, -1:]])
    c2 = np.zeros(n_total + 1)
    c2[:n] = lp.c
    cost_row = _reduced_cost_row(c2, tableau, basis)
    status = _run_simplex(tableau, cost_row, basis, range(n_total))
    if status == "unbounded":
        return LpResult(status="unbounded")
    y = np.zeros(n_total)
    for i, bv in enumerate(basis):
        y[bv] = tableau[i, -1]
    x = y[:n] + shift
    return LpResult(status="optimal", x=x, objective=float(lp.c @ x))


def solve_binary_mip(lp, binary_vars, rel_gap=0.01, node_limit=100_000):
    """Depth-first branch-and-bound over the given integer variables.

    Each listed variable must take an integer value within its bounds; a
    binary is an integer with ub = 1. A node whose relaxation leaves x_j
    fractional splits into x_j <= floor(x_j) and x_j >= ceil(x_j), on the
    variable whose fractional part is closest to one half (lowest index on
    ties). Both children are solved, and the one with the lower bound is
    explored first (the down child on ties). A node is dropped when its
    bound is at least the incumbent minus 1e-9, or when an incumbent
    exists and (upper - bound) / max(|upper|, eps) <= rel_gap; the
    returned gap is measured from the least bound dropped by the second
    rule.
    """
    int_vars = np.array(sorted(set(int(j) for j in binary_vars)), dtype=int)
    if rel_gap < 0:
        raise InputError("rel_gap must be nonnegative")
    incumbent = None
    upper = np.inf

    def relative_gap(lower):
        if incumbent is None:
            return np.inf
        if upper - lower <= 1e-12:
            return 0.0
        return (upper - lower) / max(abs(upper), 1e-12)

    def relax(lb, ub):
        node = LinearProgram(
            c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub, a_eq=lp.a_eq, b_eq=lp.b_eq, lb=lb, ub=ub
        )
        return solve_lp(node)

    res = relax(lp.lb, lp.ub)
    if res.status == "infeasible":
        return MipResult(status="infeasible")
    if res.status == "unbounded":
        raise RuntimeError("relaxation is unbounded; bound the continuous variables")
    stack = [(res.objective, lp.lb, lp.ub, res.x)]
    dropped = np.inf  # least bound dropped inside the gap
    nodes = 0

    while stack:
        bound, node_lb, node_ub, x_rel = stack.pop()
        if bound >= upper - 1e-9:
            continue
        if relative_gap(bound) <= rel_gap:
            dropped = min(dropped, bound)
            continue
        nodes += 1
        if nodes > node_limit:
            lower = min([dropped, bound] + [node[0] for node in stack])
            return MipResult(
                status="iteration-limit",
                x=incumbent,
                objective=upper,
                gap=relative_gap(lower),
                nodes=nodes,
            )
        values = x_rel[int_vars]
        frac = values - np.floor(values)
        if frac.size == 0 or np.max(np.minimum(frac, 1.0 - frac)) <= _INT_TOL:
            x_int = x_rel.copy()
            x_int[int_vars] = np.round(values)
            obj = float(lp.c @ x_int)
            if obj < upper - 1e-12:
                upper = obj
                incumbent = x_int
            continue
        # most fractional: part closest to 0.5, ties to the lowest index
        pos = int(np.argmax(0.5 - np.abs(frac - 0.5)))
        branch = int_vars[pos]
        down_ub = node_ub.copy()
        down_ub[branch] = np.floor(values[pos])
        up_lb = node_lb.copy()
        up_lb[branch] = np.ceil(values[pos])
        children = []
        for child_lb, child_ub in ((node_lb, down_ub), (up_lb, node_ub)):
            child_res = relax(child_lb, child_ub)
            if child_res.status == "optimal" and child_res.objective < upper - 1e-9:
                children.append((child_res.objective, child_lb, child_ub, child_res.x))
        # the lower-bound child goes on top of the stack, the down child on ties
        children.sort(key=lambda child: child[0])
        stack.extend(reversed(children))

    if incumbent is None:
        return MipResult(status="infeasible", nodes=nodes)
    gap = relative_gap(dropped)
    status = "gap-limit" if gap > 1e-9 else "optimal"
    return MipResult(status=status, x=incumbent, objective=upper, gap=gap, nodes=nodes)
