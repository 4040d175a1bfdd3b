"""Desk-scale linear programming and integer branch-and-bound.

The LP solver is a dense bounded-variable tableau simplex. Every row gets
one logical column (a slack in [0, inf) for an inequality row, a column
fixed at 0 for an equality row), and bounds never become rows: a nonbasic
column sits at its lower or at its upper bound, and the tableau is
B^-1 [A I] with one row per constraint. A cold solve is a two-phase
bounded primal simplex: phase 1 starts every column at its lower bound
and minimises the sum of one artificial per row, phase 2 the real costs.
Both phases, and the dual simplex below, use Bland's rule (lowest index on
every choice and tie), which trades speed for guaranteed termination;
instances here are small (hundreds of rows and columns).

The MIP solver runs depth-first branch-and-bound on LP relaxations over
general bounded integers (a binary is an integer with ub = 1), splitting
on floor / ceil of the most fractional variable and diving into the child
with the lower bound first, with deterministic tie-breaking, so repeated
solves of the same instance return the same incumbent. A child differs
from its parent by one bound, so the parent's optimal basis stays dual
feasible for it and a bounded dual simplex re-optimises the child from
there; a row that has no eligible entering column proves the child
infeasible. Memory stays at about one tableau: the child explored next
reuses its parent's tableau, and the deferred sibling keeps only its basis
(basic columns and at-upper flags), from which its tableau is refactored
when it is popped. A node is dropped once its bound cannot beat the
incumbent by more than the requested relative gap. It serves the
free-flow MILP of scenario 1 only, which chooses per-column offer counts,
not per-driver binaries; the admm model's rounding is
``rounding.round_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, SolverLimitError

_PIVOT_TOL = 1e-9
_REDUCED_COST_TOL = 1e-9
_FEAS_TOL = 1e-9
_TIE_TOL = 1e-12
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
    """``basis`` is the optimal basis as (basic columns, at-upper flags)
    over the structural columns followed by one logical per row (the
    inequality rows first); ``pivots`` counts basis changes."""

    status: str  # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = np.nan
    pivots: int = 0
    basis: tuple = None


@dataclass
class MipResult:
    """Branch-and-bound outcome.

    ``optimal`` means the gap closed to zero, ``gap-limit`` that nodes were
    dropped inside the requested relative gap, ``iteration-limit`` that the
    node budget ran out; in the last two cases ``x`` is the incumbent, which
    is None when the node budget ran out before any integer point was found.
    ``pivots`` counts the simplex pivots of the root and every node LP.
    """

    status: str
    x: np.ndarray = None
    objective: float = np.nan
    gap: float = np.inf
    nodes: int = 0
    pivots: int = 0


class _Form:
    """The rows [a_ub; a_eq] with an identity of logical columns appended,
    their right-hand side, the costs padded with zeros, and the logicals'
    bounds."""

    def __init__(self, lp):
        a = np.vstack([lp.a_ub, lp.a_eq])
        m = a.shape[0]
        self.n = lp.num_vars
        self.a = np.hstack([a, np.eye(m)])
        self.b = np.concatenate([lp.b_ub, lp.b_eq])
        self.c = np.concatenate([lp.c, np.zeros(m)])
        self.logical_ub = np.concatenate([np.full(lp.b_ub.size, np.inf), np.zeros(lp.b_eq.size)])
        # per column: structurals 1e-9, row i's logical 1e-9 * max(1, |b_i|),
        # so a large right-hand side loosens only its own row
        self.feas_tol = _FEAS_TOL * np.concatenate([np.ones(self.n), np.maximum(1.0, np.abs(self.b))])

    def bounds(self, lb, ub):
        """Full-length (lower, upper) bounds for structural bounds lb, ub."""
        m = self.b.size
        return np.concatenate([lb, np.zeros(m)]), np.concatenate([ub, self.logical_ub])


class _Tableau:
    """B^-1 [A I], the basic values and the reduced costs of one basis.

    Every nonbasic column sits at ``lo`` or, where ``at_upper`` says so, at
    ``hi``; ``beta`` holds the basic columns' values.
    """

    def __init__(self, form, lo, hi, basis, at_upper, t, beta):
        self.form, self.lo, self.hi = form, lo, hi
        self.basis, self.at_upper, self.t, self.beta = basis, at_upper, t, beta
        self.d = None

    @classmethod
    def factor(cls, form, lo, hi, basis, at_upper):
        """Refactor the tableau of a basis from the original rows."""
        b_inv = np.linalg.inv(form.a[:, basis])
        nonbasic = np.where(at_upper, hi, lo)
        nonbasic[basis] = 0.0
        beta = b_inv @ (form.b - form.a @ nonbasic)
        tab = cls(form, lo, hi, basis.copy(), at_upper.copy(), b_inv @ form.a, beta)
        tab.price(form.c)
        return tab

    def price(self, c):
        self.d = c - c[self.basis] @ self.t
        self.d[self.basis] = 0.0

    def copy(self):
        names = ("lo", "hi", "basis", "at_upper", "t", "beta")
        other = _Tableau(self.form, *(getattr(self, name).copy() for name in names))
        other.d = self.d.copy()
        return other

    def structurals(self):
        x = np.where(self.at_upper, self.hi, self.lo)
        x[self.basis] = self.beta
        return x[: self.form.n]

    def movable(self):
        """Nonbasic columns with room between their bounds."""
        free = self.hi > self.lo
        free[self.basis] = False
        return free

    def set_bounds(self, j, lo_j, hi_j):
        """New bounds on basic column j: no basic value moves."""
        self.lo[j], self.hi[j] = lo_j, hi_j

    def pivot(self, r, j, delta, leave_upper):
        """Move column j by delta and swap it into row r's place; the
        leaving column becomes nonbasic at its upper bound if leave_upper."""
        col = self.t[:, j].copy()
        entering_value = (self.hi[j] if self.at_upper[j] else self.lo[j]) + delta
        self.beta -= delta * col
        self.at_upper[self.basis[r]] = leave_upper
        self.at_upper[j] = False
        row = self.t[r] / col[r]
        col[r] = 0.0
        rows = col.nonzero()[0]
        self.t[rows] -= np.outer(col[rows], row)
        self.t[r] = row
        self.d -= self.d[j] * row
        self.basis[r] = j
        self.beta[r] = entering_value


def _primal_simplex(tab):
    """Bounded primal simplex with Bland's rule from a feasible basis.

    Returns (status, pivots); status is optimal or unbounded.
    """
    pivots = 0
    for _ in range(_MAX_PIVOTS):
        movable = tab.movable()
        up = movable & ~tab.at_upper & (tab.d < -_REDUCED_COST_TOL)
        down = movable & tab.at_upper & (tab.d > _REDUCED_COST_TOL)
        eligible = (up | down).nonzero()[0]
        if eligible.size == 0:
            return "optimal", pivots
        j = eligible[0]
        direction = 1.0 if up[j] else -1.0
        col = direction * tab.t[:, j]  # the basic values move by -col per unit step
        lo_b, hi_b = tab.lo[tab.basis], tab.hi[tab.basis]
        ratios = np.full(col.size, np.inf)
        falling = col > _PIVOT_TOL
        ratios[falling] = (tab.beta[falling] - lo_b[falling]) / col[falling]
        rising = (col < -_PIVOT_TOL) & np.isfinite(hi_b)
        ratios[rising] = (hi_b[rising] - tab.beta[rising]) / -col[rising]
        ratios = np.maximum(ratios, 0.0)
        step = float(np.min(ratios, initial=np.inf))
        span = tab.hi[j] - tab.lo[j]
        if span <= step:
            if not np.isfinite(span):
                return "unbounded", pivots
            # the entering column reaches its other bound first: no pivot
            tab.beta -= direction * span * tab.t[:, j]
            tab.at_upper[j] = not tab.at_upper[j]
            continue
        ties = (ratios <= step + _TIE_TOL).nonzero()[0]
        r = ties[np.argmin(tab.basis[ties])]
        tab.pivot(r, j, direction * step, leave_upper=bool(col[r] < 0))
        pivots += 1
    raise SolverLimitError("simplex pivot budget", _MAX_PIVOTS)


def _dual_simplex(tab):
    """Bounded dual simplex with Bland's rule from a dual-feasible basis.

    Returns (status, pivots); status is optimal or infeasible.
    """
    pivots = 0
    for _ in range(_MAX_PIVOTS):
        lo_b, hi_b = tab.lo[tab.basis], tab.hi[tab.basis]
        above = tab.beta - hi_b
        excess = np.maximum(lo_b - tab.beta, above)
        bad = (excess > tab.form.feas_tol[tab.basis]).nonzero()[0]
        if bad.size == 0:
            return "optimal", pivots
        r = bad[np.argmin(tab.basis[bad])]
        too_high = above[r] > 0
        # a column may enter if moving it off its bound pushes row r back
        # toward the bound it broke
        push = tab.t[r] if too_high else -tab.t[r]
        push = np.where(tab.at_upper, -push, push)
        eligible = (tab.movable() & (push > _PIVOT_TOL)).nonzero()[0]
        if eligible.size == 0:
            return "infeasible", pivots
        ratios = np.abs(tab.d[eligible]) / push[eligible]
        j = eligible[np.argmax(ratios <= ratios.min() + _TIE_TOL)]
        target = hi_b[r] if too_high else lo_b[r]
        tab.pivot(r, j, (tab.beta[r] - target) / tab.t[r, j], leave_upper=bool(too_high))
        pivots += 1
    raise SolverLimitError("simplex pivot budget", _MAX_PIVOTS)


def solve_lp(lp):
    """Cold two-phase bounded simplex. Distinguishes infeasible from
    unbounded."""
    form = _Form(lp)
    lo, hi = form.bounds(lp.lb, lp.ub)
    m, n_cols = form.b.size, form.c.size
    # phase 1: one artificial column per row, signed so that it starts at
    # the row's |residual| while every other column sits at its lower bound
    residual = form.b - form.a @ lo
    sign = np.where(residual < 0, -1.0, 1.0)
    tab = _Tableau(
        form,
        np.concatenate([lo, np.zeros(m)]),
        np.concatenate([hi, np.full(m, np.inf)]),
        np.arange(n_cols, n_cols + m),
        np.zeros(n_cols + m, dtype=bool),
        np.hstack([sign[:, None] * form.a, np.eye(m)]),
        np.abs(residual),
    )
    tab.price(np.concatenate([np.zeros(n_cols), np.ones(m)]))
    _, pivots = _primal_simplex(tab)
    artificial_rows = (tab.basis >= n_cols).nonzero()[0]
    if tab.beta[artificial_rows].sum() > form.feas_tol.max():
        return LpResult(status="infeasible", pivots=pivots)
    # pivot the artificials left at zero out of the basis; [A I] has full
    # row rank, so each row has a nonzero entry off the artificials
    for r in artificial_rows:
        tab.pivot(r, int(np.argmax(np.abs(tab.t[r, :n_cols]))), 0.0, leave_upper=False)
    tab.lo, tab.hi, tab.at_upper = lo, hi, tab.at_upper[:n_cols]
    tab.t = np.ascontiguousarray(tab.t[:, :n_cols])
    tab.price(form.c)
    status, more = _primal_simplex(tab)
    pivots += more
    if status != "optimal":
        return LpResult(status=status, pivots=pivots)
    x = tab.structurals()
    basis = (tab.basis, tab.at_upper)
    return LpResult(status="optimal", x=x, objective=float(lp.c @ x), pivots=pivots, basis=basis)


def _branch(tab, j, value, c, cutoff):
    """Split a node's tableau on x_j <= floor(value) and x_j >= ceil(value)
    and re-optimise both children by the dual simplex, the up child in
    place. Returns the stack entries of the children whose bound is below
    ``cutoff``, in the order they are explored (the lower bound first, the
    down child on ties), the tableau of the first, and the pivots spent.
    """
    down = tab.copy()
    down.set_bounds(j, down.lo[j], np.floor(value))
    tab.set_bounds(j, np.ceil(value), tab.hi[j])
    kept, pivots = [], 0
    for child in (down, tab):
        status, child_pivots = _dual_simplex(child)
        pivots += child_pivots
        if status == "optimal":
            x = child.structurals()
            if c @ x < cutoff:
                kept.append((float(c @ x), x, child))
    kept.sort(key=lambda entry: entry[0])
    entries = [
        (bound, child.lo, child.hi, x, (child.basis.copy(), child.at_upper.copy()))
        for bound, x, child in kept
    ]
    return entries, (kept[0][2] if kept else None), pivots


def solve_binary_mip(lp, binary_vars, rel_gap=0.01, node_limit=100_000):
    """Depth-first branch-and-bound over the given integer variables.

    Each listed variable must take an integer value within its bounds; a
    binary is an integer with ub = 1. A node whose relaxation leaves x_j
    fractional splits into x_j <= floor(x_j) and x_j >= ceil(x_j), on the
    variable whose fractional part is closest to one half (lowest index on
    ties). Both children are re-optimised from the node's basis by the
    dual simplex, and the one with the lower bound is explored first (the
    down child on ties). A node is dropped when its bound is at least the
    incumbent minus 1e-9, or when an incumbent exists and (upper - bound) /
    max(|upper|, eps) <= rel_gap; the returned gap is measured from the
    least bound dropped by the second rule.

    Each integer variable's bounds are first rounded inward to integers, so
    a variable left at a bound is integral and every branch variable is
    basic. The simplex stops with SolverLimitError at ``_MAX_PIVOTS``
    pivots, and an unbounded relaxation raises InputError.
    """
    int_vars = np.array(sorted(set(int(j) for j in binary_vars)), dtype=int)
    if rel_gap < 0:
        raise InputError("rel_gap must be nonnegative")
    # + 0.0 keeps a lower bound of 0 from becoming ceil(-tol) = -0.0
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[int_vars] = np.ceil(lb[int_vars] - _INT_TOL) + 0.0
    ub[int_vars] = np.floor(ub[int_vars] + _INT_TOL)
    if np.any(lb > ub):
        return MipResult(status="infeasible")
    lp = replace(lp, lb=lb, ub=ub)
    incumbent = None
    upper = np.inf

    def relative_gap(lower):
        if incumbent is None:
            return np.inf
        if upper - lower <= 1e-12:
            return 0.0
        return (upper - lower) / max(abs(upper), 1e-12)

    res = solve_lp(lp)
    if res.status == "infeasible":
        return MipResult(status="infeasible", pivots=res.pivots)
    if res.status == "unbounded":
        raise InputError("relaxation is unbounded; bound the continuous variables")
    form = _Form(lp)
    lo, hi = form.bounds(lp.lb, lp.ub)
    # stack entries: (bound, lo, hi, x, basis); ``warm`` is the tableau of
    # the entry on top of the stack (the child explored next) or None, and
    # any other entry is refactored from its basis when it is popped
    stack = [(res.objective, lo, hi, res.x, res.basis)]
    warm = None
    dropped = np.inf  # least bound dropped inside the gap
    nodes = 0
    pivots = res.pivots

    while stack:
        bound, node_lo, node_hi, x_rel, basis = stack.pop()
        tab, warm = warm, None
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
                pivots=pivots,
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
        if tab is None:
            tab = _Tableau.factor(form, node_lo, node_hi, *basis)
        # most fractional: part closest to 0.5, ties to the lowest index
        pos = int(np.argmax(0.5 - np.abs(frac - 0.5)))
        children, warm, child_pivots = _branch(tab, int_vars[pos], values[pos], lp.c, upper - 1e-9)
        pivots += child_pivots
        stack.extend(reversed(children))

    if incumbent is None:
        return MipResult(status="infeasible", nodes=nodes, pivots=pivots)
    gap = relative_gap(dropped)
    status = "gap-limit" if gap > 1e-9 else "optimal"
    return MipResult(status=status, x=incumbent, objective=upper, gap=gap, nodes=nodes, pivots=pivots)
