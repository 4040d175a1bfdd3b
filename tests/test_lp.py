import itertools

import numpy as np
import pytest

from flowincentives.errors import InputError, SolverLimitError
from flowincentives.lp import LinearProgram, _dual_simplex, _Form, _Tableau, solve_binary_mip, solve_lp


def vertex_enumeration_optimum(c, a_ub, b_ub, ub):
    """Independent LP oracle: check every basic point of {Ax<=b, 0<=x<=ub}.

    Stacks the inequality rows with both bound rows, solves every n-subset,
    keeps feasible solutions, and returns the best objective.
    """
    n = c.size
    g = np.vstack([a_ub, np.eye(n), -np.eye(n)])
    h = np.concatenate([b_ub, ub, np.zeros(n)])
    best = None
    combos = list(itertools.combinations(range(g.shape[0]), n))
    mats = np.stack([g[list(idx)] for idx in combos])
    rhss = np.stack([h[list(idx)] for idx in combos])
    dets = np.abs(np.linalg.det(mats))
    solvable = dets > 1e-9
    solutions = np.full((len(combos), n), np.nan)
    solutions[solvable] = np.linalg.solve(mats[solvable], rhss[solvable][..., None])[..., 0]
    for x in solutions[solvable]:
        if np.all(g @ x <= h + 1e-9):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def test_lower_bound_constraint():
    res = solve_lp(LinearProgram(c=[1.0], a_ub=[[-1.0]], b_ub=[-3.0]))
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0])
    assert res.objective == pytest.approx(3.0)


def test_box_maximization():
    res = solve_lp(LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0)


def test_infeasible_vs_unbounded_distinguished():
    assert solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])).status == "infeasible"
    assert solve_lp(LinearProgram(c=[-1.0])).status == "unbounded"


def test_equality_rows_and_shifted_bounds():
    # min x + y s.t. x + y = 2, 0.5 <= x <= 1.5
    res = solve_lp(
        LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[2.0],
            lb=np.array([0.5, 0.0]),
            ub=np.array([1.5, np.inf]),
        )
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(2.0)


def test_degenerate_lp_terminates():
    # Beale's cycling example; Bland's rule must terminate at -0.05
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b_ub = np.array([0.0, 0.0, 1.0])
    res = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m, n = 5, 8
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 3.0, size=m)
        c = rng.normal(size=n)
        ub = np.full(n, 4.0)
        mine = solve_lp(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, ub=ub))
        oracle = vertex_enumeration_optimum(c, a_ub, b_ub, ub)
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(oracle, abs=1e-6)


def _knapsack():
    rng = np.random.default_rng(4)
    weight = rng.uniform(1.0, 5.0, 6)
    return LinearProgram(c=-rng.uniform(1.0, 10.0, 6), a_ub=[weight], b_ub=[0.5 * weight.sum()], ub=np.ones(6))


def test_lp_validation():
    with pytest.raises(InputError):
        LinearProgram(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], lb=np.array([2.0]), ub=np.array([1.0]))
    with pytest.raises(InputError):
        LinearProgram(c=[1.0], lb=np.array([-np.inf]))


def test_knapsack_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = 6
        value = rng.uniform(1.0, 10.0, n)
        weight = rng.uniform(1.0, 5.0, n)
        cap = float(weight.sum() * rng.uniform(0.3, 0.7))
        lp = LinearProgram(c=-value, a_ub=[weight], b_ub=[cap], ub=np.ones(n))
        res = solve_binary_mip(lp, range(n), rel_gap=0.0)
        best = min(
            -value @ np.array(bits)
            for bits in itertools.product([0, 1], repeat=n)
            if weight @ np.array(bits) <= cap + 1e-9
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-9)
        assert res.gap <= 1e-9


def test_bounded_integer_knapsack_matches_enumeration():
    # general integers with ub in {2, 3}: branching must use floor / ceil,
    # not a 0 / 1 split
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 5
        value = rng.uniform(1.0, 10.0, n)
        weight = rng.uniform(1.0, 5.0, n)
        ub = rng.choice([2.0, 3.0], size=n)
        cap = float(weight @ ub * rng.uniform(0.3, 0.7))
        lp = LinearProgram(c=-value, a_ub=[weight], b_ub=[cap], ub=ub)
        res = solve_binary_mip(lp, range(n), rel_gap=0.0)
        best = min(
            -value @ np.array(x)
            for x in itertools.product(*[range(int(u) + 1) for u in ub])
            if weight @ np.array(x) <= cap + 1e-9
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, abs=1e-9)
        assert np.array_equal(res.x, np.round(res.x))
        assert np.all(res.x <= ub)


def test_fractional_integer_bounds_round_inward():
    # x <= 2.5 integer is x <= 2; the search must close at once, not stop at
    # its node limit with no incumbent
    res = solve_binary_mip(LinearProgram(c=[-1.0], ub=[2.5]), [0], rel_gap=0.0, node_limit=50)
    assert (res.status, res.x.tolist(), res.nodes) == ("optimal", [2.0], 1)
    lp = LinearProgram(c=[-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.7], ub=[2.5, 3.0])
    res = solve_binary_mip(lp, [0, 1], rel_gap=0.0, node_limit=50)
    assert (res.status, res.x.tolist(), res.objective) == ("optimal", [0.0, 3.0], -6.0)
    # no integer in [0.2, 0.8]; a lower bound of 0 stays +0.0
    assert solve_binary_mip(LinearProgram(c=[1.0], lb=[0.2], ub=[0.8]), [0]).status == "infeasible"
    assert not np.signbit(solve_binary_mip(LinearProgram(c=[1.0], ub=[1.0]), [0]).x).any()


def test_fractional_bounds_match_enumeration():
    # general integers with fractional lower and upper bounds, next to a
    # continuous variable, against enumeration of the integer points
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = 4
        lb = rng.uniform(0.0, 1.5, n)
        ub = lb + rng.uniform(0.5, 3.0, n)
        a_ub = rng.normal(size=(2, n))
        b_ub = a_ub @ rng.uniform(lb, ub) + rng.uniform(0.0, 1.0, 2)
        c = rng.normal(size=n)
        lp = LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, lb=lb, ub=ub)
        res = solve_binary_mip(lp, range(n - 1), rel_gap=0.0, node_limit=500)
        ranges = [range(int(np.ceil(lo)), int(np.floor(hi)) + 1) for lo, hi in zip(lb[:-1], ub[:-1])]
        best = None
        for point in itertools.product(*ranges):
            # the continuous last variable spans an interval at fixed integers
            rest = b_ub - a_ub[:, :-1] @ np.array(point, dtype=float)
            col = a_ub[:, -1]
            top = min([ub[-1]] + [r / a for r, a in zip(rest, col) if a > 0])
            bottom = max([lb[-1]] + [r / a for r, a in zip(rest, col) if a < 0])
            if bottom > top + 1e-9 or np.any(rest[col == 0] < -1e-9):
                continue
            val = float(c[:-1] @ np.array(point) + c[-1] * (bottom if c[-1] >= 0 else top))
            best = val if best is None else min(best, val)
        if best is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(best, abs=1e-7)
            assert np.array_equal(res.x[:-1], np.round(res.x[:-1]))


@pytest.mark.parametrize("solve", [lambda: solve_lp(_knapsack()), lambda: solve_binary_mip(_knapsack(), range(6))])
def test_pivot_budget_is_a_solver_limit(monkeypatch, solve):
    monkeypatch.setattr("flowincentives.lp._MAX_PIVOTS", 1)
    with pytest.raises(SolverLimitError, match="simplex pivot budget=1"):
        solve()


def test_unbounded_relaxation_is_an_input_error():
    with pytest.raises(InputError, match="relaxation is unbounded"):
        solve_binary_mip(LinearProgram(c=[-1.0, 0.0]), [1])


def test_integral_relaxation_no_branching():
    # assignment-polytope LP relaxation is already integral
    lp = LinearProgram(
        c=[1.0, 2.0, 3.0],
        a_eq=[[1.0, 1.0, 1.0]],
        b_eq=[1.0],
        ub=np.ones(3),
    )
    res = solve_binary_mip(lp, [0, 1, 2], rel_gap=0.0)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)
    assert res.nodes <= 1


def test_infeasible_binary_system():
    lp = LinearProgram(
        c=[0.0, 0.0],
        a_eq=[[1.0, 1.0], [1.0, 1.0]],
        b_eq=[1.0, 2.0],
        ub=np.ones(2),
    )
    assert solve_binary_mip(lp, [0, 1]).status == "infeasible"


def test_zero_gap_equals_enumeration_on_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = rng.integers(6, 13)
        m = rng.integers(2, 5)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.2, 2.0, size=m)
        c = rng.normal(size=n)
        lp = LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub, ub=np.ones(n))
        res = solve_binary_mip(lp, range(n), rel_gap=0.0)
        best = None
        for bits in itertools.product([0, 1], repeat=int(n)):
            x = np.array(bits, dtype=float)
            if np.all(a_ub @ x <= b_ub + 1e-9):
                val = float(c @ x)
                if best is None or val < best:
                    best = val
        if best is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(best, abs=1e-7)


def test_gap_limit_status_reports_gap():
    # a loose gap setting may stop early; the reported gap must respect it
    rng = np.random.default_rng(2)
    n = 10
    value = rng.uniform(1.0, 10.0, n)
    weight = rng.uniform(1.0, 5.0, n)
    lp = LinearProgram(c=-value, a_ub=[weight], b_ub=[0.5 * weight.sum()], ub=np.ones(n))
    res = solve_binary_mip(lp, range(n), rel_gap=0.25)
    assert res.status in ("optimal", "gap-limit")
    assert res.gap <= 0.25


def test_node_limit_zero_returns_no_incumbent():
    lp = LinearProgram(c=[-1.0, -1.0], a_ub=[[2.0, 2.0]], b_ub=[3.0], ub=np.ones(2))
    res = solve_binary_mip(lp, [0, 1], rel_gap=0.0, node_limit=0)
    assert res.status == "iteration-limit"
    assert res.x is None


def test_iteration_limit_returns_incumbent():
    rng = np.random.default_rng(7)
    n = 12
    value = rng.uniform(1.0, 10.0, n)
    weight = rng.uniform(1.0, 5.0, n)
    lp = LinearProgram(c=-value, a_ub=[weight], b_ub=[0.4 * weight.sum()], ub=np.ones(n))
    res = solve_binary_mip(lp, range(n), rel_gap=0.0, node_limit=2)
    assert res.status in ("iteration-limit", "optimal")
    if res.status == "iteration-limit":
        assert res.gap > 0 or res.x is not None


def _reoptimise_child(lp, parent, j, lb, ub):
    """Child statuses and objectives from the parent's optimal basis, along
    both warm paths of the branch-and-bound: a tableau refactored from the
    basis (a deferred sibling) and the parent's tableau with one bound
    changed in place (the child explored next)."""
    form = _Form(lp)
    lo, hi = form.bounds(lb, ub)
    refactored = _Tableau.factor(form, lo, hi, *parent.basis)
    in_place = _Tableau.factor(form, *form.bounds(lp.lb, lp.ub), *parent.basis)
    in_place.set_bounds(j, lb[j], ub[j])
    outcomes = []
    for tab in (refactored, in_place):
        status, _ = _dual_simplex(tab)
        outcomes.append((status, float(lp.c @ tab.structurals()) if status == "optimal" else None))
    return outcomes


def _assert_warm_equals_cold(lp, j, lb, ub):
    parent = solve_lp(lp)
    child = LinearProgram(c=lp.c, a_ub=lp.a_ub, b_ub=lp.b_ub, a_eq=lp.a_eq, b_eq=lp.b_eq, lb=lb, ub=ub)
    cold = solve_lp(child)
    for status, objective in _reoptimise_child(lp, parent, j, lb, ub):
        assert status == cold.status
        if status == "optimal":
            assert objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
    return cold.status


def test_warm_child_equals_cold_solve_on_random_bounded_lps():
    # tighten one fractional basic variable's bound, re-optimise from the
    # parent's basis with the dual simplex, and compare with a cold solve
    rng = np.random.default_rng(13)
    statuses = []
    for _ in range(40):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(2, 6))
        a_ub = rng.normal(size=(m, n))
        a_eq = rng.uniform(0.0, 1.0, size=(1, n))
        lb = rng.integers(0, 2, size=n).astype(float)
        ub = lb + rng.integers(1, 4, size=n)
        x0 = rng.uniform(lb, ub)
        lp = LinearProgram(
            c=rng.normal(size=n),
            a_ub=a_ub,
            b_ub=a_ub @ x0 + rng.uniform(0.0, 0.5, size=m),
            a_eq=a_eq,
            b_eq=a_eq @ x0,
            lb=lb,
            ub=ub,
        )
        parent = solve_lp(lp)
        assert parent.status == "optimal"
        basic = parent.basis[0][parent.basis[0] < n]
        frac = parent.x[basic] - np.floor(parent.x[basic])
        fractional = basic[(frac > 1e-6) & (frac < 1 - 1e-6)]
        if fractional.size == 0:
            continue
        j = int(fractional[0])
        down_ub, up_lb = ub.copy(), lb.copy()
        down_ub[j] = np.floor(parent.x[j])
        up_lb[j] = np.ceil(parent.x[j])
        statuses.append(_assert_warm_equals_cold(lp, j, lb, down_ub))
        statuses.append(_assert_warm_equals_cold(lp, j, up_lb, ub))
    assert statuses.count("optimal") >= 20
    assert statuses.count("infeasible") >= 3


def test_warm_child_of_degenerate_lps_terminates():
    # Beale's cycling example, boxed, and zero-cost programs, where every
    # entering column ties in the dual ratio test; Bland's rule must end
    # both passes within the pivot budget
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]])
    lp = LinearProgram(c=c, a_ub=a_ub, b_ub=[0.0, 0.0, 1.0], ub=np.ones(4))
    parent = solve_lp(lp)
    assert parent.objective == pytest.approx(-0.05)
    assert parent.x[0] == pytest.approx(0.04)
    _assert_warm_equals_cold(lp, 0, lp.lb, np.array([0.0, 1.0, 1.0, 1.0]))
    _assert_warm_equals_cold(lp, 0, np.array([1.0, 0.0, 0.0, 0.0]), lp.ub)

    rng = np.random.default_rng(5)
    statuses = []
    for _ in range(20):
        n, m = 8, 5
        a_ub = rng.integers(-2, 3, size=(m, n)).astype(float)
        lp = LinearProgram(
            c=np.zeros(n), a_ub=a_ub, b_ub=np.zeros(m), a_eq=np.ones((1, n)), b_eq=[2.5], ub=np.ones(n)
        )
        parent = solve_lp(lp)
        if parent.status != "optimal":
            continue
        j = int(np.argmax(np.minimum(parent.x, 1.0 - parent.x)))
        if min(parent.x[j], 1.0 - parent.x[j]) < 1e-6:
            continue
        down_ub, up_lb = lp.ub.copy(), lp.lb.copy()
        down_ub[j], up_lb[j] = 0.0, 1.0
        statuses.append(_assert_warm_equals_cold(lp, j, lp.lb, down_ub))
        statuses.append(_assert_warm_equals_cold(lp, j, up_lb, lp.ub))
    assert set(statuses) == {"optimal", "infeasible"}
