import itertools

import numpy as np
import pytest

from flowincentives.errors import InputError
from flowincentives.lp import LinearProgram, solve_binary_mip, solve_lp


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
