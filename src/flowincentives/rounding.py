"""Offer counts nearest a relaxed u in L1: the admm model's exact rounding.

``round_counts`` returns what a column-at-a-time multiple-choice knapsack
DP over spend returns (Kellerer, Pferschy & Pisinger, *Knapsack Problems*,
2004, ch. 11), bit for bit; the test suite keeps that DP as the reference.
It adds one offer column at a time and keeps, per count of drivers placed
in the pair, the (spend, L1) Pareto frontier. Its pick is the least L1 as
it sums, column by column and pair after pair; then the least spend; then
its first state, the vector whose partial (drivers placed in the pair,
spend, L1), read from the last column back, are least, so of two tied
columns the later gets the unit.

Pairs couple only through the budget row. Without it, a pair's nearest
counts are its floors plus a unit on each of its largest fractions: one
vectorised pass over all pairs. That vector is the answer when it meets
the budget and each pair's last unit taken beats its first left out by
more than an L1 sum's float error. Near-ties are common, though: the
relaxation leaves nearly equal mass (1e-14 to 1e-11 apart) on columns of
many pairs, and the DP's float sums decide them. Otherwise each pair that
the budget or a near-tie can change gets as options the count vectors
within that error of its (spend, L1) frontier, from one DP over the
columns shared by every pair of its shape (``_pair_options``), capped by
the pass's L1 when the pass meets the budget. The pairs then merge in
order on spend (``_extend``), each state with each option summed column by
column as the column DP sums; a run of pairs with one option each merges
in one step.
"""

import numpy as np

from .errors import InfeasibleModelError, InputError

# _pair_options keeps near-ties while a column's states, over the stack,
# stay within this many values (316,800 at most on the README generator);
# past it, as on a large pair with many tied splits, they collapse onto the
# cheaper state and the pick may differ from the column DP's in the last bit
_NEAR_TIE_VALUES = 1 << 19


def _pair_options(u, costs, q, cap, budget, slack):
    """Each pair's options in a stack of pairs of one shape (rows of ``u``,
    their clipped u* in column order): the count vectors with sum q and
    spend within budget whose L1, at most ``cap``, no vector of no more
    spend beats by more than ``slack``. Near-ties stay, as the sums of the
    pairs before decide them. One DP over the columns serves the stack."""
    n_p, m = u.shape
    prefix = np.zeros((1, 0), dtype=int)
    placed, spend, l1, alive = np.zeros(1, dtype=int), np.zeros(1), np.zeros((n_p, 1)), np.ones((n_p, 1), bool)
    for j in range(m):
        room = q - placed + 1 if j < m - 1 else np.ones_like(placed)
        parent = np.repeat(np.arange(placed.size), room)
        add = np.arange(parent.size) - (np.cumsum(room) - room)[parent]
        if j == m - 1:  # the last column takes the drivers still unplaced
            add += q - placed[parent]
        spend_n = spend[parent] + add * costs[j]
        fits = np.flatnonzero(spend_n <= budget + 1e-9 + slack)
        if fits.size == 0:
            raise InfeasibleModelError("no integer offer counts meet the budget")
        fits = fits[np.lexsort((spend_n[fits], placed[parent[fits]] + add[fits]))]
        parent, add, spend_n = parent[fits], add[fits], spend_n[fits]
        placed_n, l1_n = placed[parent] + add, l1[:, parent] + np.abs(add - u[:, j : j + 1])
        # the least L1 before each state with its drivers placed, spend ascending
        best = np.full_like(l1_n, np.inf)
        cuts = np.flatnonzero(np.diff(placed_n)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, placed_n.size]):
            best[:, lo + 1 : hi] = np.minimum.accumulate(l1_n[:, lo : hi - 1], axis=1)
        for tol in (slack, -slack):
            alive = (l1_n <= cap[:, None]) & (best >= l1_n - tol)
            keep = np.flatnonzero(alive.any(axis=0))
            if n_p * (q - placed_n[keep] + 1).sum() <= _NEAR_TIE_VALUES:
                break
        prefix = np.column_stack([prefix[parent[keep]], add[keep]])
        placed, spend, l1, alive = placed_n[keep], spend_n[keep], l1_n[:, keep], alive[:, keep]
    return [prefix[row] for row in alive]


def _extend(spend, l1, options, costs, u, budget):
    """Every frontier state followed by every row of ``options``, counts on
    the next columns, summed column by column as the column DP sums, and
    pruned to the (spend, L1) Pareto frontier within budget. Returns it,
    spend ascending, with each state's parent and option."""
    n_f, n_o = spend.size, options.shape[0]
    s = np.cumsum(np.column_stack([np.repeat(spend, n_o), np.tile(options * costs, (n_f, 1))]), axis=1)
    l = np.cumsum(np.column_stack([np.repeat(l1, n_o), np.tile(np.abs(options - u), (n_f, 1))]), axis=1)
    fits = np.flatnonzero(s[:, -1] <= budget + 1e-9)
    if fits.size == 0:
        raise InfeasibleModelError("no integer offer counts meet the budget")
    s, l = s[fits], l[fits]
    order = np.lexsort((l[:, -1], s[:, -1]))
    if np.any((np.diff(s[order, -1]) == 0) & (np.diff(l[order, -1]) == 0)):
        # equal spend and L1: the column DP keeps the state whose partial
        # (drivers placed, spend, L1), read from the last column back, are
        # least, then the one with the earlier parent
        placed = np.cumsum(options, axis=1)[fits % n_o]
        keys = [key for j in range(1, s.shape[1] - 1) for key in (l[:, j], s[:, j], placed[:, j - 1])]
        order = np.lexsort([fits // n_o] + keys + [l[:, -1], s[:, -1]])
    s, l = s[order, -1], l[order, -1]
    keep = np.r_[True, l[1:] < np.minimum.accumulate(l)[:-1]]
    kept = fits[order[keep]]
    return s[keep], l[keep], kept // n_o, kept % n_o


def round_counts(u_star, demand, costs, budget):
    """Integer offer counts nearest to ``u_star`` in L1, exactly.

    Minimizes sum |u - u*| over nonnegative integer u with per-OD totals
    D u = q (the pairs' columns ``demand.blocks``, their drivers
    ``demand.q``) and costs @ u <= budget (1e-9 slack), with u* clipped at
    0, and returns (counts, L1 distance), picked as the module docstring
    says. Raises InputError on a negative cost and InfeasibleModelError
    when no counts meet the budget.
    """
    u_star = np.clip(np.asarray(u_star, dtype=float), 0.0, None)
    costs = np.asarray(costs, dtype=float)
    if np.any(costs < 0):
        raise InputError("offer costs must be nonnegative")
    q = np.rint(demand.q).astype(int)
    sizes = np.array([len(cols) for cols in demand.blocks], dtype=int)
    starts = np.cumsum(sizes) - sizes
    cols = np.concatenate([np.asarray(b, dtype=int) for b in demand.blocks] + [np.zeros(0, dtype=int)])
    n, pair = cols.size, np.repeat(np.arange(q.size), sizes)
    out = np.zeros(u_star.size)
    if n == 0:
        return out, 0.0
    u, c = u_star[cols], costs[cols]
    frac = u - np.floor(u)
    need = q - np.bincount(pair, u - frac, q.size).astype(int)  # units above the floors
    order = np.lexsort((-frac, pair))  # each pair's largest fractions first
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n) - starts[pair[order]]
    counts = np.where(q[pair] > 0, u - frac + (rank < need[pair]), 0.0)
    # a pair's margin: twice its least fraction taken (1 at none) less its
    # greatest left out (0 at none); 0 where the floors miss q by more
    last = np.where(need > 0, frac[order].take(starts + need - 1, mode="clip"), 1.0)
    first_out = np.where(need < sizes, frac[order].take(starts + need, mode="clip"), 0.0)
    whole = (q == 0) | ((need >= 0) & (need <= sizes))
    margin = np.where(q == 0, np.inf, np.where(whole, 2.0 * (last - first_out), 0.0))
    spend, l1 = np.cumsum(counts * c), np.cumsum(np.abs(counts - u))
    upper = l1[-1] if whole.all() and spend[-1] <= budget + 1e-9 else np.inf
    # bounds the float error of any L1 sum up to ``upper``
    slack = 3.0 * n * 2.0**-53 * min(upper, u.sum() + q.sum()) + 2.0**-50
    if upper < np.inf and np.all(margin > slack):
        out[cols] = counts
        return out, float(upper)
    pair_l1 = np.bincount(pair, np.abs(counts - u), q.size)
    gap = upper - pair_l1.sum()
    options = [counts[a : a + m].astype(int)[None, :] for a, m in zip(starts, sizes)]
    shapes = {}
    for k in np.flatnonzero((margin <= gap + slack) & (q > 0)):
        shapes.setdefault((q[k], tuple(c[starts[k] : starts[k] + sizes[k]])), []).append(k)
    for (qk, ck), ks in shapes.items():
        stack = u[starts[ks][:, None] + np.arange(len(ck))]
        for k, found in zip(ks, _pair_options(stack, np.array(ck), qk, pair_l1[ks] + gap + slack, budget, slack)):
            options[k] = found
    spend, l1, trail = np.zeros(1), np.zeros(1), []
    heads = [k for k in range(q.size) if k == 0 or len(options[k]) > 1 or len(options[k - 1]) > 1]
    for k, end in zip(heads, heads[1:] + [q.size]):
        lo, hi = starts[k], starts[end - 1] + sizes[end - 1]
        step = np.concatenate(options[k:end], axis=1)
        spend, l1, parent, option = _extend(spend, l1, step, c[lo:hi], u[lo:hi], budget)
        trail.append((lo, hi, step, parent, option))
    index = best = int(np.argmin(l1))
    for lo, hi, step, parent, option in reversed(trail):
        counts[lo:hi] = step[option[index]]
        index = parent[index]
    out[cols] = counts
    return out, float(l1[best])
