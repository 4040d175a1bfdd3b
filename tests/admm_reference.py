"""Frozen copies of the per-driver ADMM sweeps and volume-prox kernel.

The package's sweep weights each S column by the drivers it stands for,
computes A u + bg once per sweep and folds the finite check into the
residual norms. At one column per driver (unit weights, as
``initial_state`` gives for per-driver problems) none of that may change a
single bit of any iterate. This module keeps the plain unweighted form
every float is checked against: each block returns a fresh array, every
formula is written out once, in the order the package evaluates it.

``masked_start`` and ``masked_sweep`` keep the per-driver iteration the
package's masked class run must equal: each driver's S, W, H, lam5 and
lam7 live only on its own OD pair's block, one list entry per driver, and
lam2 has one entry per driver. Drivers of one pair stay equal from the
uniform start, so the package's one q_k-weighted entry per column must
tell the same story to rounding.

The package's prox is no longer this one: it runs plain Newton over
every row, rows whose phi(0) >= 0 held at 0, where ``gamma_solve`` here
keeps the safeguarded, bracketed Newton. Both stop at the same
|phi| < 1e-10, so their roots agree to within 1e-9, not to the bit; the
bit-identity test runs the package's sweep with this prox substituted for
its own. ``compressed_gamma_solve`` keeps the plain Newton as it ran on
the compressed rows with phi(0) < 0 alone, scattering its roots back: the
package's every-row prox must equal it to the bit.

``accelerated_run`` keeps ``run_admm`` as its masked sweeps and Anderson
steps allocated their iterates: every block a fresh array, the
extrapolation gathering S, gamma, beta and the duals into one point and
scattering the combination back. Its floats come in the order the
package's in-place sweep must keep, with ``compressed_gamma_solve`` as the
prox, which the package's equals to the bit.

``round_counts`` keeps the column-at-a-time multiple-choice knapsack DP
the package's pair-space rounding must equal bit for bit, counts and L1:
one Python step per offer column, each extending every state by 0..q_k
drivers and keeping the (spend, L1) Pareto frontier of each
drivers-placed group.

``polish_counts`` keeps the dense 1-exchange polish the package's
row-local one must match move for move: it scores every move over every
row, with a rows x moves step matrix, and takes the move pairs from the
n_cols x n_cols same-pair mask.

Kept separate from the package so it shares no code with what it checks;
``sweep`` takes the package's problem and state objects and the u-update
inverse, nothing else, ``masked_sweep`` the package's problem and the
u-update inverse, ``accelerated_run`` the package's problem, config and
u-update inverse, ``round_counts`` a demand with ``blocks`` and ``q``, and
``polish_counts`` the package's problem.
"""

from types import SimpleNamespace

import numpy as np

from flowincentives.errors import InfeasibleModelError, InputError


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


def compressed_gamma_solve(m, lam, rho, t0, w, tol=1e-10):
    """Plain Newton on the rows where phi(0) < 0 only, roots scattered back."""
    m = np.asarray(m, dtype=float).ravel()
    lam, t0, w = (np.broadcast_to(np.asarray(x, dtype=float), m.shape) for x in (lam, t0, w))
    c0 = t0 - lam - rho * m
    active = (c0 < 0.0).nonzero()[0]
    c0, t0, w = c0[active], t0[active], w[active]
    quart = 0.75 * t0 / w**4
    g = np.maximum(m[active], 0.0)
    for _ in range(200):
        q_cube = quart * (g * g * g)
        d = c0 + g * (q_cube + rho)
        if np.abs(d).max(initial=0.0) < tol:
            break
        g = g - d / (4.0 * q_cube + rho)
    roots = np.zeros(m.shape)
    roots[active] = g
    return roots


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


def masked_start(problem):
    """Uniform mass over each driver's own block, duals at zero."""
    p = problem
    blocks = [np.asarray(allowed) for allowed in p.columns]
    s = [np.full(b.size, 1.0 / b.size) for b in blocks]
    zeros = [np.zeros(b.size) for b in blocks]
    u = _scatter(blocks, s, p.a_matrix.shape[1])
    return SimpleNamespace(
        blocks=blocks,
        u=u,
        s=s,
        w=[x.copy() for x in s],
        h=[x.copy() for x in s],
        gamma=_volume(u, p),
        beta=max(0.0, p.budget - float(p.costs @ u)),
        lam1=np.zeros(u.size),
        lam2=np.zeros(len(blocks)),
        lam3=np.zeros(p.q.size),
        lam4=np.zeros(p.a_matrix.shape[0]),
        lam5=list(zeros),
        lam6=0.0,
        lam7=list(zeros),
        iteration=0,
        residual_history=[],
        objective_history=[],
    )


def _scatter(blocks, parts, n_cols):
    """Per-column sum of every driver's block entries."""
    total = np.zeros(n_cols)
    for b, x in zip(blocks, parts):
        total[b] += x
    return total


def masked_sweep(state, problem, rho, lambda_reg, u_factor, order):
    """One masked per-driver sweep in the given block order."""
    p = problem
    blocks = state.blocks
    n_cols = p.a_matrix.shape[1]
    drivers = range(len(blocks))
    for block in order:
        if block == 0:
            rhs = (
                (state.lam1 - p.d_matrix.T @ state.lam3 - p.a_matrix.T @ state.lam4
                 - state.lam6 * p.costs)
                / rho
                + _scatter(blocks, state.s, n_cols)
                + p.d_matrix.T @ p.q
                + p.a_matrix.T @ (state.gamma - p.background)
                + (p.budget - state.beta) * p.costs
            )
            state.u = u_factor @ rhs
            for n in drivers:
                g = 1.0 + state.s[n] - (state.lam7[n] + state.lam2[n]) / rho
                state.w[n] = g - g.sum() / (blocks[n].size + 1.0)
                x = (rho * state.s[n] - state.lam5[n] - lambda_reg / 2.0) / (rho - lambda_reg)
                state.h[n] = np.clip(x, 0.0, 1.0)
        else:
            # each column couples the drivers whose block holds it through
            # one shared row sum: the rank-one inverse over those drivers
            g = [
                state.u[b] + (state.lam5[n] + state.lam7[n] - state.lam1[b]) / rho
                + state.h[n] + state.w[n]
                for n, b in enumerate(blocks)
            ]
            row_sum = _scatter(blocks, g, n_cols)
            holders = _scatter(blocks, [np.ones(b.size) for b in blocks], n_cols)
            state.s = [
                (g[n] - row_sum[b] / (holders[b] + 2.0)) / 2.0 for n, b in enumerate(blocks)
            ]
            state.gamma = gamma_solve(_volume(state.u, p), state.lam4, rho, p.t0_row, p.w_row)
            state.beta = max(0.0, p.budget - float(p.costs @ state.u) - state.lam6 / rho)

    r1 = _scatter(blocks, state.s, n_cols) - state.u
    r2 = np.array([x.sum() - 1.0 for x in state.w])
    r3 = p.d_matrix @ state.u - p.q
    r4 = _volume(state.u, p) - state.gamma
    r5 = [h - s for h, s in zip(state.h, state.s)]
    r6 = float(p.costs @ state.u) + state.beta - p.budget
    r7 = [w - s for w, s in zip(state.w, state.s)]
    state.lam1 = state.lam1 + rho * r1
    state.lam2 = state.lam2 + rho * r2
    state.lam3 = state.lam3 + rho * r3
    state.lam4 = state.lam4 + rho * r4
    state.lam5 = [lam + rho * r for lam, r in zip(state.lam5, r5)]
    state.lam6 = state.lam6 + rho * r6
    state.lam7 = [lam + rho * r for lam, r in zip(state.lam7, r7)]

    state.iteration += 1
    state.residual_history.append(
        np.array([
            np.linalg.norm(r1),
            np.linalg.norm(r2),
            np.linalg.norm(r3),
            np.linalg.norm(r4),
            np.linalg.norm(np.concatenate(r5)),
            abs(r6),
            np.linalg.norm(np.concatenate(r7)),
        ])
    )
    v = np.maximum(_volume(state.u, p), 0.0)
    state.objective_history.append(
        float(np.sum(v * p.t0_row * (1.0 + 0.15 * (v / p.w_row) ** 4)))
    )
    return state


def accelerated_run(problem, cfg, u_factor, memory=5):
    """The masked run with type-II Anderson acceleration over the last
    ``memory`` + 1 sweeps, stopping on a plain sweep whose largest scaled
    residual norm is below ``cfg.residual_tol`` or on ``cfg.max_iters``."""
    p = problem
    rho, lambda_reg = cfg.rho, cfg.lambda_reg
    rows, cols, values = p.a_nonzeros
    n_rows = p.background.size
    classes = np.argmax(p.d_matrix > 0, axis=0)
    n_cols, n_pairs = classes.size, p.q.size
    s = 1.0 / np.bincount(classes)[classes]
    weights = p.q[classes]
    pair_divisor = np.bincount(classes, minlength=n_pairs) + 1.0
    s_divisor = weights + 2.0

    def volume_of(u):
        return np.bincount(rows, values * u[cols], n_rows) + p.background

    u = s * weights
    gamma = volume_of(u)
    beta = max(0.0, p.budget - float(p.costs @ u))
    root = np.sqrt(weights)
    scale = (np.ones(n_cols), np.sqrt(p.q), np.ones(n_pairs), np.ones(n_rows), root, np.ones(1), root)
    sizes = [x.size for x in scale]
    ends = np.cumsum(sizes)
    starts = ends - sizes if min(sizes) > 0 else None
    residual_scale = np.concatenate(scale)
    duals = np.zeros(ends[-1])
    cuts = ends[:-1]

    slots = memory + 1
    width = n_cols + n_rows + 1 + duals.size
    outputs, residuals = np.zeros((slots, width)), np.zeros((slots, width))
    point = np.concatenate((s, gamma, (beta,), duals))
    root_rho = np.sqrt(rho)
    metric_root = np.concatenate(
        (np.sqrt(rho * (weights * weights + 2.0 * weights)), np.full(n_rows + 1, root_rho), residual_scale / root_rho)
    )
    gram = np.zeros((slots + 1, slots + 1))
    gram[0, 1:] = gram[1:, 0] = 1.0
    rhs_border = np.zeros(slots + 1)
    rhs_border[0] = 1.0
    live = slot = steps = restarts = iteration = 0
    last = np.inf
    history, objectives = [], []

    def restart(j, norm):
        if j:
            outputs[0] = outputs[j]
            residuals[0] = residuals[j]
        gram[1, 1] = norm
        return 1, 1

    while True:
        lam1, lam2, lam3, lam4, lam5, lam6, lam7 = np.split(duals, cuts)
        lam6 = lam6[0]
        # block 0: u, W, H
        target = gamma - p.background - lam4 / rho
        rhs = (
            (lam1 - lam3[classes] - lam6 * p.costs) / rho
            + s * weights
            + weights
            + np.bincount(cols, values * target[rows], n_cols)
            + (p.budget - beta) * p.costs
        )
        u = u_factor @ rhs
        g = 1.0 + s - (lam7 + lam2[classes]) / rho
        w = g - (np.bincount(classes, g, n_pairs) / pair_divisor)[classes]
        h = ((rho * s - lam5 - lambda_reg / 2.0) / (rho - lambda_reg)).clip(0.0, 1.0)
        # block 1: S, gamma, beta
        s = (u + (lam5 + lam7 - lam1) / rho + h + w) / s_divisor
        volume = volume_of(u)
        gamma = compressed_gamma_solve(volume, lam4, rho, p.t0_row, p.w_row)
        beta = max(0.0, p.budget - float(p.costs @ u) - lam6 / rho)
        # residuals, their scaled norms and the dual ascent
        residual = np.concatenate((
            s * weights - u,
            np.bincount(classes, w, n_pairs) - 1.0,
            np.bincount(classes, u, n_pairs) - p.q,
            volume - gamma,
            h - s,
            (float(p.costs @ u) + beta - p.budget,),
            w - s,
        ))
        scaled = residual * residual_scale
        if starts is None:
            norms = np.array([np.sqrt(x.dot(x)) for x in np.split(scaled, cuts)])
        else:
            norms = np.sqrt(np.add.reduceat(scaled * scaled, starts))
        duals = duals + residual * rho
        iteration += 1
        history.append(norms)
        v = np.maximum(volume, 0.0)
        objectives.append(float((v * p.t0_row * (1.0 + 0.15 * (v / p.w_row) ** 4)).sum()))
        converged = bool(norms.max() < cfg.residual_tol)
        if converged or iteration == cfg.max_iters:
            break
        # the Anderson step: record F(x), then move to the combination
        f, g = outputs[slot], residuals[slot]
        f[:] = np.concatenate((s, gamma, (beta,), duals))
        g[:] = (f - point) * metric_root
        row = residuals @ g
        norm = float(row[slot])
        rose, last = norm > last, norm
        j = slot
        if rose:
            restarts += 1
            live, slot = restart(j, norm)
        else:
            gram[1 + j, 1:] = gram[1:, 1 + j] = row
            live, slot = min(live + 1, slots), (j + 1) % slots
        if live > 1:
            try:
                coef = np.linalg.solve(gram[: live + 1, : live + 1], rhs_border[: live + 1])
            except np.linalg.LinAlgError:
                restarts += 1
                live, slot = restart(j, norm)
        if live == 1:
            point = f.copy()
            continue
        point = coef[1:] @ outputs[:live]
        point[n_cols : n_cols + n_rows] = np.maximum(point[n_cols : n_cols + n_rows], 0.0)
        point[n_cols + n_rows] = max(0.0, float(point[n_cols + n_rows]))
        s, gamma, beta, duals = np.split(point.copy(), [n_cols, n_cols + n_rows, n_cols + n_rows + 1])
        beta = float(beta[0])
        steps += 1
    return SimpleNamespace(
        u=u,
        s_relaxed=s,
        residuals=np.array(history),
        objectives=np.array(objectives),
        iterations=iteration,
        converged=converged,
        anderson_steps=steps,
        anderson_restarts=restarts,
    )


def polish_counts(counts, problem):
    """Dense best-improvement 1-exchange: the best allowed move, the first
    in (source, target) order on ties, while it gains more than 1e-12."""
    p = problem
    u = np.array(counts, dtype=float)
    same_od = (p.d_matrix.T @ p.d_matrix > 0) & ~np.eye(u.size, dtype=bool)
    src, dst = np.nonzero(same_od)
    step = p.a_matrix[:, dst] - p.a_matrix[:, src]
    extra_cost = p.costs[dst] - p.costs[src]
    t0, w = p.t0_row[:, None], p.w_row[:, None]

    def bpr(v):
        return v * t0 * (1.0 + 0.15 * (v / w) ** 4)

    moves = 0
    while True:
        volume = (p.a_matrix @ u + p.background)[:, None]
        allowed = np.nonzero((u[src] >= 1) & (float(p.costs @ u) + extra_cost <= p.budget + 1e-9))[0]
        gain = (bpr(volume) - bpr(volume + step[:, allowed])).sum(axis=0)
        if gain.size == 0 or gain.max() <= 1e-12:
            return u, moves
        move = allowed[int(np.argmax(gain))]
        u[src[move]] -= 1.0
        u[dst[move]] += 1.0
        moves += 1


def round_counts(u_star, demand, costs, budget):
    """Integer offer counts nearest to ``u_star`` in L1, exactly.

    Minimizes sum |u - u*| over nonnegative integer u with per-OD totals
    D u = q and costs @ u <= budget (1e-9 slack), with u* clipped at 0.
    A DP adds one column at a time, OD pair by OD pair, each taking 0..q_k
    drivers; a state is (drivers placed in the current pair, spend, L1), and
    only the (spend, L1) Pareto frontier of each drivers-placed group is
    kept, exact ties keeping the first state. Pairs couple only through the
    budget, so this is the exact multiple-choice knapsack DP of Kellerer,
    Pferschy & Pisinger, *Knapsack Problems* (2004), ch. 11, for any
    nonnegative costs. Returns (counts, L1 distance); among count vectors at
    the least distance the one with the least spend wins.
    """
    u_star = np.clip(np.asarray(u_star, dtype=float), 0.0, None)
    costs = np.asarray(costs, dtype=float)
    if np.any(costs < 0):
        raise InputError("offer costs must be nonnegative")
    placed, spend, l1 = np.zeros(1, dtype=int), np.zeros(1), np.zeros(1)
    trail = []  # per column: (column, parent state, drivers it takes)
    for cols, q in zip(demand.blocks, np.rint(demand.q).astype(int)):
        for col in cols:
            parent, add = np.divmod(np.arange(placed.size * (q + 1)), q + 1)
            total = placed[parent] + add
            # the pair's last column takes the drivers still unplaced
            fits = (total == q) if col == cols[-1] else (total <= q)
            fits &= spend[parent] + add * costs[col] <= budget + 1e-9
            parent, add, total = parent[fits], add[fits], total[fits]
            if parent.size == 0:
                raise InfeasibleModelError("no integer offer counts meet the budget")
            new_spend = spend[parent] + add * costs[col]
            new_l1 = l1[parent] + np.abs(add - u_star[col])
            # sorted by (placed, spend, L1), a state survives when its L1 rank is
            # below every earlier one of its group; later groups get smaller
            # key offsets, so the running minimum restarts at each group. The
            # rank is the place in a stable sort of the sorted states by L1,
            # so of two states at equal L1 the first ranks lower and is kept
            order = np.lexsort((new_l1, new_spend, total))
            rank = np.empty(order.size, dtype=int)
            rank[np.argsort(new_l1[order], kind="stable")] = np.arange(order.size)
            key = (q - total[order]) * (order.size + 1) + rank
            survives = np.ones(order.size, dtype=bool)
            np.less(key[1:], np.minimum.accumulate(key)[:-1], out=survives[1:])
            keep = order[survives]
            placed = np.zeros(keep.size, dtype=int) if col == cols[-1] else total[keep]
            spend, l1 = new_spend[keep], new_l1[keep]
            trail.append((col, parent[keep], add[keep]))
    index = best = int(np.argmin(l1))
    counts = np.zeros(u_star.size)
    for col, parent, add in reversed(trail):
        counts[col] = add[index]
        index = parent[index]
    return counts, float(l1[best])
