"""Operator-splitting solver for the congestion-aware incentive relaxation.

The binary offer assignment is relaxed to column-stochastic S in [0,1] and
split into consensus copies so every block update has a closed form:

    u      aggregate offer mass per (route, incentive) column, u = S 1
    W, H   copies of S carrying the column-sum and box/binary structure
    gamma  expected link volume per (time, link) row, gamma = A u + bg
    beta   slack in the budget row, c @ u + beta = budget

An optional concave regularizer with weight ``lambda_reg`` (default 0)
pushes the entries of H toward {0, 1}; with weight zero the problem is
convex. One sweep is plain two-block ADMM in one fixed order: block 0
updates {u, W, H}, block 1 {S, gamma, beta}, and the variables of each
block separate once the other block is fixed. For two blocks the fixed
order is the textbook method, which converges on convex objectives (Boyd
et al., 2011, section 3.2, cited below); a random order each sweep is the
remedy for three or more blocks (Sun, Luo & Ye, "On the expected
convergence of randomly permuted ADMM", 2015), and here it took more
sweeps on every README-generator scale measured. The duals of the seven
coupling constraints are one flat vector and a sweep's seven residuals one
vector of the same layout; the dual ascent adds rho times the residual
exactly, in one step, which the test suite asserts.

``run_admm`` accelerates that sweep: between sweeps, type-II Anderson
acceleration with a memory of ``ANDERSON_MEMORY`` moves the state to the
combination of the last sweeps whose fixed-point residuals cancel best,
measured in the norm in which the plain sweep's residual never grows on a
convex problem, and the safeguard clears that memory whenever the residual
grows all the same. The stop test reads the seven residuals of a plain
sweep, and the run returns that sweep's state as it left it. The residuals
only describe the iterate a sweep produced; the point extrapolated from it
has none until a sweep maps it, so stopping on a sweep keeps ``converged``
and the final residuals true of what is returned.

The admm model runs one relaxation, then ``rounding.round_counts`` finds
the integer offer counts nearest its u in L1 exactly (one vectorised pass
when the budget is slack, else a DP over OD pairs), ``polish_counts`` moves
single drivers within their OD pair while that lowers the BPR travel time,
and ``flow.deal_counts`` builds the per-driver assignment once.

Neither the u step nor the polish holds an n_cols x n_cols array unless
the network couples every column. The u step's M = I + D^T D + A^T A +
c c^T is factored once per run: the first three terms are block-diagonal
over the connected components of the graph whose edges are the nonzeros
of [D; A] (on the README generator, one block per OD pair), each block is
I + P^T P for the block's nonzero rows P, gathered from the nonzeros and
inverted in a stack with the other blocks of its size, and c c^T is
applied by one Sherman-Morrison correction. ``build_u_factor`` returns
that factor, which applies M^-1 with ``@``; a network whose OD pairs all
share links is one block, the dense case, and costs what the dense
inverse did. The polish scores each move on the rows where A is nonzero
in either of its two columns, the only rows whose volume it changes.

Drivers of one OD pair are interchangeable, and from the uniform start
every sweep keeps their S, W, H, lam5 and lam7 equal; each driver may only
use its own pair's columns. So ``run_admm`` iterates the masked class
relaxation: S, W, H, lam5 and lam7 are vectors of length n_cols, each
column carrying the entry of its own OD class k(j) only, weighted by that
class's q_k drivers, and lam2 has one entry per class (Boyd et al.,
*Distributed Optimization and Statistical Learning via ADMM*, 2011, section
7.3, with one block per OD pair). Every block update is then elementwise
or a sum over one class's block. Pairs without drivers keep their columns
at weight 0, where the offer-mass dual drives u to 0. The masked sweep
also works from A's nonzeros (``AdmmProblem.a_nonzeros``): A u and the u
step's one A^T product are each a single ``np.bincount``, D^T x is the
gather x[classes] and D u a per-class sum. The per-driver layout, one S
column per ``problem.columns`` entry over every offer column, stays for the
identity tests with the plain dense products the bit-identity test holds
it to: the same functions take either layout.

What depends only on the problem is computed once, not once per sweep:
when the problem is built, A's nonzeros and the prox constant 0.75 t0 / w^4
(``AdmmProblem.prox_quart``); per run, M^-1 by ``build_u_factor``; and, on
the state ``initial_state`` returns, each OD pair's n_k + 1 (the W step's
divisor), the weights + 2 (the masked S step's divisor), the residual scale,
which one multiply applies to a sweep's residuals, and where each residual
part starts. Nor does a sweep allocate its iterate: the state owns one
vector holding S, gamma, beta and the duals, and each block update takes an
``out``, where the sweep passes the state's own u, W, H or part of that
vector; the prox runs in row buffers made once per run. The trace is
evaluated in bulk: masked, the seven residual norms are one
``np.add.reduceat`` of the squared scaled residuals and one square root
(per driver, each part's sqrt(x . x), as the frozen reference has them),
and each sweep writes A u + bg into the next row of one block of
``OBJECTIVE_BLOCK_FLOATS``, whose BPR objectives are evaluated together
once it is full, ``run_admm`` ends or ``objective_history`` is read. A row
sum of that C-contiguous block adds its entries in the order a 1-D sum of
the row would, so each objective is the same float.

The update formulas come from differentiating the augmented Lagrangian
directly. In the u step the budget terms enter as
(-lam6 - rho * beta + rho * budget) * c; dropping rho on the beta and
budget terms is a common transcription slip that breaks the dual-update
identity, so keep the rho-scaled form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InputError
from .flow import deal_counts, entry_pairs
from .kernels import ProxRows, bpr_terms, gamma_solve
from .rounding import round_counts

RESIDUAL_LABELS = (
    "offer_mass",  # ||S 1 - u||
    "column_sum",  # ||W^T 1 - 1||
    "demand",  # ||D u - q||
    "volume",  # ||A u + bg - gamma||
    "h_consensus",  # ||H - S||
    "budget",  # |c @ u + beta - budget|
    "w_consensus",  # ||W - S||
)

# most floats of the pending volumes whose BPR objectives are evaluated as
# one block. On a 2-CPU Xeon VM a 64-sweep block took 2.5-4x the time of
# scoring one sweep at a time at 4,800 rows, while a 128 KB block was faster
# than that from 318 to 1,596 rows and about as fast at 4,800
OBJECTIVE_BLOCK_FLOATS = 1 << 14

# sweep differences an Anderson step combines: ``run_admm`` extrapolates
# from the last ANDERSON_MEMORY + 1 sweeps
ANDERSON_MEMORY = 5


@dataclass
class AdmmConfig:
    """Penalty, regularization and stopping parameters.

    ``rho`` must exceed ``lambda_reg``, which keeps the H subproblem convex
    (an interval projection). Iteration stops at ``max_iters`` sweeps or
    once all seven residual norms of a sweep fall below ``residual_tol``.
    ``run_admm`` runs each sweep's blocks in one fixed order and
    Anderson-accelerates the sequence of sweeps (the admm module docstring
    says how), always stopping on a plain sweep; it does not read
    ``seed``, which stays an accepted, checked field. ``rho``,
    ``lambda_reg`` and ``residual_tol`` must be finite, ``max_iters`` an
    integer and ``seed`` nonnegative; a ``residual_tol`` of 0 runs every
    sweep.
    """

    rho: float = 1.0
    lambda_reg: float = 0.0
    max_iters: int = 5000
    residual_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("rho", "lambda_reg", "residual_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if self.rho <= 0:
            raise InputError("rho must be positive")
        if self.lambda_reg < 0:
            raise InputError("lambda_reg must be nonnegative")
        if self.residual_tol < 0:
            raise InputError("residual_tol must be nonnegative")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.rho <= self.lambda_reg:
            raise InputError("rho must exceed lambda_reg (the H step divides by rho - lambda_reg)")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise InputError("max_iters must be an integer, at least 1")


@dataclass
class AdmmProblem:
    """Problem data shared by every iteration.

    ``a_matrix`` maps offer-column mass to expected (time, link) volume,
    ``d_matrix`` maps columns to OD pairs, ``columns`` lists each driver's
    allowed columns (its OD pair's whole block), ``t0_row``/``w_row`` carry
    per-row BPR parameters, and ``background`` is fixed non-decision volume
    added to A @ u. ``pairs``, ``a_nonzeros`` and ``prox_quart`` are
    derived: each ``columns`` entry's OD pair (``flow.entry_pairs``), A's
    nonzeros as (rows, cols, values), which the masked sweep multiplies by,
    and the volume prox's 0.75 t0 / w^4 per row.
    """

    a_matrix: np.ndarray
    d_matrix: np.ndarray
    costs: np.ndarray
    q: np.ndarray
    budget: float
    t0_row: np.ndarray
    w_row: np.ndarray
    columns: list
    background: np.ndarray = None
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    a_nonzeros: tuple = field(init=False, repr=False, compare=False)
    prox_quart: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.a_matrix = np.asarray(self.a_matrix, dtype=float)
        self.d_matrix = np.asarray(self.d_matrix, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.t0_row = np.asarray(self.t0_row, dtype=float)
        self.w_row = np.asarray(self.w_row, dtype=float)
        rows, cols = self.a_matrix.shape
        if self.d_matrix.shape[1] != cols or self.costs.shape != (cols,):
            raise InputError("column dimensions disagree")
        if self.d_matrix.shape[0] != self.q.shape[0]:
            raise InputError("demand vector must have one entry per OD pair")
        if self.t0_row.shape != (rows,) or self.w_row.shape != (rows,):
            raise InputError("per-row link parameters must match the volume rows")
        if not (math.isfinite(self.budget) and self.budget >= 0):
            raise InputError("budget must be nonnegative and finite")
        if self.background is None:
            self.background = np.zeros(rows)
        self.background = np.asarray(self.background, dtype=float)
        if self.background.shape != (rows,):
            raise InputError("background volume must have one entry per volume row")
        self.pairs = entry_pairs(self.d_matrix, self.columns)
        nz_rows, nz_cols = np.nonzero(self.a_matrix)
        self.a_nonzeros = (nz_rows, nz_cols, self.a_matrix[nz_rows, nz_cols])
        self.prox_quart = 0.75 * self.t0_row / self.w_row**4

    @property
    def num_columns(self):
        return self.a_matrix.shape[1]

    @property
    def num_drivers(self):
        return len(self.columns)


def _view(index):
    """View ``index`` of ``AdmmState.parts()``, read as a float when 0-d
    (beta, lam6); setting copies into it."""

    def get(state):
        view = state.parts()[0][index]
        return float(view) if view.ndim == 0 else view

    def put(state, value):
        if value is not (view := state.parts()[0][index]):
            np.copyto(view, value)

    return property(get, put)


@dataclass
class AdmmState:
    """One iterate, in either layout.

    Masked (``run_admm``): S, W, H, lam5 and lam7 are length-n_cols vectors,
    ``classes`` gives each column's OD pair and lam2 has one entry per pair.
    Per driver: they are (n_cols x entries) matrices, one column per
    ``problem.columns`` entry, lam2 has one entry per column of S and
    ``classes`` is None. ``point`` holds S raveled, gamma, beta and the
    duals end to end, lam1 ... lam7 at ``dual_slices`` within the duals
    (lam5 and lam7 as S raveled); ``s_mat``, ``gamma``, ``beta``, ``duals``
    and ``lam1`` ... ``lam7`` are its views (``beta`` and ``lam6`` read as
    floats), and assigning one copies into it. ``initial_state`` also sets
    the constants the sweeps divide and scale by, once per run: the divisors
    are None per driver, and ``residual_scale`` holds sqrt(q) masked or
    sqrt(weights) at lam2, sqrt(weights) at lam5 and lam7, and 1 elsewhere.
    ``norm_starts`` holds where each part starts, for the masked norms' one
    reduction (None per driver, or when a part is empty). A full
    ``volumes`` block, or a read of ``objective_history``, scores its
    ``pending`` rows where they lie with ``bpr_rows`` (t0_row, w_row).
    """

    u: np.ndarray
    w_mat: np.ndarray
    h_mat: np.ndarray
    point: np.ndarray  # S raveled, gamma, beta and the duals
    s_shape: tuple
    beta_at: int  # beta's place in ``point``
    dual_slices: tuple
    weights: np.ndarray  # drivers each S entry stands for, broadcast against S
    volumes: np.ndarray  # (sweeps, rows), as many as fit in OBJECTIVE_BLOCK_FLOATS: A u + bg per sweep
    classes: np.ndarray = None  # masked layout: the OD pair of each column
    pair_divisor: np.ndarray = None  # masked layout: n_k + 1 per OD pair, for the W step
    s_divisor: np.ndarray = None  # masked layout: weights + 2, for the S step
    residual_scale: np.ndarray = None  # what a residual vector is scaled by before its norms
    norm_starts: np.ndarray = None  # masked layout: where each residual part starts
    bpr_rows: tuple = None  # (t0_row, w_row), which the pending volumes are scored with
    prox: ProxRows = None  # the volume prox's row buffers, its root written to gamma
    iteration: int = 0
    pending: int = 0  # rows of ``volumes`` not yet scored
    residual_history: list = field(default_factory=list)
    evaluated_objectives: list = field(default_factory=list, repr=False)
    s_mat, gamma, beta, duals, lam1, lam2, lam3, lam4, lam5, lam6, lam7 = (_view(index) for index in range(11))

    @property
    def objective_history(self):
        """The relaxed BPR objective after each sweep."""
        self.flush_objectives()
        return self.evaluated_objectives

    def flush_objectives(self):
        """Score the pending volumes as one (sweeps x rows) block."""
        if self.pending:
            block = np.maximum(self.volumes[: self.pending], 0.0, out=self.volumes[: self.pending])
            self.evaluated_objectives.extend(bpr_terms(block, *self.bpr_rows).sum(axis=1).tolist())
            self.pending = 0

    def split(self, flat):
        """The seven parts of a vector laid out like ``duals``, as views,
        the lam5 and lam7 parts in S's shape."""
        shapes = (-1, -1, -1, -1, self.s_shape, -1, self.s_shape)
        return [flat[at].reshape(shape) for at, shape in zip(self.dual_slices, shapes)]

    def parts(self):
        """Cached views: of the point, S, gamma, beta (0-d), the duals and
        their seven parts (lam6 0-d); then a sweep's residual vector with
        its shaped parts and its scaled copy with flat ones. Built again
        once ``point`` is rebound or the state copied."""
        cached, point = self.__dict__.get("_parts"), self.point
        if cached is None or cached[0][0].base is not (point if point.base is None else point.base):
            s_mat, gamma, beta, duals = np.split(point, [math.prod(self.s_shape), self.beta_at, self.beta_at + 1])
            views = [s_mat.reshape(self.s_shape), gamma, beta.reshape(()), duals, *self.split(duals)]
            views[9] = views[9].reshape(())
            residual, scaled = np.empty((2, duals.size))
            flat = [scaled[at] for at in self.dual_slices]
            cached = self._parts = (views, residual, self.split(residual), scaled, flat)
        return cached


@dataclass
class AdmmResult:
    """From ``run_admm``, ``s_relaxed`` and ``state`` are in the masked layout;
    ``u_factor`` is the factor its u step applied. ``iterations`` counts
    sweeps; ``anderson_steps`` of them started from an extrapolated point,
    and the extrapolation's memory was cleared ``anderson_restarts`` times."""

    u: np.ndarray
    s_relaxed: np.ndarray
    residuals: np.ndarray  # iterations x 7
    objectives: np.ndarray
    iterations: int
    converged: bool
    state: AdmmState
    u_factor: UFactor
    anderson_steps: int
    anderson_restarts: int


def _column_classes(d_matrix):
    """OD pair of each column, which must belong to exactly one pair.

    Every ``d_matrix`` entry must be 0 or 1: the masked sweep reads D^T x
    as x[classes] and D u as a per-class sum.
    """
    if not (((d_matrix == 0.0) | (d_matrix == 1.0)).all() and (d_matrix.sum(axis=0) == 1).all()):
        raise InputError("each offer column must belong to exactly one OD pair, at entry 1")
    return np.argmax(d_matrix > 0, axis=0)


def initial_state(problem, masked=False):
    """Uniform offer mass over each block, duals at zero.

    Masked, the one vector is uniform over every OD pair's block and each
    column stands for its pair's q_k drivers (0 on a pair without drivers).
    Per driver, each ``problem.columns`` entry spreads unit mass over its
    block and stands for q_k / n_k drivers when n_k entries share pair k
    (1 per driver).
    """
    n_cols = problem.num_columns
    if masked:
        classes = _column_classes(problem.d_matrix)
        s_mat = 1.0 / np.bincount(classes)[classes]
        weights = problem.q[classes]
        pair_divisor = np.bincount(classes, minlength=problem.q.size) + 1.0
        s_divisor = weights + 2.0
    else:
        classes = pair_divisor = s_divisor = None
        weights = problem.q[problem.pairs] / np.bincount(problem.pairs)[problem.pairs]
        s_mat = np.zeros((n_cols, problem.num_drivers))
        for n, allowed in enumerate(problem.columns):
            s_mat[allowed, n] = 1.0 / len(allowed)
    u = _offer_mass(s_mat, weights)
    # the residual scale, part by part (lam1 ... lam7), which also lays out the duals
    root = np.broadcast_to(np.sqrt(weights), s_mat.shape).ravel()
    ones = [np.ones(size) for size in (n_cols, problem.q.size, problem.background.size, 1)]
    scale = (ones[0], np.sqrt(problem.q if masked else weights), ones[1], ones[2], root, ones[3], root)
    sizes = [x.size for x in scale]
    ends = np.cumsum(sizes).tolist()
    rows = problem.background.size
    state = AdmmState(
        u=u,
        w_mat=s_mat.copy(),
        h_mat=s_mat.copy(),
        point=np.zeros(s_mat.size + rows + 1 + ends[-1]),
        s_shape=s_mat.shape,
        beta_at=s_mat.size + rows,
        dual_slices=tuple(slice(end - x.size, end) for end, x in zip(ends, scale)),
        weights=weights,
        volumes=np.empty((max(1, OBJECTIVE_BLOCK_FLOATS // max(1, rows)), rows)),
        classes=classes,
        pair_divisor=pair_divisor,
        s_divisor=s_divisor,
        residual_scale=np.concatenate(scale),
        norm_starts=np.subtract(ends, sizes) if masked and min(sizes) > 0 else None,
        bpr_rows=(problem.t0_row, problem.w_row),
    )
    state.s_mat, state.gamma = s_mat, _volume(u, problem, classes)
    state.beta = max(0.0, problem.budget - float(problem.costs @ u))
    state.prox = ProxRows(problem.prox_quart, state.gamma)
    return state


def _offer_mass(s_mat, weights, out=None):
    """S 1 over the drivers each entry stands for: q_j S_j when masked."""
    if s_mat.ndim == 1:
        return np.multiply(s_mat, weights, out)
    return (s_mat * weights).sum(axis=1, out=out)


def _ranges(starts, lengths):
    """The ranges [starts[i], starts[i] + lengths[i]) laid end to end:
    the range each element comes from, and the element."""
    owner = np.arange(lengths.size).repeat(lengths)
    return owner, np.arange(owner.size) + (starts + lengths - lengths.cumsum())[owner]


class UFactor:
    """M^-1 for M = B + c c^T, B block-diagonal, applied by ``@``.

    ``groups`` holds one entry per block size s: the columns of its k
    blocks (a slice when they form one contiguous range), the (k, s, s)
    stack of their inverses and the (k, s, 1) shape their part of x takes.
    M^-1 x = y - z (c . y) / (1 + c . z) with y = B^-1 x and z = B^-1 c;
    ``solve`` writes it to ``out``.
    """

    def __init__(self, groups, costs):
        self.groups = groups
        self.blocks = sum(len(inverse) for _, inverse, _ in groups)
        self.largest_block = max((inverse.shape[1] for _, inverse, _ in groups), default=0)
        self.costs = costs
        z = self._block_solve(costs)
        self._z_scaled = z / (1.0 + costs @ z)

    def _block_solve(self, x, out=None):
        y = np.empty(x.shape) if out is None else out
        for index, inverse, shape in self.groups:
            y[index] = (inverse @ x[index].reshape(shape)).ravel()
        return y

    def solve(self, x, out=None):
        y = self._block_solve(x, out)
        y -= self._z_scaled * self.costs.dot(y)
        return y

    __matmul__ = solve


def _components(rows, cols, n_rows, n_cols):
    """Each column's least column in its connected component of the
    bipartite graph whose edges are the nonzeros (rows, cols).

    Each row takes the least label of its columns and each column the least
    of its rows, then jumps to its label's label, until every row holds one
    label.
    """
    labels = np.arange(n_cols)
    row_labels = np.full(n_rows, n_cols)
    while True:
        col_side = labels[cols]
        np.minimum.at(row_labels, rows, col_side)
        row_side = row_labels[rows]
        if (col_side == row_side).all():
            return labels
        np.minimum.at(labels, cols, row_side)
        labels = labels[labels]


def _gram_stack(shape, at, values):
    """P^T P for each of the k matrices P of the (k, rows, s) stack that
    holds ``values`` at ``at``; the stack is freed before the caller
    inverts the result."""
    stack = np.zeros(shape)
    stack[at] = values
    return stack.transpose(0, 2, 1) @ stack


def build_u_factor(problem):
    """The u step's M = I + D^T D + A^T A + c c^T, factored once per run.

    Columns i and j meet in B = I + D^T D + A^T A only when some row of
    [D; A] is nonzero at both, so B is block-diagonal over the connected
    components of the bipartite graph of rows and columns, found by label
    propagation over the nonzeros. Blocks of one size s are built as one
    stack: each block's nonzero rows, gathered into a (k, rows, s) array P,
    give I + P^T P, and the stack is inverted at once. c c^T enters by
    Sherman-Morrison (Golub & Van Loan, *Matrix Computations*, section
    2.1.4). Memory and time follow the nonzeros and the block sizes; a
    network whose OD pairs all share links is one block, the dense case.
    """
    p = problem
    n = p.num_columns
    d_rows, d_cols = np.nonzero(p.d_matrix)
    a_rows, a_cols, a_vals = p.a_nonzeros
    n_rows = p.d_matrix.shape[0] + p.a_matrix.shape[0]
    # the nonzeros of [D; A]
    rows = np.concatenate([d_rows, a_rows + p.d_matrix.shape[0]])
    cols = np.concatenate([d_cols, a_cols])
    vals = np.concatenate([p.d_matrix[d_rows, d_cols], a_vals])

    labels = _components(rows, cols, n_rows, n)

    # columns ordered by block size, then block, then index, so each
    # block's least column, its label, comes first
    size = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((labels, size))
    first = labels[order] == order
    block_size = size[order[first]]
    block = np.empty(n, dtype=int)
    block[order] = first.cumsum() - 1
    pos = np.empty(n, dtype=int)  # each column's place in its block
    pos[order] = np.arange(n) - (block_size.cumsum() - block_size).repeat(block_size)

    # the nonzeros block by block, rows ascending within each ([D; A] is in
    # row order and the sort is stable), and each one's place among its
    # block's nonzero rows
    by_block = np.argsort(block[cols], kind="stable")
    rows, cols, vals = rows[by_block], cols[by_block], vals[by_block]
    nz_block = block[cols]
    fresh = np.ones(rows.size, dtype=bool)  # the first nonzero of a (block, row)
    fresh[1:] = (rows[1:] != rows[:-1]) | (nz_block[1:] != nz_block[:-1])
    local = fresh.cumsum() - 1
    block_rows = np.bincount(nz_block[fresh], minlength=block_size.size)
    local -= (block_rows.cumsum() - block_rows)[nz_block]
    block_nonzeros = np.bincount(nz_block, minlength=block_size.size).cumsum()

    groups = []
    per_size = np.bincount(block_size)
    done = first_block = first_nz = 0  # columns, blocks and nonzeros of the smaller sizes
    for s in per_size.nonzero()[0].tolist():
        k = int(per_size[s])
        at = slice(first_nz, int(block_nonzeros[first_block + k - 1]))
        height = int(block_rows[first_block : first_block + k].max())
        m = _gram_stack((k, height, s), (nz_block[at] - first_block, local[at], pos[cols[at]]), vals[at])
        m.reshape(k, s * s)[:, :: s + 1] += 1.0
        columns = order[done : done + k * s]
        contiguous = (columns[1:] - columns[:-1] == 1).all()
        index = slice(int(columns[0]), int(columns[-1]) + 1) if contiguous else columns
        groups.append((index, np.linalg.inv(m), (k, s, 1)))
        done += k * s
        first_block += k
        first_nz = at.stop
    return UFactor(groups, p.costs)


def u_update(state, problem, rho, u_factor, out=None):
    """Solve of the u block; masked, D^T x is x[classes], D^T q the
    weights and A^T one product over A's nonzeros."""
    p = problem
    s_mat, gamma, beta, _, lam1, _, lam3, lam4, _, lam6, _ = state.parts()[0]
    if state.classes is None:
        rhs = (
            (lam1 - p.d_matrix.T @ lam3 - p.a_matrix.T @ lam4 - lam6 * p.costs) / rho
            + _offer_mass(s_mat, state.weights)
            + p.d_matrix.T @ p.q
            + p.a_matrix.T @ (gamma - p.background)
            + (p.budget - float(beta)) * p.costs
        )
    else:
        rows, cols, values = p.a_nonzeros
        target = np.subtract(gamma, p.background)
        products = np.subtract(target, lam4 / rho, target)[rows]
        rhs = lam3[state.classes]
        np.divide(np.subtract(np.subtract(lam1, rhs, rhs), lam6 * p.costs, rhs), rho, rhs)
        products = np.bincount(cols, np.multiply(values, products, products), p.num_columns)
        for term in (_offer_mass(s_mat, state.weights), state.weights, products, (p.budget - float(beta)) * p.costs):
            np.add(rhs, term, rhs)
    return u_factor.solve(rhs, out)


def w_update(s_mat, lam2, lam7, rho, classes=None, divisor=None, out=None):
    """Closed form for the column-sum copy via its rank-one inverse:
    g = 1 + S - (lam7 + lam2) / rho, less its column sums over m + 1.

    Masked (``classes`` given), lam2 has one entry per OD pair and g is
    less its sum over the column's block over n_k + 1 instead, which
    ``divisor`` holds per pair (``AdmmState.pair_divisor``).
    """
    shift = np.add(lam7, lam2[None, :] if classes is None else lam2[classes])
    g = np.add(s_mat, 1.0, out)
    np.subtract(g, np.divide(shift, rho, shift), g)
    if classes is None:
        return np.subtract(g, g.sum(axis=0, keepdims=True) / (s_mat.shape[0] + 1.0), g)
    sums = np.bincount(classes, g, lam2.size)
    return np.subtract(g, np.divide(sums, divisor, sums)[classes], g)


def h_update(s_mat, lam5, rho, lambda_reg, out=None):
    """Box projection of (rho S - lam5 - lambda_reg / 2) / (rho - lambda_reg)."""
    x = np.multiply(s_mat, rho, out)
    np.divide(np.subtract(np.subtract(x, lam5, x), lambda_reg / 2.0, x), rho - lambda_reg, x)
    return x.clip(0.0, 1.0, out=x)


def s_update(u, h_mat, w_mat, lam1, lam5, lam7, rho, weights=None, divisor=None, out=None):
    """Assignment update via the rank-one inverse of (rho w 1^T + 2 rho I).

    Columns decouple given one shared weighted row sum: with
    g = u + (lam5 + lam7 - lam1) / rho + H + W, S is g less its w-weighted
    row sums over sum(w) + 2, halved. Masked (vector S), each row holds one
    entry and S = g / (w + 2), with w + 2 given as ``divisor``
    (``AdmmState.s_divisor``). ``weights`` defaults to one per entry.
    """
    u, lam1 = (u, lam1) if h_mat.ndim == 1 else (u[:, None], lam1[:, None])
    g = np.add(lam5, lam7, out)
    np.add(u, np.divide(np.subtract(g, lam1, g), rho, g), g)
    np.add(np.add(g, h_mat, g), w_mat, g)
    if h_mat.ndim == 1:
        return np.divide(g, divisor, g)
    weights = np.ones(h_mat.shape[-1]) if weights is None else weights
    return np.divide(np.subtract(g, (g * weights).sum(axis=1, keepdims=True) / (weights.sum() + 2.0), g), 2.0, g)


def gamma_subproblem(a_u, lam4, rho, t0, w, quart=None):
    """Prox of v -> v * delay(v) at the current volume target, per row.

    Minimizes g * t0 (1 + 0.15 (g/w)^4) - lam4 * g + (rho/2)(a_u - g)^2 over
    g >= 0 with the kernel module's plain Newton: a row stops at 0 when the
    derivative there is nonnegative, otherwise once every row's derivative
    is below 1e-10 in absolute value, or after 200 passes. ``quart`` is
    0.75 t0 / w^4 (``AdmmProblem.prox_quart``), computed when not given, or
    the state's ``ProxRows``, which the root is written into.
    """
    out = gamma_solve(a_u, lam4, rho, t0, w, quart=quart)
    return float(out[0]) if np.ndim(a_u) == 0 else out


def beta_update(spend, lam6, rho, budget):
    """The budget slack's closed form at spend c . u."""
    return max(0.0, budget - spend - lam6 / rho)


def _volume(u, problem, classes=None, out=None):
    """A u + bg; masked (``classes`` given), summed over A's nonzeros."""
    if classes is None:
        return np.add(problem.a_matrix @ u, problem.background, out)
    rows, cols, values = problem.a_nonzeros
    products = u[cols]
    products *= values
    return np.add(np.bincount(rows, products, problem.background.size), problem.background, out)


def residual_vectors(state, problem, volume=None, parts=None, spend=None):
    """The seven coupling residuals at the state's current primal values,
    written into and returned as ``parts``, the parts of a vector laid out
    like ``state.duals`` (a new one when not given). ``volume`` is A u + bg
    and ``spend`` c . u at the state's u, computed here when not given.
    """
    p = problem
    volume = _volume(state.u, p, state.classes) if volume is None else volume
    spend = float(p.costs @ state.u) if spend is None else spend
    if parts is None:
        parts = state.split(np.empty(state.duals.size))
    s_mat, gamma, beta = state.parts()[0][:3]
    r1, r2, r3, r4, r5, r6, r7 = parts
    if state.classes is None:
        w_sums = state.w_mat.sum(axis=0)
        demand = p.d_matrix @ state.u
    else:
        w_sums = np.bincount(state.classes, state.w_mat, p.q.size)
        demand = np.bincount(state.classes, state.u, p.q.size)
    np.subtract(_offer_mass(s_mat, state.weights, r1), state.u, r1)
    np.subtract(w_sums, 1.0, r2)
    np.subtract(demand, p.q, r3)
    np.subtract(volume, gamma, r4)
    np.subtract(state.h_mat, s_mat, r5)
    r6[0] = spend + float(beta) - p.budget
    np.subtract(state.w_mat, s_mat, r7)
    return parts


def relaxed_objective(u, problem):
    """Total travel time of the expected volumes implied by offer mass u."""
    volume = np.maximum(_volume(u, problem), 0.0)
    return float(bpr_terms(volume, problem.t0_row, problem.w_row).sum())


def _check_finite(state, iteration):
    blocks = {"u": state.u, "S": state.s_mat, "W": state.w_mat, "H": state.h_mat, "gamma": state.gamma}
    for block, value in {**blocks, "beta": state.beta}.items():
        if not np.isfinite(value).all():
            raise DivergenceError(block, iteration)


def admm_iterate(state, problem, cfg, u_factor, order=(0, 1)):
    """One full sweep: both primal blocks in the given order, then all duals.

    Block 0 updates {u, W, H}, the u step applying ``u_factor`` (from
    ``build_u_factor``); block 1 updates {S, gamma, beta}. Every update
    reads the most recent values of the other variables. ``run_admm`` uses
    the default (0, 1), in which block 1's A u + bg serves the residuals;
    other orders remain for the identity tests, and after a sweep ending
    in block 0 the volume is formed again at the new u. Appends the
    seven residual norms, S-sized ones weighted per driver, to the state's
    history, and writes A u + bg into the next row of its ``volumes``.
    Returns the largest of the seven norms.
    """
    rho = cfg.rho
    p = problem
    (s_mat, _, _, duals, lam1, lam2, _, lam4, lam5, lam6, lam7), residual, parts, scaled, scaled_parts = state.parts()
    volume = spend = None  # A u + bg and c . u at the current u, once block 1 has formed them
    for block in order:
        if block == 0:
            u_update(state, p, rho, u_factor, state.u)
            w_update(s_mat, lam2, lam7, rho, state.classes, state.pair_divisor, state.w_mat)
            h_update(s_mat, lam5, rho, cfg.lambda_reg, state.h_mat)
            volume = spend = None
        else:
            s_update(state.u, state.h_mat, state.w_mat, lam1, lam5, lam7, rho, state.weights, state.s_divisor, s_mat)
            volume = _volume(state.u, p, state.classes, state.volumes[state.pending])
            state.gamma = gamma_subproblem(volume, lam4, rho, p.t0_row, p.w_row, quart=state.prox)
            spend = float(p.costs @ state.u)
            state.point[state.beta_at] = beta_update(spend, float(lam6), rho, p.budget)
    if volume is None:
        volume = _volume(state.u, p, state.classes, state.volumes[state.pending])

    residual_vectors(state, p, volume, parts, spend)
    np.multiply(residual, state.residual_scale, scaled)
    if state.norm_starts is None:
        norms = np.array([math.sqrt(x.dot(x)) for x in scaled_parts])
    else:
        np.multiply(scaled, scaled, scaled)
        norms = np.add.reduceat(scaled, state.norm_starts)
        np.sqrt(norms, norms)
    # the norms read every block (each feeds some residual linearly), so a
    # NaN or inf anywhere shows up here; name the block before duals move
    largest = norms.max()
    if not math.isfinite(largest):
        _check_finite(state, state.iteration)

    residual *= rho
    duals += residual
    state.iteration += 1
    state.residual_history.append(norms)
    state.pending += 1
    if state.pending == len(state.volumes):
        state.flush_objectives()
    return largest


class _Anderson:
    """Type-II Anderson acceleration of the sweep map F on the masked state.

    F is one ``admm_iterate`` sweep acting on x = (S, gamma, beta, duals),
    the only values block 0 reads. After each sweep, ``extrapolate`` moves
    the state from F(x) to the affine combination sum_i a_i F(x_i) of the
    last ANDERSON_MEMORY + 1 sweeps whose fixed-point residuals
    g_i = F(x_i) - x_i combine to the least norm, sum_i a_i = 1 (Walker &
    Ni, "Anderson acceleration for fixed-point iterations", SIAM J. Numer.
    Anal. 2011; in this form Pulay's DIIS). The a_i solve the bordered
    system [[0, 1^T], [1, R]] [nu; a] = [1; 0], where R is the Gram matrix
    of the g_i; each sweep writes one row and column of it from one
    product of every slot of the residual ring with the new g. The live
    slots are a prefix of the ring, so the system is a leading block of one
    preallocated matrix; a restart moves the newest sweep to slot 0.

    The norm is the one in which a plain sweep's fixed-point residual never
    grows on a convex problem: rho ||B dz||^2 + ||d lam||^2 / rho, with
    B z the block-1 terms of the seven constraints, counted per driver (He
    & Yuan, "On non-ergodic convergence rate of Douglas-Rachford
    alternating direction method of multipliers", Numer. Math. 2015). So
    the safeguard, which clears the memory whenever ||g|| rises from one
    sweep to the next or the system is singular, fires on extrapolations
    that went wrong; in the plain Euclidean norm of x it fired on more
    sweeps than it let extrapolate, and one gate-4 instance ran out of
    sweeps. After a clear the state keeps F(x), the plain sweep. x is the
    state's own ``point``: each sweep copies F(x) into the ring once, and
    the extrapolated x is written into the point, where its gamma and beta
    are clipped at 0, the domains of their prox steps; ``latest`` keeps a
    copy of it for the next residual.

    With OpenBLAS, a dot product of more than 10,000 floats, or a one-row
    matrix-vector product that long, is summed in pieces across threads,
    so it rounds by the thread count; a product of several rows hands each
    row's sum to one thread. So the Gram row is one product of every slot,
    live or not, and the combination sums over at least two slots: a run
    takes the same sweeps under any thread count, which
    ``tests/test_scale_rungs.py`` checks at one and two threads.
    """

    def __init__(self, state, rho):
        slots = ANDERSON_MEMORY + 1
        self.outputs = np.zeros((slots, state.point.size))  # F(x_i), a slot a sweep
        self.residuals = np.zeros(self.outputs.shape)  # g_i = F(x_i) - x_i, times the metric's root
        self.latest = state.point.copy()  # the x the next sweep maps
        # the square root of the diagonal metric: rho (q^2 + 2 q) on S, where
        # each entry enters the offer mass weighted by its q drivers and
        # H - S and W - S once per driver, rho on gamma and beta, and each
        # dual's squared residual scale over rho
        w = state.weights
        root_rho = math.sqrt(rho)
        self.metric_root = np.concatenate(
            (np.sqrt(rho * (w * w + 2.0 * w)), np.full(state.gamma.size + 1, root_rho), state.residual_scale / root_rho)
        )
        self.gram = np.zeros((slots + 1, slots + 1))  # R, bordered at row and column 0
        self.gram[0, 1:] = self.gram[1:, 0] = 1.0
        self.rhs = np.zeros(slots + 1)
        self.rhs[0] = 1.0
        self.row = np.empty(slots)
        self.live = 0  # slots holding sweeps since the last restart
        self.slot = 0  # where the next sweep goes
        self.last = math.inf  # ||g||^2 of the last sweep
        self.steps = self.restarts = 0

    def _restart(self, slot, norm):
        """Keep only the newest sweep, moved to slot 0."""
        self.restarts += 1
        if slot:
            self.outputs[0] = self.outputs[slot]
            self.residuals[0] = self.residuals[slot]
        self.gram[1, 1] = norm
        self.live, self.slot = 1, 1

    def extrapolate(self, state):
        """Record the sweep that just ran and move the state to the next x."""
        j = self.slot
        f, g, x = self.outputs[j], self.residuals[j], state.point
        np.copyto(f, x)
        np.subtract(f, self.latest, out=g)
        np.multiply(g, self.metric_root, out=g)
        np.matmul(self.residuals, g, out=self.row)
        norm = float(self.row[j])
        rose, self.last = norm > self.last, norm
        if rose:
            self._restart(j, norm)
        else:
            self.gram[1 + j, 1:] = self.gram[1:, 1 + j] = self.row
            self.live = min(self.live + 1, ANDERSON_MEMORY + 1)
            self.slot = (j + 1) % (ANDERSON_MEMORY + 1)
        live = self.live
        if live > 1:
            try:
                coef = np.linalg.solve(self.gram[: live + 1, : live + 1], self.rhs[: live + 1])
            except np.linalg.LinAlgError:
                self._restart(j, norm)
                live = 1
        if live > 1:
            np.matmul(coef[1:], self.outputs[:live], out=x)
            gamma = state.parts()[0][1]
            np.maximum(gamma, 0.0, out=gamma)
            x[state.beta_at] = max(0.0, float(x[state.beta_at]))
            self.steps += 1
        np.copyto(self.latest, x)


def run_admm(problem, cfg=None):
    """Iterate to the relaxed solution; early exit once residuals pass tol.

    The state is masked, whatever ``problem.columns`` lists. Every sweep
    runs block 0 then block 1, ``admm_iterate``'s default order, so a run
    depends on its problem and config only, and each sweep forms A u + bg
    once: block 1 computes it at the new u and the residuals reuse it.
    Between sweeps ``_Anderson`` extrapolates the state; the run stops on,
    and returns, a plain sweep (see the module docstring).
    """
    cfg = cfg or AdmmConfig()
    state = initial_state(problem, masked=True)
    u_factor = build_u_factor(problem)
    anderson = _Anderson(state, cfg.rho)
    converged = False
    while True:
        if admm_iterate(state, problem, cfg, u_factor) < cfg.residual_tol:
            converged = True
            break
        if state.iteration == cfg.max_iters:
            break
        anderson.extrapolate(state)
    return AdmmResult(
        u=state.u.copy(),
        s_relaxed=state.s_mat.copy(),
        residuals=np.array(state.residual_history),
        objectives=np.array(state.objective_history),
        iterations=state.iteration,
        converged=converged,
        state=state,
        u_factor=u_factor,
        anderson_steps=anderson.steps,
        anderson_restarts=anderson.restarts,
    )


def round_assignment(u_star, demand, costs, budget):
    """Nearest feasible binary assignment in L1 distance on column sums.

    Drivers of one OD pair are interchangeable, so the counts come from
    ``round_counts`` and are dealt to drivers by ``deal_counts``.
    """
    return deal_counts(round_counts(u_star, demand, costs, budget)[0], demand)


def polish_counts(counts, problem):
    """Best-improvement 1-exchange on integer offer counts.

    A move shifts one driver between two columns of its own OD pair within
    the budget (1e-9 slack) and is scored on the BPR total travel time of
    A u + bg, over the rows where A is nonzero in either column: the other
    rows keep their volume. The best move, the first in (source, target)
    order on ties, is applied while it lowers that total by more than
    1e-12, so the loop ends at a 1-exchange local optimum (Ahuja, Ergun,
    Orlin & Punnen, "A survey of very large-scale neighborhood search
    techniques", 2002). Returns the polished counts and the number of moves.
    """
    p = problem
    u = np.array(counts, dtype=float)
    classes = _column_classes(p.d_matrix)
    # every move (src, dst), src ascending, then dst ascending
    by_class = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes)
    src, at = _ranges((sizes.cumsum() - sizes)[classes], sizes[classes])
    dst = by_class[at]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # one entry per (move, row) that the move changes, rows ascending within
    # a move, so each gain sums its rows in the order a dense sum would
    a_rows, a_cols, _ = p.a_nonzeros
    by_col = np.argsort(a_cols, kind="stable")
    col_sizes = np.bincount(a_cols, minlength=u.size)
    ends = np.concatenate([dst, src])
    owner, at = _ranges((col_sizes.cumsum() - col_sizes)[ends], col_sizes[ends])
    n_rows = p.background.size
    keys = owner % src.size * n_rows + a_rows[by_col[at]]
    keys.sort()  # a row both columns touch comes twice; keep it once
    keys = np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])
    entry_move, entry_row = np.divmod(keys, n_rows)
    step = p.a_matrix[entry_row, dst[entry_move]] - p.a_matrix[entry_row, src[entry_move]]
    t0, w = p.t0_row[entry_row], p.w_row[entry_row]
    extra_cost = p.costs[dst] - p.costs[src]
    moves = 0
    while True:
        allowed = (u[src] >= 1) & (float(p.costs @ u) + extra_cost <= p.budget + 1e-9)
        if not allowed.any():
            return u, moves
        volume = _volume(u, p, classes)
        before = bpr_terms(volume, p.t0_row, p.w_row)[entry_row]
        gain = np.bincount(entry_move, before - bpr_terms(volume[entry_row] + step, t0, w), src.size)
        gain = np.where(allowed, gain, -np.inf)
        move = gain.argmax()
        if gain[move] <= 1e-12:
            return u, moves
        u[src[move]] -= 1.0
        u[dst[move]] += 1.0
        moves += 1
