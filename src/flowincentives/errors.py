"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class DomainError(ValueError):
    """Numeric argument outside the function's domain (e.g. negative volume)."""


class InfeasibleDemandError(InputError):
    """One or more OD pairs have no route at all."""

    def __init__(self, od_pairs):
        self.od_pairs = list(od_pairs)
        super().__init__(f"no route exists for OD pairs: {self.od_pairs}")


class InfeasibleModelError(RuntimeError):
    """The optimization model admits no feasible point.

    ``binding_rows`` lists (link id, time index) capacity rows that are
    violated even by the all-zero-incentive assignment, which is the usual
    culprit; retrying with a larger capacity multiplier often helps.
    ``nodes`` and ``pivots`` count the branch-and-bound search that proved
    infeasibility, when one ran.
    """

    def __init__(self, message, binding_rows=(), nodes=0, pivots=0):
        self.binding_rows = list(binding_rows)
        self.nodes = nodes
        self.pivots = pivots
        super().__init__(message)


class SolverLimitError(RuntimeError):
    """A solver stopped at one of its limits before finding a feasible point.

    ``limit`` names the limit and ``value`` its setting; raising the limit
    usually helps.
    """

    def __init__(self, limit, value):
        self.limit = limit
        self.value = value
        super().__init__(f"stopped at {limit}={value} before finding a feasible point")


class DivergenceError(RuntimeError):
    """A splitting iteration produced non-finite values.

    ``block`` names the first offending variable block; a smaller penalty
    parameter usually restores stability.
    """

    def __init__(self, block, iteration):
        self.block = block
        self.iteration = iteration
        super().__init__(
            f"non-finite values in block '{block}' at iteration {iteration}; "
            "try a smaller penalty parameter rho"
        )


class OracleSizeError(RuntimeError):
    """Exhaustive enumeration refused because the instance is too large."""

    def __init__(self, estimate, limit):
        self.estimate = estimate
        self.limit = limit
        super().__init__(
            f"enumeration would visit ~{estimate:.3g} count vectors (limit {limit:.3g})"
        )
