"""Route-choice model: softmax acceptance probabilities and the offer matrix.

A driver offered ``amount`` dollars to take route j' picks route k of their
OD pair with probability

    exp(theta_tt * tt_k + theta_inc * amount * [k == j'])
    -----------------------------------------------------
    sum over the pair's routes of the same expression

Travel-time estimates are the free-flow route times by default. The offer
matrix P has one column per (route, incentive) pair; the column for
(route j', amount i') holds that distribution on the rows of j's OD pair and
zeros elsewhere, so expected route loads are P @ S @ 1 for any assignment S.
This module alone maps (route, amount) to a column (``offer_column``) and a
column back to its offer (``column_offers``, ``ChoiceProbabilities.costs``,
``amount_tally``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class IncentiveMenu:
    """Offerable dollar amounts; the zero offer is always present.

    The cost charged against the budget equals the face value of the amount.
    """

    amounts: tuple

    def __post_init__(self):
        amounts = tuple(float(a) for a in self.amounts)
        if not amounts or amounts[0] != 0.0:
            raise InputError("incentive menu must start with the $0 offer")
        if any(b <= a for a, b in zip(amounts, amounts[1:])):
            raise InputError("incentive amounts must be strictly increasing")
        if not all(math.isfinite(a) for a in amounts):
            raise InputError("incentive amounts must be finite")
        object.__setattr__(self, "amounts", amounts)

    def __len__(self):
        return len(self.amounts)

    @property
    def costs(self):
        return np.array(self.amounts, dtype=float)


@dataclass(frozen=True)
class ChoiceCoefficients:
    """Utility weights: negative per hour of travel time, positive per dollar."""

    theta_tt: float = -0.086
    theta_inc: float = 0.7

    def __post_init__(self):
        if not (math.isfinite(self.theta_tt) and self.theta_tt < 0):
            raise InputError("theta_tt must be negative and finite")
        if not (math.isfinite(self.theta_inc) and self.theta_inc > 0):
            raise InputError("theta_inc must be positive and finite")


@dataclass(frozen=True)
class ChoiceProbabilities:
    """The offer matrix P: |routes| rows by |routes|*|menu| columns.

    Column j * |menu| + i is the route distribution when amount i is offered
    on route j. Columns are stochastic when restricted to the offered route's
    OD block and zero outside it.
    """

    matrix: np.ndarray = field(compare=False)
    num_routes: int
    menu: IncentiveMenu

    @property
    def costs(self):
        """Each column's offered amount, which is also what offering it costs."""
        return self.menu.costs[column_offers(self.menu, self.num_routes)[1]]


def offer_column(menu, route_index, incentive_index):
    """Column of the offer of ``menu.amounts[incentive_index]`` on a global route."""
    return route_index * len(menu) + incentive_index


def column_offers(menu, num_routes):
    """Route index and menu index of every offer column, in column order:
    the inverse of ``offer_column``."""
    return np.divmod(np.arange(num_routes * len(menu)), len(menu))


def amount_tally(menu, counts):
    """Offers per menu amount in a vector of per-column offer counts."""
    per_amount = np.asarray(counts, dtype=float).reshape(-1, len(menu)).sum(axis=0)
    return {amount: int(round(n)) for amount, n in zip(menu.amounts, per_amount)}


def acceptance_probabilities(travel_times, offered_route, amount, coeffs=None):
    """Softmax route distribution for one OD pair under a single offer.

    ``travel_times`` are the pair's route times in hours, ``offered_route``
    indexes into that sequence, ``amount`` is the offered dollar value.
    """
    coeffs = coeffs or ChoiceCoefficients()
    tt = np.asarray(travel_times, dtype=float)
    if tt.size == 0:
        raise InputError("empty route set")
    if np.any(tt <= 0):
        raise InputError("travel times must be positive")
    if not 0 <= offered_route < tt.size:
        raise InputError(f"offered route index {offered_route} out of range")
    if amount < 0:
        raise InputError("incentive amount must be nonnegative")
    utilities = coeffs.theta_tt * tt
    utilities[offered_route] += coeffs.theta_inc * amount
    utilities -= utilities.max()  # translation-invariant; keeps exp in range
    weights = np.exp(utilities)
    return weights / weights.sum()


def build_choice_matrix(routes, menu, travel_time_estimates, coeffs=None):
    """Assemble the full offer matrix from a RouteSet and an incentive menu.

    ``travel_time_estimates`` has one entry per global route, in hours.
    Every (route, incentive) column is filled, including offers a solver may
    never use.
    """
    coeffs = coeffs or ChoiceCoefficients()
    tt = np.asarray(travel_time_estimates, dtype=float)
    if tt.shape != (routes.num_routes,):
        raise InputError("need one travel-time estimate per route")
    matrix = np.zeros((routes.num_routes, routes.num_routes * len(menu)))
    for members in routes.route_of_od.values():
        members = np.asarray(members)
        pair_tt = tt[members]
        for local_j, j in enumerate(members):
            for i, amount in enumerate(menu.amounts):
                matrix[members, offer_column(menu, j, i)] = acceptance_probabilities(
                    pair_tt, local_j, amount, coeffs
                )
    return ChoiceProbabilities(matrix=matrix, num_routes=routes.num_routes, menu=menu)
