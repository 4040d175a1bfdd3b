import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowincentives.choice import (
    ChoiceCoefficients,
    IncentiveMenu,
    acceptance_probabilities,
    amount_tally,
    build_choice_matrix,
    offer_column,
)
from flowincentives.errors import InputError
from flowincentives.network import enumerate_routes


def softmax_oracle(utilities):
    weights = [math.exp(u) for u in utilities]
    total = sum(weights)
    return [w / total for w in weights]


def test_worked_example_no_incentive():
    p = acceptance_probabilities([0.2, 0.3], 0, 0.0)
    assert round(p[0], 2) == 0.50 and round(p[1], 2) == 0.50


def test_worked_example_five_dollars_on_first_route():
    p = acceptance_probabilities([0.2, 0.3], 0, 5.0)
    assert round(p[0], 2) == 0.97 and round(p[1], 2) == 0.03


def test_single_route_always_one():
    assert acceptance_probabilities([0.25], 0, 7.0) == pytest.approx([1.0])


def test_two_dollars_on_second_route_matches_utilities():
    # utilities are (-0.086 * 0.2, -0.086 * 0.3 + 0.7 * 2) = (-0.0172, 1.3742)
    p = acceptance_probabilities([0.2, 0.3], 1, 2.0)
    expected = softmax_oracle([-0.0172, 1.3742])
    assert p == pytest.approx(expected, abs=1e-12)
    assert p[1] == pytest.approx(0.8008156511, abs=1e-9)


def test_acceptance_input_errors():
    with pytest.raises(InputError):
        acceptance_probabilities([], 0, 0.0)
    with pytest.raises(InputError):
        acceptance_probabilities([0.2], 1, 0.0)
    with pytest.raises(InputError):
        acceptance_probabilities([0.2, 0.3], 0, -1.0)
    with pytest.raises(InputError):
        acceptance_probabilities([0.2, -0.3], 0, 0.0)


def test_menu_validation():
    with pytest.raises(InputError):
        IncentiveMenu((2.0, 10.0))  # missing the $0 offer
    with pytest.raises(InputError):
        IncentiveMenu((0.0, 5.0, 5.0))
    menu = IncentiveMenu((0.0, 2.0, 10.0))
    assert list(menu.costs) == [0.0, 2.0, 10.0]


def test_coefficient_validation():
    with pytest.raises(InputError):
        ChoiceCoefficients(theta_tt=0.1)
    with pytest.raises(InputError):
        ChoiceCoefficients(theta_inc=-0.7)


def test_build_matrix_worked_example(appendix_c_pipe):
    p = appendix_c_pipe.probabilities.matrix
    expected = np.array(
        [
            [0.50, 0.97, 0.50, 0.03],
            [0.50, 0.03, 0.50, 0.97],
        ]
    )
    assert np.allclose(p, expected, atol=0.005)


def test_build_matrix_zero_menu(appendix_c):
    routes = enumerate_routes(appendix_c.net, appendix_c.od_pairs)
    tt = [r.free_flow_time for r in routes.routes]
    probs = build_choice_matrix(routes, IncentiveMenu((0.0,)), tt)
    base = acceptance_probabilities(tt, 0, 0.0)
    for col in range(probs.matrix.shape[1]):
        assert probs.matrix[:, col] == pytest.approx(list(base), abs=1e-15)


def test_build_matrix_uniform_for_equal_times(parallel_links_net):
    net = parallel_links_net
    routes = enumerate_routes(net, [("a", "b")])
    probs = build_choice_matrix(routes, IncentiveMenu((0.0,)), [0.1, 0.1, 0.1])
    assert probs.matrix[:, 0] == pytest.approx([1 / 3] * 3)


def test_zero_incentive_columns_equal_no_incentive(appendix_c_pipe):
    probs = appendix_c_pipe.probabilities
    base = probs.matrix[:, offer_column(probs.menu, 0, 0)]
    assert probs.matrix[:, offer_column(probs.menu, 1, 0)] == pytest.approx(list(base), abs=1e-15)


def test_monotonicity_in_amount():
    tt = [0.2, 0.3, 0.5]
    amounts = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    for j in range(3):
        previous = None
        for amount in amounts:
            p = acceptance_probabilities(tt, j, amount)
            if previous is not None:
                assert p[j] > previous[j]
                for k in range(3):
                    if k != j:
                        assert p[k] < previous[k]
            previous = p


@settings(max_examples=60, deadline=None)
@given(
    tts=st.lists(st.floats(0.05, 3.0), min_size=2, max_size=4),
    shift=st.floats(-2.0, 2.0),
    amount=st.floats(0.0, 10.0),
)
def test_translation_invariance(tts, shift, amount):
    if min(tts) + shift <= 0:
        shift = -min(tts) + 0.01
    base = acceptance_probabilities(tts, 0, amount)
    shifted = acceptance_probabilities([t + shift for t in tts], 0, amount)
    assert shifted == pytest.approx(list(base), abs=1e-12)


def test_column_stochastic_per_od_block():
    from flowincentives.harness import generate_synthetic, prepare

    pipe = prepare(generate_synthetic(nodes=9, richness=3, drivers=9, seed=11))
    probs = pipe.probabilities
    n_inc = len(probs.menu)
    for od, members in pipe.routes.route_of_od.items():
        members = np.asarray(members)
        for j in members:
            for i in range(n_inc):
                col = probs.matrix[:, j * n_inc + i]
                assert abs(col[members].sum() - 1.0) < 1e-12
                outside = np.delete(col, members)
                assert np.all(outside == 0.0)


def test_column_layout_costs_and_tally_agree():
    from flowincentives.harness import generate_synthetic, prepare

    pipe = prepare(generate_synthetic(nodes=9, richness=3, drivers=9, seed=11))
    probs, menu = pipe.probabilities, pipe.probabilities.menu
    counts = np.arange(probs.matrix.shape[1], dtype=float)
    expected = {amount: 0 for amount in menu.amounts}
    seen = set()
    for j in range(probs.num_routes):
        for i, amount in enumerate(menu.amounts):
            col = offer_column(menu, j, i)
            seen.add(col)
            assert probs.costs[col] == amount
            expected[amount] += int(counts[col])
    assert seen == set(range(probs.matrix.shape[1]))
    tally = amount_tally(menu, counts)
    assert tally == expected and list(tally) == list(menu.amounts)
