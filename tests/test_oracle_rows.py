"""The pipeline's row stacks against the closed-form row functions in
bqtsim.oracles, every branch quantity at once, over hypothesis draws of
(scenario, p, q_w, input rows) biased to the edges of the domain: p, q_w
and the populations at 0 and 1, q_w = p, and p, q_w within 1e-8 of the
corner p = q_w = 1, where protected branches die."""
import math

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bqtsim import oracles
from bqtsim.channels import DEGENERATE_TOL
from bqtsim.linalg import EIG_CLAMP
from bqtsim.protocol import Scenario, _run_rows, distribute

TOL = 1e-12

UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1.0 - 1e-8, 1.0))
POP = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def points(draw):
    scenario = draw(st.sampled_from(tuple(Scenario)))
    p = draw(UNIT)
    q_w = draw(st.one_of(st.just(p), UNIT)) if scenario.protected else 0.0
    rows = draw(st.lists(st.tuples(POP, PHASE, POP, PHASE), min_size=1, max_size=4))
    return scenario, p, q_w, np.array(rows)


# The edge corners, kept whatever the draws below reach.
CORNERS = [
    (Scenario.UNPROTECTED_ALL, 1.0, 0.0, [[0.0, 0.0, 1e-12, 0.0], [1e-12, 0.0, 0.0, 0.0]]),
    (Scenario.RECOVERY_ADC, 1.0, 1.0, [[0.0, 0.0, 1.0, 0.0], [0.3, 1.0, 0.7, 2.0]]),
    (Scenario.ALL_ADC, 1.0, 1.0, [[0.0, 0.0, 1.0, 0.0], [0.3, 1.0, 0.7, 2.0]]),
    (Scenario.RECOVERY_ADC, 1.0 - 1e-9, 1.0, [[0.0, 0.0, 1.0, 0.0], [0.3, 1.0, 0.7, 2.0]]),
    (Scenario.ALL_ADC, 1.0 - 1e-9, 1.0, [[0.0, 0.0, 1.0, 0.0], [0.3, 1.0, 0.7, 2.0]]),
    (Scenario.ALL_ADC, 0.37, 0.37, [[0.2, 0.5, 0.9, 4.0]]),
    (Scenario.UNPROTECTED_RECOVERY, 0.0, 0.0, [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
    (Scenario.RECOVERY_ADC, 0.0, 0.0, [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
]


def with_corners(test):
    for scenario, p, q_w, rows in CORNERS:
        test = example((scenario, p, q_w, np.array(rows)))(test)
    return test


# A fixed seed keeps the same draws when this test's source is edited,
# which derandomize=True, seeding from that source, would not.
@seed(20261018)
@settings(database=None, deadline=None, max_examples=150)
@with_corners
@given(points())
def test_row_stack_matches_closed_form_rows(point):
    scenario, p, q_w, rows = point
    dist, _ = distribute(scenario, p)
    got = _run_rows(dist, scenario, [q_w] * len(rows), rows)
    joint = oracles.joint_prob_rows(scenario, p, rows)
    success = oracles.branch_success_rows(scenario, p, q_w, rows)
    fidelity = oracles.branch_fidelity_rows(scenario, p, q_w, rows)
    recovered = oracles.recovered_rows(scenario, p, rows)
    corrected = oracles.corrected_rows(scenario, p, q_w, rows)

    np.testing.assert_array_less(np.abs(got.joint.sum(axis=1) - 1.0), TOL)
    np.testing.assert_array_less(np.abs(got.joint - joint), TOL)
    np.testing.assert_array_less(np.abs(got.recovered - recovered), TOL)

    # The pipeline's degenerate rule, applied to the closed forms, away
    # from a thin band around the threshold where rounding may decide.
    dead = (joint <= DEGENERATE_TOL) | (success < DEGENERATE_TOL)
    clear = np.minimum(np.abs(joint - DEGENERATE_TOL), np.abs(success - DEGENERATE_TOL)) > 1e-15
    np.testing.assert_array_equal(got.degenerate[clear], dead[clear])
    assert (got.weight[got.degenerate] == 0.0).all()
    assert (success[got.degenerate] < DEGENERATE_TOL + TOL).all()

    live = ~got.degenerate
    np.testing.assert_array_less(np.abs(got.weight - success)[live], TOL)
    np.testing.assert_array_less(np.abs(got.fidelity - fidelity)[live], TOL)
    np.testing.assert_array_less(np.abs(got.corrected - corrected)[live], TOL)

    # Every live corrected state is a density matrix, at the tolerances of
    # linalg.assert_density, and no branch keeps more than its weight.
    states = got.corrected[live]
    adjoint = states.conj().swapaxes(-1, -2)
    trace = np.trace(states, axis1=-2, axis2=-1)
    lowest = np.linalg.eigvalsh(0.5 * (states + adjoint))[..., 0]
    assert (np.abs(states - adjoint) <= TOL).all()
    assert ((np.abs(trace.real - 1.0) <= TOL) & (np.abs(trace.imag) <= TOL)).all()
    assert (lowest >= -EIG_CLAMP).all()
    assert ((got.weight >= 0.0) & (got.weight <= got.joint + 1e-14)).all()
