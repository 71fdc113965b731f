"""Two relations the protocol obeys whatever its inputs, pinned without
oracles or closed forms, over hypothesis draws that reach the edges p,
q_w, pop0 in {0, 1}, q_w = p and p, q_w within 1e-8 of 1, in all four
scenarios:

- swapping Alice's and Bob's inputs maps branch (i, j) to (j, i) and
  keeps every total bit for bit;
- adding a phase to either input keeps every total and every branch
  fidelity, since amplitude damping, the weak measurement and the Pauli
  corrections all commute with Z rotations.

Both hold for `run_protocol`, and for `_run_rows` with `_row_totals`,
the totals-only entry that a `--pop0` sweep reads. The input average has
no input rows to swap or turn."""
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bqtsim.protocol import QubitInput, Scenario, _row_totals, _run_rows, distribute, run_protocol

# Branch k = 4(i-1) + (j-1) of the swapped inputs is branch (j, i).
SWAPPED = np.arange(16).reshape(4, 4).T.ravel()
SWAP = np.eye(4)[[0, 2, 1, 3]]
# A phase enters through e^{i phi}, whose rounding the folds' sums carry
# into each value. 20 000 seeded draws reached 7 eps on a total and 4.5 eps
# on a branch fidelity, so 1e-15 is too tight for the totals.
PHASE_TOL = 16 * np.finfo(float).eps

UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1.0 - 1e-8, 1.0))
PHASE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def points(draw):
    scenario = draw(st.sampled_from(tuple(Scenario)))
    p = draw(UNIT)
    q_w = draw(st.one_of(st.just(p), UNIT)) if scenario.protected else 0.0
    rows = draw(st.lists(st.tuples(UNIT, PHASE, UNIT, PHASE), min_size=1, max_size=3))
    return scenario, p, q_w, np.array(rows)


def branch_values(scenario, p, q_w, rows) -> tuple:
    """The rows' (N, 16) joint, weight, fidelity and degenerate arrays, their
    recovered and corrected states, and their three totals from the
    totals-only entry."""
    dist, _ = distribute(scenario, p)
    branches = _run_rows(dist, scenario, q_w, rows)
    (totals,) = _row_totals(dist, scenario, [q_w], rows)
    scalars = (branches.joint, branches.weight, branches.fidelity, branches.degenerate)
    return scalars, (branches.recovered, branches.corrected), totals


def run(scenario, p, q_w, row) -> tuple:
    """run_protocol's branch scalars and totals for one input row."""
    res = run_protocol(scenario, p, q_w, QubitInput(row[0], row[1]), QubitInput(row[2], row[3]))
    branches = [(b.joint_prob, b.success_weight, b.branch_fidelity, b.degenerate) for b in res.branches]
    return branches, (res.total_success, res.total_fidelity, res.postselected_fidelity)


# A fixed seed keeps the same draws when this file's source is edited.
@seed(20261020)
@settings(database=None, deadline=None, max_examples=60)
@given(points())
def test_swapping_the_inputs_swaps_the_branches(point):
    scenario, p, q_w, rows = point
    swapped = rows[:, [2, 3, 0, 1]]
    scalars, states, totals = branch_values(scenario, p, q_w, rows)
    scalars_sw, states_sw, totals_sw = branch_values(scenario, p, q_w, swapped)
    for got, want in zip(scalars_sw, scalars):
        assert got[:, SWAPPED].tobytes() == want.tobytes()
    assert np.array(totals_sw).tobytes() == np.array(totals).tobytes()
    # The states swap their tensor factors too, by rounding only.
    live = ~scalars[3]
    recovered, corrected = (SWAP @ state[:, SWAPPED] @ SWAP for state in states_sw)
    np.testing.assert_allclose(recovered, states[0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(corrected[live], states[1][live], rtol=0, atol=1e-15)

    branches, totals = run(scenario, p, q_w, rows[0])
    branches_sw, totals_sw = run(scenario, p, q_w, swapped[0])
    assert [branches_sw[k] for k in SWAPPED] == branches
    assert np.array(totals_sw).tobytes() == np.array(totals).tobytes()


@seed(20261020)
@settings(database=None, deadline=None, max_examples=60)
@given(points(), st.lists(PHASE, min_size=2, max_size=2))
def test_a_phase_on_either_input_keeps_every_total_and_fidelity(point, shifts):
    scenario, p, q_w, rows = point
    turned = rows + [0.0, shifts[0], 0.0, shifts[1]]
    (_, _, fidelity, degenerate), _, totals = branch_values(scenario, p, q_w, rows)
    (_, _, fidelity_t, degenerate_t), _, totals_t = branch_values(scenario, p, q_w, turned)
    np.testing.assert_array_equal(degenerate_t, degenerate)
    np.testing.assert_allclose(fidelity_t, fidelity, rtol=0, atol=PHASE_TOL)
    for got, want in zip(totals_t, totals):
        np.testing.assert_allclose(got, want, rtol=0, atol=PHASE_TOL)

    branches, totals = run(scenario, p, q_w, rows[0])
    branches_t, totals_t = run(scenario, p, q_w, turned[0])
    assert [b[3] for b in branches_t] == [b[3] for b in branches]
    live = [(b[2], bt[2]) for b, bt in zip(branches, branches_t) if not b[3]]
    np.testing.assert_allclose([bt for _, bt in live], [b for b, _ in live], rtol=0, atol=PHASE_TOL)
    np.testing.assert_allclose(totals_t, totals, rtol=0, atol=PHASE_TOL)
