"""The pipeline's row stacks against the closed-form row functions in
bqtsim.oracles, every branch quantity at once, over hypothesis draws of
(scenario, p, q_w, input rows) biased to the edges of the domain: p, q_w
and the populations at 0 and 1, q_w = p, and p, q_w within 1e-8 of the
corner p = q_w = 1, where protected branches die."""
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bqtsim import oracles
from bqtsim.channels import DEGENERATE_TOL
from bqtsim.linalg import EIG_CLAMP
from bqtsim.protocol import QubitInput, Scenario, _row_totals, _run_rows, distribute, run_protocol

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

    # The pipeline's degenerate rule, applied to each party's closed-form
    # factors away from a thin band around the threshold where rounding
    # may decide: a branch is degenerate when either party's outcome is.
    dead, clear = [], []
    for pop in (rows[:, 0], rows[:, 2]):
        trace, weight = oracles._party_prob(scenario, p, pop), oracles._party_success(scenario, p, q_w, pop)
        dead.append((trace <= DEGENERATE_TOL) | (weight < DEGENERATE_TOL))
        clear.append(np.minimum(np.abs(trace - DEGENERATE_TOL), np.abs(weight - DEGENERATE_TOL)) > 1e-15)
    dead = (dead[0][:, :, None] | dead[1][:, None, :]).reshape(-1, 16)
    clear = (clear[0][:, :, None] & clear[1][:, None, :]).reshape(-1, 16)
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


# Points where some branch's product of party factors falls below
# DEGENERATE_TOL while each party's own factors do not, so a total formed
# branch by branch under the absolute rule drops live weight: an input at
# the edge of one party, the prohibited domain near p = 1, q_w = p near 1,
# and a population next to 1.
PRODUCT_EDGE_POINTS = [
    (Scenario.RECOVERY_ADC, 0.84, 0.999999999, [1e-12, 0.0, 1.0, 3.8188418291147297]),
    (Scenario.ALL_ADC, 0.999, 1.0, [0.02, 0.0, 0.021, 0.0]),
    (Scenario.RECOVERY_ADC, 0.999999999, 0.999999999, [0.357882887243668, 0.0, 0.9929358519280994, 0.0]),
    (Scenario.ALL_ADC, 0.92, 1.0, [0.4208026450610176, 4.185717334418402, 0.999999999, 0.0]),
]


@pytest.mark.parametrize("scenario,p,q_w,row", PRODUCT_EDGE_POINTS, ids=lambda v: getattr(v, "value", None))
def test_totals_match_oracle_branch_sums(scenario, p, q_w, row):
    """run_protocol's and `_row_totals`' totals against the sums of the
    closed-form branches, within 1e-9 relative: the success, the
    joint-weighted fidelity and the success-weighted one, which is NaN
    where the success is at or below DEGENERATE_TOL."""
    rows = np.array([row])
    joint = oracles.joint_prob_rows(scenario, p, rows)[0]
    success = oracles.branch_success_rows(scenario, p, q_w, rows)[0]
    fidelity = oracles.branch_fidelity_rows(scenario, p, q_w, rows)[0]
    live = success > 0.0
    total = success.sum()
    want = (total, joint[live] @ fidelity[live], success[live] @ fidelity[live] / total)
    res = run_protocol(scenario, p, q_w, QubitInput(row[0], row[1]), QubitInput(row[2], row[3]))
    (found,) = _row_totals(distribute(scenario, p)[0], scenario, [q_w], rows)
    for got in ((res.total_success, res.total_fidelity, res.postselected_fidelity), [t[0] for t in found]):
        assert abs(got[0] - want[0]) <= 1e-9 * want[0]
        assert abs(got[1] - want[1]) <= 1e-9 * want[1]
        if total > DEGENERATE_TOL:
            assert abs(got[2] - want[2]) <= 1e-9 * want[2]
        else:
            assert math.isnan(got[2])


# The product edges; a point where four branches' products, 5e-19, sit
# below DEGENERATE_TOL while every party factor is above it: Alice's
# population 1e-12 against Bob's 1 - 1e-9 at recovery-adc, p = 1 - 1e-9;
# and one where the weak pulse annihilates two outcomes of each party, so
# that 12 of the 16 branches are degenerate.
BRANCH_EDGE_POINTS = PRODUCT_EDGE_POINTS + [
    (Scenario.RECOVERY_ADC, 1.0 - 1e-9, 0.0, [1e-12, 0.0, 1.0 - 1e-9, 0.0]),
    (Scenario.RECOVERY_ADC, 0.5, 1.0, [1.0, 0.0, 1.0, 0.0]),
]


@pytest.mark.parametrize("scenario,p,q_w,row", BRANCH_EDGE_POINTS, ids=lambda v: getattr(v, "value", None))
def test_branch_flags_and_values_at_product_edges(scenario, p, q_w, row):
    """run_protocol's and `_run_rows`' branches where branch products
    underflow the tolerance: a branch is degenerate exactly when either
    party's outcome is annihilated by the closed-form party factors, away
    from the rounding band at the threshold, and then has weight exactly
    0; every live branch's joint probability, weight and fidelity is
    within 1e-14 relative of the closed-form rows."""
    rows = np.array([row])
    joint = oracles.joint_prob_rows(scenario, p, rows)[0]
    success = oracles.branch_success_rows(scenario, p, q_w, rows)[0]
    fidelity = oracles.branch_fidelity_rows(scenario, p, q_w, rows)[0]
    dead, clear = [], []
    for pop in (rows[:, 0], rows[:, 2]):
        trace, weight = oracles._party_prob(scenario, p, pop)[0], oracles._party_success(scenario, p, q_w, pop)[0]
        dead.append((trace <= DEGENERATE_TOL) | (weight < DEGENERATE_TOL))
        clear.append(np.minimum(np.abs(trace - DEGENERATE_TOL), np.abs(weight - DEGENERATE_TOL)) > 1e-15)
    dead = (dead[0][:, None] | dead[1][None, :]).ravel()
    clear = (clear[0][:, None] & clear[1][None, :]).ravel()
    res = run_protocol(scenario, p, q_w, QubitInput(row[0], row[1]), QubitInput(row[2], row[3]))
    one = np.array([(b.degenerate, b.joint_prob, b.success_weight, b.branch_fidelity or 0.0) for b in res.branches])
    stack = _run_rows(distribute(scenario, p)[0], scenario, q_w, rows)
    many = np.stack((stack.degenerate[0], stack.joint[0], stack.weight[0], stack.fidelity[0]), axis=1)
    for got in (one, many):
        degenerate, live = got[:, 0] == 1.0, got[:, 0] == 0.0
        np.testing.assert_array_equal(degenerate[clear], dead[clear])
        assert (got[degenerate, 2] == 0.0).all()
        for k, want in ((1, joint), (2, success), (3, fidelity)):
            assert (np.abs(got[live, k] - want[live]) <= 1e-14 * np.abs(want[live])).all(), k


def test_totals_at_p_and_q_w_one_are_nan():
    """At p = q_w = 1 every weight of a protected scenario is exactly 0:
    no success, and both fidelities NaN."""
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        res = run_protocol(scenario, 1.0, 1.0, QubitInput(0.3, 0.4), QubitInput(0.7, 1.1))
        assert res.total_success == 0.0
        assert math.isnan(res.total_fidelity) and math.isnan(res.postselected_fidelity)


# The edges and the doubles next to them.
ROW_PS = (0.0, 1e-12, 0.5, 1.0 - 1e-9, 1.0)


def squares_apart(rng, n: int) -> np.ndarray:
    """n draws of p where a survival amplitude, sqrt(1-p) or 1-p, squared
    by libm's pow (as Python squares one float) and by one multiply (as
    numpy squares an array) rounds apart."""
    ps = rng.random(20000)
    apart = [ps[np.float_power(d, 2) != d * d][:n] for d in (np.sqrt(1.0 - ps), 1.0 - ps)]
    return np.concatenate(apart)


@pytest.mark.parametrize("scenario", tuple(Scenario), ids=lambda s: s.value)
def test_rows_oracles_take_one_p_per_row(scenario):
    """Each `*_rows` oracle given one p per row equals, bit for bit, one
    call per row at that row's p, the rows of every p mixed together: at
    the edges, at p where the two ways of squaring round apart, and at
    seeded draws."""
    rng = np.random.default_rng(3005)
    ps = rng.permutation(np.concatenate([np.repeat(ROW_PS, 4), squares_apart(rng, 8), rng.random(16)]))
    rows = rng.random((len(ps), 4))
    rows[:, 1::2] *= 2.0 * math.pi
    rows[:8, 0::2] = [[0.0, 1.0], [1.0, 0.0], [1e-12, 1.0 - 1e-9], [0.0, 0.0]] * 2
    for q_w in (0.0, 0.3, 1.0 - 1e-9, 1.0) if scenario.protected else (0.0,):
        for oracle, args in (
            (oracles.joint_prob_rows, ()),
            (oracles.recovered_rows, ()),
            (oracles.branch_success_rows, (q_w,)),
            (oracles.branch_fidelity_rows, (q_w,)),
            (oracles.corrected_rows, (q_w,)),
        ):
            whole = oracle(scenario, ps, *args, rows)
            one = np.concatenate([oracle(scenario, p, *args, row[None]) for p, row in zip(ps.tolist(), rows)])
            assert whole.shape == one.shape and whole.tobytes() == one.tobytes(), oracle.__name__

