"""Quadrature averaging, closed-form registry, and entropy."""
import inspect
import math
import warnings

import numpy as np
import pytest

from bqtsim.linalg import hermitian_eigenvalues, kron, partial_trace
from bqtsim import oracles
from bqtsim import metrics
from bqtsim.metrics import (
    _average_fidelities,
    _closed_forms,
    _entropies,
    _nodes_weights,
    average_fidelity,
    closed_form,
    closed_form_names,
    entanglement_entropy_bob,
    von_neumann_entropy,
)
from bqtsim.protocol import QubitInput, Scenario, _run_rows, distribute

from test_kernel import node_average, one_average, simpson


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------- quadrature


def test_quadrature_nodes_integrate_polynomials():
    x, w = _nodes_weights(16)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(np.sum(w) - 1.0) < 1e-13
    assert abs(np.dot(w, x**3) - 0.25) < 1e-10
    # Every caller shares the cached arrays, so none may write to them.
    assert _nodes_weights(16)[0] is x
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.5


# ------------------------------------------------------ closed forms


def test_closed_form_known_values():
    assert abs(closed_form("g_t_I", 0.5, 0.5).value - 4 / 9) < 1e-14
    assert abs(closed_form("g_t_II", 0.0, 0.0).value - 1.0) < 1e-14
    assert abs(closed_form("f_av_unprot_I", 0.0).value - 1.0) < 1e-14
    assert abs(closed_form("f_av_unprot_I", 1.0).value - 0.25) < 1e-14
    assert abs(closed_form("f_av_unprot_II", 1.0).value - 4 / 9) < 1e-14
    assert abs(closed_form("g_eam_I", 0.5).value - 0.5625) < 1e-14
    assert abs(closed_form("g_eam_II", 0.5).value - 0.390625) < 1e-14


def test_closed_form_registry_surface():
    names = closed_form_names()
    assert set(names) == {
        "g_t_I",
        "g_t_II",
        "g_eam_I",
        "g_eam_II",
        "f_av_unprot_I",
        "f_av_unprot_II",
    }
    for name in names:
        ov = closed_form(name, 0.3, 0.1)
        assert ov.name == name
        assert ov.formula_ref.strip()
    with pytest.raises(ValueError):
        closed_form("no_such_form", 0.2)


def test_g_t_I_keeps_its_digits_near_one():
    """g_t_I against a 50-digit value of (1 - q_w/(2-p))^2 at the same
    doubles: within 1e-15 relative at q_w = p = 1 - 10^-k, k = 1..15, where
    subtracting q_w/(2-p) from 1 lost up to 0.11 of the value, and within
    2e-15 on a seeded uniform grid."""
    mpmath = pytest.importorskip("mpmath")

    def relative_error(p, q):
        with mpmath.workdps(50):
            exact = (1 - mpmath.mpf(q) / (2 - mpmath.mpf(p))) ** 2
            return float(abs(closed_form("g_t_I", p, q).value - exact) / exact)

    for k in range(1, 16):
        p = 1.0 - 10.0**-k
        assert relative_error(p, p) <= 1e-15, k
    rng = np.random.default_rng(2701)
    worst = max(relative_error(float(p), float(q)) for p, q in rng.random((4000, 2)))
    assert worst <= 2e-15


@pytest.mark.parametrize(
    "name, p, q_w, match",
    [
        ("g_t_I", 2.0, 0.5, r"p=2\.0 outside \[0, 1\]"),
        ("f_av_unprot_I", 1.5, 0.0, r"p=1\.5 outside"),
        ("g_t_II", 5.0, 3.0, r"p=5\.0 outside"),
        ("g_t_II", 0.5, 3.0, r"q_w=3\.0 outside"),
        ("g_eam_I", math.nan, 0.0, r"p=nan outside"),
        ("g_t_I", 0.5, -0.1, r"q_w=-0\.1 outside"),
    ],
)
def test_closed_form_rejects_arguments_outside_unit_interval(name, p, q_w, match):
    # Each formula would otherwise divide by zero, leave the real domain,
    # return a number out of [0, 1] or pass a NaN through.
    with pytest.raises(ValueError, match=match):
        closed_form(name, p, q_w)


# The unit interval's edges, the doubles next to them inside it, and the
# tenths between.
UNIT_GRID = (0.0, 1e-12, *(k / 10 for k in range(1, 10)), 1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("name", closed_form_names())
def test_closed_forms_are_the_scalar_view_on_arrays(name):
    """The array view over the grid, p down and q_w across, against one
    scalar call per point: within 1 ulp, since numpy squares a float
    array with one multiply where Python's `** 2` calls libm's pow."""
    grid = np.array(UNIT_GRID)
    got = _closed_forms(name, grid[:, None], grid)
    want = np.array([[closed_form(name, p, q).value for q in UNIT_GRID] for p in UNIT_GRID])
    assert got.shape == want.shape == (len(grid), len(grid))
    np.testing.assert_array_max_ulp(got, want, maxulp=1)


@pytest.mark.parametrize(
    "p, q_w", [(math.nan, 0.5), (-1e-300, 0.5), (1.5, 0.5), (0.5, math.nan), (0.5, 1.0 + 2.0**-52), (2.0, -1.0)]
)
def test_closed_forms_raise_the_scalar_views_range_errors(p, q_w):
    """A p or q_w outside [0, 1], NaN included, alone or among values in
    range, raises the scalar view's ValueError, p's before q_w's."""
    for name in closed_form_names():
        with pytest.raises(ValueError) as scalar:
            closed_form(name, p, q_w)
        for args in ((p, q_w), ([0.0, p, 1.0], q_w), (np.full((2, 1), p), [0.2, q_w, 0.9])):
            with pytest.raises(ValueError) as array:
                _closed_forms(name, *args)
            assert str(array.value) == str(scalar.value)


def test_closed_form_views_look_names_up_in_one_table(monkeypatch):
    """Both views read the one table of forms: an unknown name raises the
    same ValueError from each, a form added to the table is found by both
    and one taken out by neither."""
    errors = []
    for view in (closed_form, _closed_forms):
        with pytest.raises(ValueError, match=r"unknown closed form 'no_such_form', have \(") as raised:
            view("no_such_form", 0.2)
        errors.append(str(raised.value))
    assert errors[0] == errors[1]
    monkeypatch.setitem(metrics._FORMS, "p_plus_q", (lambda p, q: p + q, "p + q"))
    monkeypatch.delitem(metrics._FORMS, "g_eam_I")
    assert closed_form("p_plus_q", 0.25, 0.5).value == 0.75
    assert _closed_forms("p_plus_q", [0.25, 0.5], 0.5).tolist() == [0.75, 1.0]
    for view in (closed_form, _closed_forms):
        with pytest.raises(ValueError, match="unknown closed form 'g_eam_I'"):
            view("g_eam_I", 0.2)


# ------------------------------------------------------ average fidelity


def test_average_fidelity_suppression_grid():
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        for p in (0.0, 0.3, 0.7):
            assert abs(one_average(scenario, p, p, 32) - 1.0) < 1e-9


def test_average_fidelity_unprotected_closed_forms():
    for p in np.linspace(0.0, 1.0, 11):
        p = float(p)
        got = one_average(Scenario.UNPROTECTED_RECOVERY, p, 0.0, 32)
        assert abs(got - closed_form("f_av_unprot_I", p).value) < 1e-6
        got = one_average(Scenario.UNPROTECTED_ALL, p, 0.0, 32)
        assert abs(got - closed_form("f_av_unprot_II", p).value) < 1e-6


def test_average_fidelity_rule_agreement():
    # The 32-node Gauss-Legendre rule against a 200-interval Simpson sum of
    # the same per-node totals.
    gl = one_average(Scenario.RECOVERY_ADC, 0.5, 0.2, 32)
    simp = node_average(Scenario.RECOVERY_ADC, 0.5, 0.2, *simpson(200))
    assert abs(gl - simp) < 1e-8


def test_average_fidelity_quadrature_converged():
    for scenario, q in ((Scenario.ALL_ADC, 0.15), (Scenario.UNPROTECTED_ALL, 0.0)):
        f64 = average_fidelity(scenario, 0.6, q)
        f128 = one_average(scenario, 0.6, q, 128)
        assert abs(f64 - f128) < 1e-8


def test_average_fidelity_unprotected_rejects_weak_measurement():
    for scenario in (Scenario.UNPROTECTED_RECOVERY, Scenario.UNPROTECTED_ALL):
        with pytest.raises(ValueError, match="q_w = 0"):
            average_fidelity(scenario, 0.3, 0.1)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_average_fidelity_factorizes_over_parties(scenario):
    # average_fidelity multiplies the two one-party integrals, which holds
    # only while the two parties factorize. Hold it against the explicit
    # two-party double sum over every (pop_a, pop_b) node pair, so a noise
    # model that couples the parties fails here.
    nodes, weights = _nodes_weights(16)
    pairs = np.array([[a, 0.0, b, 0.0] for a in nodes for b in nodes])
    pair_weights = np.outer(weights, weights).ravel()
    for p in (0.0, 0.4, 1.0):
        qs = sorted({0.0, p, min(p + 0.3, 1.0)}) if scenario.protected else [0.0]
        dist, _ = distribute(scenario, p)
        rows = _run_rows(dist, scenario, np.repeat(qs, len(pairs)), np.tile(pairs, (len(qs), 1)))
        # Each pair's total fidelity as the sum over its owned branches,
        # NaN where every branch is degenerate.
        total = np.where(rows.degenerate.all(axis=1), np.nan, (rows.joint * rows.fidelity).sum(axis=1))
        joint = total.reshape(len(qs), -1) @ pair_weights
        for q, want in zip(qs, joint):
            got = one_average(scenario, p, q, 16)
            if math.isnan(want):
                assert math.isnan(got), f"p={p} q_w={q}"
            else:
                assert abs(got - want) <= 1e-13, f"p={p} q_w={q}"


def test_average_fidelity_takes_one_q_w():
    """The signature is the parameter point alone; a sequence q_w raises
    the function's own error, whatever its length, and a numpy scalar or
    0-d array gives the float's bits."""
    assert list(inspect.signature(average_fidelity).parameters) == ["scenario", "p", "q_w"]
    for q_w in ([0.1], [0.1, 0.2]):
        with pytest.raises(ValueError, match="average_fidelity: q_w must be a single value"):
            average_fidelity(Scenario.ALL_ADC, 0.3, q_w)
    want = average_fidelity(Scenario.ALL_ADC, 0.3, 0.25)
    for q_w in (np.float32(0.25), np.array(0.25)):
        assert average_fidelity(Scenario.ALL_ADC, 0.3, q_w).hex() == want.hex()


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_average_fidelity_matches_oracle_party_integral(scenario):
    """At the same 64 Gauss nodes, the input average equals the square of
    the oracle's one-party integral of sum_k prob_k fidelity_k, which
    shares no code with the kernel, to 1e-14 relative; every q_w of a p
    in one call. The largest error seen is 2.1e-15 (unprotected-all
    p = 0.9); the 16-branch average it replaced missed by 1.27e-5 at
    all-adc p = 0.99, q_w = 1."""
    nodes, weights = _nodes_weights(64)
    for p in np.linspace(0.0, 0.99, 12):
        p = float(p)
        qs = sorted({float(q) for q in np.linspace(0.0, 1.0, 7)} | {p}) if scenario.protected else [0.0]
        got = _average_fidelities(distribute(scenario, p)[0], scenario, qs)[0]
        for q, f_av in zip(qs, got):
            party = oracles._party_prob(scenario, p, nodes) * oracles._party_fidelity(scenario, p, q, nodes)
            want = float(weights @ party.sum(axis=1)) ** 2
            assert abs(f_av - want) <= 1e-14 * want, f"p={p} q_w={q}"


# The last k of q_w = p = 1 - 10^-k at which the input average is finite
# under the per-party rule, which drops a party outcome whose own trace or
# weight is annihilated. The 16-branch rule it replaced, which flagged a
# branch by its product of two party weights, went NaN from k = 7
# (recovery-adc) and k = 4 (all-adc).
PARTY_RULE_FINITE = {Scenario.RECOVERY_ADC: 13, Scenario.ALL_ADC: 6}


def test_average_fidelity_degenerate_corner_is_nan():
    """NaN at p = q_w = 1, where every outcome's weight is exactly 0, in
    both protected scenarios. On the way there, at q_w = p = 1 - 10^-k,
    k = 1..15, the average is finite at least as far as the per-party rule
    keeps it, and within 1e-15 of 1 wherever it is finite."""
    for scenario, finite in PARTY_RULE_FINITE.items():
        assert math.isnan(average_fidelity(scenario, 1.0, 1.0)), scenario.value
        for k in range(1, 16):
            p = 1.0 - 10.0**-k
            f_av = average_fidelity(scenario, p, p)
            if k <= finite:
                assert math.isfinite(f_av), f"{scenario.value} k={k}"
            assert math.isnan(f_av) or abs(f_av - 1.0) <= 1e-15, f"{scenario.value} k={k}"


# -------------------------------------------------------------- entropy


def test_von_neumann_entropy_trivials():
    pure = QubitInput(0.3, 0.7).density()
    assert abs(von_neumann_entropy(pure)) < 1e-12
    maximal = np.eye(4, dtype=complex) / 4
    assert abs(von_neumann_entropy(maximal) - 2.0) < 1e-12
    half = np.diag([0.5, 0.5]).astype(complex)
    assert abs(von_neumann_entropy(half) - 1.0) < 1e-12


def test_entropy_bob_boundaries():
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        fresh, _ = distribute(scenario, 0.0)
        assert abs(entanglement_entropy_bob(fresh) - 2.0) < 1e-9
        dead, _ = distribute(scenario, 1.0)
        assert abs(entanglement_entropy_bob(dead)) < 1e-9


def test_entropy_bob_closed_forms_and_ordering():
    for p in np.linspace(0.0, 1.0, 21):
        p = float(p)
        s1 = entanglement_entropy_bob(distribute(Scenario.RECOVERY_ADC, p)[0])
        s2 = entanglement_entropy_bob(distribute(Scenario.ALL_ADC, p)[0])
        assert abs(s1 - 2 * binary_entropy(1 / (2 - p))) < 1e-9
        assert abs(s2 - 2 * binary_entropy(1 / (1 + (1 - p) ** 2))) < 1e-9
        assert s1 >= s2 - 1e-12
        if 0.05 < p < 0.95:
            assert s1 - s2 > 1e-9


def test_entropy_bob_rejects_wrong_dim():
    # It takes the (2, 4, 4) pair stack or one stack of them only, not the
    # 16x16 product, half a pair, a stack of halves or a stack of stacks.
    pairs = distribute(Scenario.RECOVERY_ADC, 0.3)[0]
    halves = pairs[:, :, :2]
    for state in (QubitInput(0.5).density(), np.kron(*pairs), halves, np.stack([halves] * 3), np.stack([[pairs] * 2] * 2)):
        with pytest.raises(ValueError, match=r"expected the \(2, 4, 4\) pair stack"):
            entanglement_entropy_bob(state)


def random_pair_stacks(seed, count):
    """`count` seeded random pair stacks as one (count, 2, 4, 4) stack: each
    pair a density matrix of rank 1 to 4, so Bob's qubits have nonzero
    off-diagonals, unlike those of every state `distribute` returns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, 2, 4, 4)) + 1j * rng.normal(size=(count, 2, 4, 4))
    x *= np.arange(4) < rng.integers(1, 5, size=(count, 2, 1, 1))
    rho = x @ x.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def entropy_bob_by_eigensolver(pairs):
    """Bob's entropy of each state of a (G, 2, 4, 4) stack from the LAPACK
    eigenvalues of his two qubits (`hermitian_eigenvalues`)."""
    qubits = pairs.reshape(-1, 2, 2, 2, 2, 2).trace(axis1=2, axis2=4)
    return _entropies(hermitian_eigenvalues(qubits).reshape(-1, 4))


# p of every kind `distribute` takes: a fine grid, the doubles approaching 1
# and subnormals.
ENTROPY_PS = [float(p) for p in np.linspace(0.0, 1.0, 2001)] + [1.0 - 10.0**-k for k in range(1, 16)]
ENTROPY_PS += [5e-324, 1e-310, 2.0**-1022 - 5e-324]


def test_entropy_bob_of_a_stack_has_the_bits_of_one_call_per_state():
    # A (G, 2, 4, 4) stack gives each state's entropy as one call on it alone
    # does, bit for bit, at p = 0 and p = 1 too, where eigenvalues are zero,
    # and on states whose qubits have off-diagonals to take into account.
    ps = [float(p) for p in np.linspace(0.0, 1.0, 101)] + [1.0 - 10.0**-k for k in range(1, 16)]
    stacks = [np.stack([distribute(scenario, p)[0] for p in ps]) for scenario in Scenario]
    for states in stacks + [random_pair_stacks(seed, 200) for seed in range(3)]:
        got = entanglement_entropy_bob(states)
        assert got.dtype == np.float64 and got.shape == (len(states),)
        one = np.array([entanglement_entropy_bob(state) for state in states])
        assert got.tobytes() == one.tobytes()
        assert isinstance(entanglement_entropy_bob(states[0]), float)


def test_entropy_bob_closed_form_matches_the_eigensolver():
    # The closed-form eigenvalues give the eigensolver's entropy within
    # 1e-14 on states with off-diagonals, and its bits on every state
    # `distribute` returns, where Bob's qubits are diagonal.
    for seed in range(10):
        states = random_pair_stacks(100 + seed, 200)
        assert np.abs(entanglement_entropy_bob(states) - entropy_bob_by_eigensolver(states)).max() <= 1e-14
    for scenario in Scenario:
        states, _ = distribute(scenario, ENTROPY_PS)
        want = entropy_bob_by_eigensolver(states).tobytes()
        assert entanglement_entropy_bob(states).tobytes() == want, scenario.value
        assert np.array([entanglement_entropy_bob(state) for state in states]).tobytes() == want, scenario.value


# One bad entry of one of Bob's qubits, as the (pair, row, column) entry of
# the pair stack it is traced from, the value added there and the error.
ENTROPY_FAULTS = {
    "nan": ((0, 0, 0), math.nan, "expects finite entries"),
    "+inf": ((1, 2, 2), math.inf, "expects finite entries"),
    "-inf": ((0, 1, 1), -math.inf, "expects finite entries"),
    "nan off-diagonal": ((1, 2, 3), complex(0.0, math.nan), "expects finite entries"),
    "off-Hermitian above": ((0, 0, 1), 2e-10, "not Hermitian within 1e-10"),
    "off-Hermitian below": ((1, 3, 2), -2e-10j, "not Hermitian within 1e-10"),
    "imaginary top": ((1, 2, 2), 1e-9j, "not Hermitian within 1e-10"),
    "imaginary bottom": ((0, 1, 1), -1e-9j, "not Hermitian within 1e-10"),
}


@pytest.mark.parametrize("fault", ENTROPY_FAULTS)
def test_entropy_bob_refuses_what_hermitian_eigenvalues_refuses(fault):
    # A non-finite entry or one off Hermitian by more than 1e-10 gives
    # `hermitian_eigenvalues`' error, with no warning first, in a lone state
    # and as one bad state of a stack.
    where, value, message = ENTROPY_FAULTS[fault]
    states = distribute(Scenario.ALL_ADC, [0.2, 0.5, 0.8])[0]
    states[(1, *where)] += value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (states[1], states):
            with pytest.raises(ValueError, match=message):
                entanglement_entropy_bob(bad)


# Non-finite entries of the pair stack that the trace would add into one
# entry of Bob's qubit, with a warning, or would drop: (pair, row, column)
# entries and the values set there.
ENTROPY_UNTRACED_FAULTS = {
    "inf and -inf summed": {(0, 0, 0): math.inf, (0, 2, 2): -math.inf},
    "nan traced out": {(0, 0, 2): math.nan},
}


@pytest.mark.parametrize("fault", ENTROPY_UNTRACED_FAULTS)
def test_entropy_bob_refuses_non_finite_entries_before_the_trace(fault):
    # Any NaN or infinite entry of the pair stack is refused before the
    # trace, with no warning first, in a lone state and as the middle state
    # of a stack.
    states = distribute(Scenario.ALL_ADC, [0.2, 0.4, 0.8])[0]
    for where, value in ENTROPY_UNTRACED_FAULTS[fault].items():
        states[(1, *where)] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (states[1], states):
            with pytest.raises(ValueError, match="expects finite entries"):
                entanglement_entropy_bob(bad)


def test_entropy_bob_refuses_an_overflowing_trace_without_a_warning():
    # Finite entries that the trace sums past the largest double give Bob
    # an infinite qubit, refused with no overflow warning first, in a lone
    # state and as the middle state of a stack.
    states = distribute(Scenario.ALL_ADC, [0.2, 0.4, 0.8])[0]
    states[1, 0, 0, 0] = states[1, 0, 2, 2] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (states[1], states):
            with pytest.raises(ValueError, match="expects finite entries"):
                entanglement_entropy_bob(bad)


def test_entropy_bob_takes_a_deviation_of_exactly_1e_10():
    # Bob's off-diagonals are exactly 0 on `distribute`'s states, so adding
    # 1e-10 above the diagonal puts his qubit exactly 1e-10 off Hermitian.
    states = distribute(Scenario.RECOVERY_ADC, [0.3, 0.6])[0]
    states[1, 0, 0, 1] += 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = entanglement_entropy_bob(states)
        assert entanglement_entropy_bob(states[1]) == got[1]
    assert np.abs(got - entropy_bob_by_eigensolver(states)).max() <= 1e-14


def test_entropy_bob_traces_the_kept_pair():
    # The sum of the two pairs' entropies must be that of the two
    # receiver-side qubits of the 16x16 product; tracing the complementary
    # qubits of a fresh channel gives the same value, but a mixed partner
    # split does not.
    pairs, _ = distribute(Scenario.RECOVERY_ADC, 0.4)
    dist = np.kron(*pairs)
    kept = partial_trace(dist, [1, 3])
    assert abs(von_neumann_entropy(kept) - entanglement_entropy_bob(pairs)) < 1e-12
    same_pair = partial_trace(dist, [0, 2])
    assert abs(von_neumann_entropy(same_pair) - entanglement_entropy_bob(pairs)) < 1e-9


def two_outcome_entropy(x, y):
    """-x log2 x - y log2 y, 0 log 0 taken as 0, of a two-outcome
    distribution whose parts are both given, so that neither loses its
    digits to a 1 - x."""
    return -sum(v * math.log2(v) for v in (x, y) if v > 0.0)


def entropy_bob_closed(scenario, p):
    """Bob's entropy in float closed form: 2 h(1/(1+d^2)) when protected, d^2
    = 1-p in situation I and (1-p)^2 in II; 1 + h((1+p)/2) for
    unprotected-recovery and 2 h((1+p)/2) for unprotected-all."""
    if scenario.protected:
        d2 = 1.0 - p if scenario.situation == "I" else (1.0 - p) ** 2
        return 2.0 * two_outcome_entropy(1.0 / (1.0 + d2), d2 / (1.0 + d2))
    damped = two_outcome_entropy((1.0 + p) / 2.0, (1.0 - p) / 2.0)
    return 1.0 + damped if scenario.situation == "I" else 2.0 * damped


@pytest.mark.parametrize("scenario", tuple(Scenario), ids=lambda s: s.value)
def test_entropy_bob_matches_closed_forms_to_1e_14(scenario):
    # Absolute, since the entropy goes to 0 as p -> 1 in the protected
    # scenarios; near p = 1 an eigenvalue of each qubit is tiny, and
    # dropping those below 1e-12 errs by up to 8.0e-11 (recovery-adc,
    # p = 1 - 1e-12).
    ps = [1.0 - 10.0**-k for k in range(1, 16)] + [float(p) for p in np.linspace(0.0, 1.0, 101)]
    for p in ps:
        got = entanglement_entropy_bob(distribute(scenario, p)[0])
        assert abs(got - entropy_bob_closed(scenario, p)) <= 1e-14, f"p={p!r}"
