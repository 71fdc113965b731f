"""The batched branch kernel behind run_protocol and average_fidelity,
held against the direct 6-qubit path: enumerate_branches on the composed
state, and a per-node loop over it for the input average. The correction
stage is also held against the explicit 4x4 correction operators, a
stack of rows with one q_w each against one run per row, a stack of
distributed states against one call per state, and the degenerate
thresholds at their exact boundaries."""
import math
import re

import numpy as np
import pytest

from bqtsim import metrics, protocol
from bqtsim.channels import DEGENERATE_TOL, DegenerateBranchError
from bqtsim.linalg import assert_density
from bqtsim.metrics import _average_fidelities, _nodes_weights, average_fidelity
from bqtsim.protocol import (
    QubitInput,
    Scenario,
    _correct_branches,
    _input_densities,
    _party_factors,
    _party_integrand,
    _party_totals,
    _references,
    _row_totals,
    _run_rows,
    _weak_pairs,
    apply_correction,
    compose_total,
    correction_ops,
    distribute,
    enumerate_branches,
    run_protocol,
)

BRANCH_TOL = 1e-14
AVERAGE_TOL = 1e-13


def draws(scenario, rng):
    """Edge-biased (p, q_w, alice, bob): p, q_w and both populations at 0
    and 1, q_w = p, plus continuous draws; phases are always random."""
    def inp(pop0):
        return QubitInput(pop0, float(rng.uniform(0.0, 2.0 * math.pi)))

    out = []
    for p in (0.0, 1.0, float(rng.uniform()), float(rng.uniform())):
        qs = (0.0, 1.0, p, float(rng.uniform())) if scenario.protected else (0.0,)
        for q in qs:
            for pa, pb in ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (float(rng.uniform()), 1.0)):
                out.append((p, q, inp(pa), inp(pb)))
    for _ in range(40):
        p = float(rng.uniform())
        q = float(rng.uniform()) if scenario.protected else 0.0
        out.append((p, q, inp(float(rng.uniform())), inp(float(rng.uniform()))))
    return out


def reference_branches(scenario, p, q_w, alice, bob):
    dist, _ = distribute(scenario, p)
    return enumerate_branches(compose_total(alice, dist, bob), scenario, q_w, alice, bob)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_kernel_matches_reference_branches(scenario):
    rng = np.random.default_rng(53 + list(Scenario).index(scenario))
    degenerate_seen = 0
    for p, q, alice, bob in draws(scenario, rng):
        got = run_protocol(scenario, p, q, alice, bob).branches
        want = reference_branches(scenario, p, q, alice, bob)
        # The branch invariants: the trace budget, a success weight within
        # its branch's probability, and valid corrected states.
        assert abs(sum(g.joint_prob for g in got) - 1.0) <= 1e-12, f"{scenario.value} p={p} q_w={q}"
        for g in got:
            assert 0.0 <= g.success_weight <= g.joint_prob + BRANCH_TOL
            if not g.degenerate:
                assert_density(g.corrected)
        for g, w in zip(got, want):
            where = f"{scenario.value} p={p} q_w={q} ({g.alice_index},{g.bob_index})"
            assert (g.alice_index, g.bob_index) == (w.alice_index, w.bob_index)
            assert g.degenerate == w.degenerate, where
            assert abs(g.joint_prob - w.joint_prob) <= BRANCH_TOL, where
            assert abs(g.success_weight - w.success_weight) <= BRANCH_TOL, where
            assert np.max(np.abs(g.recovered - w.recovered)) <= BRANCH_TOL, where
            if w.degenerate:
                degenerate_seen += 1
                assert g.corrected is None and g.branch_fidelity is None
                continue
            assert abs(g.branch_fidelity - w.branch_fidelity) <= BRANCH_TOL, where
            assert np.max(np.abs(g.corrected - w.corrected)) <= BRANCH_TOL, where
    if scenario.protected:
        # q_w = 1 draws must reach the degenerate rule, or it goes untested.
        assert degenerate_seen > 0


def simpson(intervals):
    """Composite Simpson nodes and weights on [0, 1]. Unlike Gauss-Legendre
    nodes they include the edges pop0 = 0 and 1."""
    nodes = np.linspace(0.0, 1.0, intervals + 1)
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return nodes, weights / (3.0 * intervals)


def node_average(scenario, p, q_w, nodes, weights):
    """The input average over any rule's nodes and weights, from the
    per-node total fidelities of one `_row_totals` call at equal inputs,
    where the total fidelity is G^2 for a party's integrand G: the square
    of the integral of its square root is the product of the two
    one-party integrals."""
    rows = np.zeros((len(nodes), 4))
    rows[:, 0] = rows[:, 2] = nodes
    dist, _ = distribute(scenario, p)
    tf = _row_totals(dist, scenario, [q_w], rows)[0][1]
    acc = float(np.dot(weights, np.sqrt(np.maximum(tf, 0.0))))
    return acc * acc


def one_average(scenario, p, q_w, points):
    """The input average at one q_w by the `points`-node Gauss-Legendre
    rule: `average_fidelity` itself at its own 64 nodes."""
    if points == 64:
        return average_fidelity(scenario, p, q_w)
    dist, _ = distribute(scenario, p)
    return _average_fidelities(dist, scenario, (q_w,), points)[0][0]


def reference_average_fidelity(scenario, p, q_w, nodes, weights):
    """The per-node loop over the direct path."""
    dist, _ = distribute(scenario, p)
    acc = 0.0
    for a, w in zip(nodes, weights):
        inp = QubitInput(float(a))
        branches = enumerate_branches(compose_total(inp, dist, inp), scenario, q_w, inp, inp)
        live = [b for b in branches if not b.degenerate]
        if not live:
            return float("nan")
        tf = float(sum(b.joint_prob * b.branch_fidelity for b in live))
        acc += w * math.sqrt(max(tf, 0.0))
    return acc * acc


def averages(scenario, p, q_w, rule, n):
    """The batched input average under `rule` (n nodes, or n Simpson
    intervals) and the per-node loop's over the same nodes and weights.
    Gauss-Legendre is `average_fidelity`'s own rule; a Simpson sum goes
    through `node_average`."""
    if rule == "simpson":
        nodes, weights = simpson(n)
        got = node_average(scenario, p, q_w, nodes, weights)
    else:
        nodes, weights = _nodes_weights(n)
        got = one_average(scenario, p, q_w, n)
    return got, reference_average_fidelity(scenario, p, q_w, nodes, weights)


RULES = [pytest.param(rule, n, id=f"{rule}-{n}") for rule in ("gauss-legendre", "simpson") for n in (8, 64, 128)]


@pytest.mark.parametrize("rule,n", RULES)
def test_average_fidelity_matches_per_node_loop(rule, n):
    points = [
        (Scenario.RECOVERY_ADC, 0.45, 0.2),
        (Scenario.RECOVERY_ADC, 0.7, 1.0),
        (Scenario.ALL_ADC, 0.3, 0.3),
        (Scenario.ALL_ADC, 1.0, 0.6),
        (Scenario.UNPROTECTED_RECOVERY, 0.8, 0.0),
        (Scenario.UNPROTECTED_ALL, 0.0, 0.0),
        (Scenario.UNPROTECTED_ALL, 1.0, 0.0),
    ]
    for scenario, p, q in points:
        got, want = averages(scenario, p, q, rule, n)
        assert abs(got - want) <= AVERAGE_TOL, f"{scenario.value} p={p} q_w={q}"


@pytest.mark.parametrize("rule,n", RULES)
def test_average_fidelity_nan_matches_per_node_loop(rule, n):
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        got, want = averages(scenario, 1.0, 1.0, rule, n)
        assert math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_correction_matches_explicit_operators(scenario):
    """Each corrected branch against M rho M^dag with M built by
    correction_ops, which shares no code with the kernel's Pauli maps.
    Branch (Alice i, Bob j) is corrected by correction_ops(j, i, ...)."""
    rng = np.random.default_rng(71 + list(Scenario).index(scenario))
    degenerate_seen = 0
    for p, q, alice, bob in draws(scenario, rng):
        for b in run_protocol(scenario, p, q, alice, bob).branches:
            where = f"{scenario.value} p={p} q_w={q} ({b.alice_index},{b.bob_index})"
            ops = correction_ops(b.bob_index, b.alice_index, q, scenario.situation)
            if b.degenerate:
                degenerate_seen += 1
                with pytest.raises(DegenerateBranchError):
                    apply_correction(b.recovered, *ops)
                continue
            corrected, weight = apply_correction(b.recovered, *ops)
            assert abs(b.success_weight - weight) <= BRANCH_TOL, where
            assert np.max(np.abs(b.corrected - corrected)) <= BRANCH_TOL, where
    if scenario.protected:
        assert degenerate_seen > 0


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_fidelity_is_trace_against_corrected_state(scenario):
    """Each live branch's fidelity, contracted from the q_w-free forms,
    equals Re tr(reference . corrected) of the owned corrected state,
    computed directly, to 1e-15 relative (exactly, where that is 0)."""
    rng = np.random.default_rng(149 + list(Scenario).index(scenario))
    live = 0
    for p, q, alice, bob in draws(scenario, rng):
        reference = np.kron(alice.density(), bob.density())
        for b in run_protocol(scenario, p, q, alice, bob).branches:
            if b.degenerate:
                continue
            live += 1
            want = np.trace(reference @ b.corrected).real
            assert abs(b.branch_fidelity - want) <= 1e-15 * abs(want), f"{scenario.value} p={p} q_w={q}"
    assert live > 0


def identical(x, y) -> bool:
    """Equal bit for bit, so signed zeros and NaN positions count too."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_row_stack_matches_one_run_per_row(scenario):
    """Every draw's (q_w, inputs) as one row of a stack at each of a few p,
    rows of different q_w mixed, equals run_protocol on that row alone:
    the owned branch arrays, and the totals of the totals-only entry,
    which forms no branch. A float q_w equals that value given once per
    row. The totals-only entry gives a row the same totals at sizes from 1
    to 100 rows and beside other q_w in one call, and later totals-only
    calls leave the stack's arrays as they were. The totals, products of
    two party sums, equal the sums over a row's live owned branches to
    rounding."""
    rng = np.random.default_rng(89 + list(Scenario).index(scenario))
    rows = [(q, alice, bob) for _, q, alice, bob in draws(scenario, rng)]
    degenerate_rows = nan_totals = 0
    for p in (0.0, 1.0, float(rng.uniform()), float(rng.uniform())):
        dist, _ = distribute(scenario, p)
        qs = [q for q, _, _ in rows]
        inputs = np.array([[a.pop0, a.phase, b.pop0, b.phase] for _, a, b in rows])
        stack = _run_rows(dist, scenario, qs, inputs)
        (totals,) = _row_totals(dist, scenario, [qs], inputs)
        for n, (q, alice, bob) in enumerate(rows):
            where = f"{scenario.value} p={p} q_w={q} row {n}"
            want = run_protocol(scenario, p, q, alice, bob)
            got_totals = [float(t[n]) for t in totals]
            assert identical(got_totals, [want.total_success, want.total_fidelity, want.postselected_fidelity]), where
            degenerate_rows += all(b.degenerate for b in want.branches)
            for g, w in zip(stack.outcomes(n), want.branches):
                assert g.degenerate == w.degenerate, where
                assert identical(g.joint_prob, w.joint_prob), where
                assert identical(g.success_weight, w.success_weight), where
                assert identical(g.recovered, w.recovered), where
                if not w.degenerate:
                    assert identical(g.branch_fidelity, w.branch_fidelity), where
                    assert identical(g.corrected, w.corrected), where
        # Each row with a live branch against the sums over its owned
        # branches, whose degenerate ones add 0: the success, the
        # joint-weighted fidelity and, where the success exceeds
        # DEGENERATE_TOL, the success-weighted one.
        some = ~stack.degenerate.all(axis=1)
        joint, weight, fidelity = stack.joint[some], stack.weight[some], stack.fidelity[some]
        success = weight.sum(axis=1)
        big = success > DEGENERATE_TOL
        sums = (success, (joint * fidelity).sum(axis=1), (weight * fidelity).sum(axis=1)[big] / success[big])
        for total, want, rows_in in zip(totals, sums, (some, some, np.flatnonzero(some)[big])):
            np.testing.assert_allclose(total[rows_in], want, rtol=4e-15, atol=0.0, err_msg=f"{scenario.value} p={p}")
        for q in {min(qs), max(qs), qs[-1]}:
            flat, per_row = (_run_rows(dist, scenario, q_w, inputs) for q_w in (q, [q] * len(rows)))
            for name in ("joint", "weight", "corrected", "fidelity", "degenerate"):
                assert identical(getattr(flat, name), getattr(per_row, name)), f"{scenario.value} p={p} q_w={q}"
        owned = {name: getattr(stack, name).tobytes() for name in stack.__dataclass_fields__}
        for size in (1, 100, 7, 64, 2):
            where = f"{scenario.value} p={p} {size} rows"
            # The first `size` rows, cycled where the draws are fewer.
            take = np.arange(size) % len(rows)
            sub_qs, sub_inputs = [qs[k] for k in take], inputs[take]
            (got,) = _row_totals(dist, scenario, [sub_qs], sub_inputs)
            assert all(identical(g, t[take]) for g, t in zip(got, totals)), where
            nan_totals += int(np.isnan(got[1]).sum())
        # Float and per-row entries mixed in one call, all over one fold.
        mixed = [qs, min(qs), qs[::-1], max(qs), [qs[-1]] * len(rows)]
        got = _row_totals(dist, scenario, mixed, inputs)
        assert len(got) == len(mixed)
        for q_w, found in zip(mixed, got):
            (want,) = _row_totals(dist, scenario, [q_w], inputs)
            assert all(identical(g, w) for g, w in zip(found, want)), f"{scenario.value} p={p} mixed"
        _average_fidelities(dist, scenario, [qs[0]])
        for name, data in owned.items():
            assert getattr(stack, name).tobytes() == data, f"{scenario.value} p={p} {name}"
    if scenario.protected:
        # p = q_w = 1 rows are wholly degenerate; their NaN totals must match.
        assert degenerate_rows > 0 and nan_totals > 0


@pytest.mark.parametrize("points", (8, 64), ids=lambda n: f"gauss-legendre-{n}")
def test_multi_qw_average_matches_one_average_per_qw(points):
    rng = np.random.default_rng(97)
    for scenario in Scenario:
        for p in (0.0, 1.0, float(rng.uniform()), float(rng.uniform())):
            if scenario.protected:
                qs = [0.0, 1.0, p, float(rng.uniform()), 0.0]
            else:
                qs = [0.0, 0.0]
            dist, _ = distribute(scenario, p)
            got, g_avs = _average_fidelities(dist, scenario, qs, points)
            want = [one_average(scenario, p, q, points) for q in qs]
            assert identical(got, want), f"{scenario.value} p={p} q_w={qs}"
            want = [_average_fidelities(dist, scenario, [q], points)[1][0] for q in qs]
            assert identical(g_avs, want), f"{scenario.value} p={p} q_w={qs}"
            if scenario.protected and p == 1.0:
                assert math.isnan(got[1]) and not math.isnan(got[0])


def test_multi_qw_totals_build_forms_once_per_fold(monkeypatch):
    """A totals-only call folds its rows and builds their q_w-free forms
    once, however many q_w it corrects at and however many states it
    folds: one state with 100 rows and a stack of three states. A
    totals-only rows call writes its rows' references into the fold's own
    array; an owned call, `_run_rows` or `run_protocol`, takes its rows'
    apart, once, beside its one fold. The input average folds once per
    call, forms no input rows, and forms its node stack and its references
    once per node count in a process, and none on a repeated call, on the
    same state or another: the cached arrays are read-only, and a repeated
    call gives the same bytes."""
    stages = dict.fromkeys(("_fold", "_references", "_row_inputs"), 0)

    def counted(name):
        stage = getattr(protocol, name)

        def count(*args, **kwargs):
            stages[name] += 1
            return stage(*args, **kwargs)

        return count

    for name in stages:
        wrapper = counted(name)
        monkeypatch.setattr(protocol, name, wrapper)
        # `metrics._node_states` forms the input average's stack.
        if hasattr(metrics, name):
            monkeypatch.setattr(metrics, name, wrapper)
    scenario = Scenario.RECOVERY_ADC
    qs = [0.1 * k for k in range(1, 10)]
    rng = np.random.default_rng(151)
    dists = np.stack([distribute(scenario, p)[0] for p in (0.2, 0.5, 0.9)])
    size = 65
    calls = (
        (lambda: _row_totals(dists[0], scenario, qs, rng.random((100, 4))), (1, 0, 1)),
        (lambda: _row_totals(dists, scenario, qs + [rng.random(3 * size)], rng.random((3 * size, 4))), (1, 0, 1)),
        (lambda: _run_rows(dists[0], scenario, qs[0], rng.random((100, 4))), (1, 1, 1)),
        (lambda: run_protocol(scenario, 0.3, 0.2, QubitInput(0.4, 1.0), QubitInput(0.7, 2.0)), (1, 1, 1)),
    )
    for call, counts in calls:
        stages.update(dict.fromkeys(stages, 0))
        call()
        assert tuple(stages.values()) == counts
    metrics._node_states.cache_clear()
    averages = (
        (lambda: _average_fidelities(dists[1], scenario, qs), (1, 1, 0)),
        (lambda: _average_fidelities(dists, scenario, qs, 32), (1, 1, 0)),
        # Another state and node count already cached: nothing is formed.
        (lambda: _average_fidelities(dists, scenario, qs[:2]), (1, 0, 0)),
    )
    for call, counts in averages:
        stages.update(dict.fromkeys(stages, 0))
        first = call()
        assert tuple(stages.values()) == counts
        stages.update(dict.fromkeys(stages, 0))
        assert np.array(call()).tobytes() == np.array(first).tobytes()
        assert tuple(stages.values()) == (1, 0, 0)
    assert metrics._node_states.cache_info().currsize == 2
    for inputs in (metrics._node_states(64), metrics._node_states(32)):
        for array in inputs:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
    assert metrics._node_states.cache_info().currsize == 2


BRANCH_FIELDS = ("recovered", "joint", "weight", "corrected", "fidelity", "degenerate")


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_state_stack_matches_one_call_per_state(scenario):
    """G states at p in {0, 1, two draws}, folded together with their rows
    in G equal contiguous groups, equal one call per state by bytes: the
    owned arrays, the totals-only entry with float and per-row q_w mixed,
    at groups of one row, 43 rows and 133 rows, and the input average's
    f_av and g with one q_w for every state or one per state, also with
    one state and one q_w; q_w = 1 at p = 1 gives wholly degenerate NaN
    rows. The averaged g is the success at any input: it equals
    `_row_totals`' success at seeded rows with no annihilated outcome
    within 1e-15 relative."""
    rng = np.random.default_rng(131 + list(Scenario).index(scenario))
    ps = [0.0, 1.0, float(rng.uniform()), float(rng.uniform())]
    dists = np.stack([distribute(scenario, p)[0] for p in ps])
    groups = len(ps)
    nan_rows = 0
    for size in (1, 43, 133):
        n = groups * size
        rows = rng.random((n, 4))
        rows[::3, 0::2] = 1.0
        rows[:, 1::2] *= 2.0 * math.pi
        row_qs = rng.random(n) if scenario.protected else np.zeros(n)
        if scenario.protected:
            row_qs[::2] = 1.0
        # The groups of any array with one entry per row, one per state.
        part = lambda values, g: values if np.ndim(values) == 0 else values[g * size : (g + 1) * size]
        where = f"{scenario.value} {groups}x{size} rows"
        owned = _run_rows(dists, scenario, row_qs, rows)
        alone = [_run_rows(dists[g], scenario, part(row_qs, g), part(rows, g)) for g in range(groups)]
        for name in BRANCH_FIELDS:
            want = np.concatenate([getattr(one, name) for one in alone])
            assert identical(getattr(owned, name), want), f"{where} {name}"
        snapshot = {name: getattr(owned, name).tobytes() for name in BRANCH_FIELDS}
        mixed = [row_qs, 1.0 if scenario.protected else 0.0, row_qs[::-1], 0.0]
        got = _row_totals(dists, scenario, mixed, rows)
        alone = [_row_totals(dists[g], scenario, [part(q, g) for q in mixed], part(rows, g)) for g in range(groups)]
        assert len(got) == len(mixed)
        for j, totals in enumerate(got):
            for t, total in enumerate(totals):
                assert identical(total, np.concatenate([one[j][t] for one in alone])), f"{where} q_w entry {j}"
            nan_rows += int(np.isnan(totals[1]).sum())
        # A stacked totals-only call leaves an earlier owned result alone.
        for name, data in snapshot.items():
            assert getattr(owned, name).tobytes() == data, f"{where} {name}"
        with pytest.raises(ValueError, match=f"{n - 1} input rows do not split into {groups} equal groups"):
            _run_rows(dists, scenario, 0.0, rows[1:])
        with pytest.raises(ValueError, match=f"{n + 1} input rows do not split into {groups} equal groups"):
            _row_totals(dists, scenario, [0.0], np.vstack((rows, rows[:1])))
    rows = rng.random((6, 4))
    rows[:, 1::2] *= 2.0 * math.pi
    qs = [0.0, 1.0, ps] if scenario.protected else [0.0, [0.0] * groups]
    live = 0
    for points in (8, 32):
        got = _average_fidelities(dists, scenario, qs, points)
        for g, p in enumerate(ps):
            where = f"{scenario.value} p={p} {points} nodes"
            own_qs = [q if np.ndim(q) == 0 else q[g] for q in qs]
            own = _average_fidelities(dists[g], scenario, own_qs, points)
            for averages, mine in zip(got, own):
                assert identical([values[g] for values in averages], mine), where
            for j, q_w in enumerate(own_qs):
                # One state and one q_w, as a fixed-q_w sweep averages them.
                lone = _average_fidelities(dists[g], scenario, [q_w], points)
                assert identical(lone, ([own[0][j]], [own[1][j]])), f"{where} q_w entry {j}"
                ((success, _, _),) = _row_totals(dists[g], scenario, [q_w], rows)
                dead = _run_rows(dists[g], scenario, q_w, rows).degenerate.any(axis=1)
                error = np.abs(own[1][j] - success[~dead])
                assert (error <= 1e-15 * success[~dead]).all(), f"{where} q_w entry {j}"
                live += int((~dead).sum())
        if scenario.protected:
            # p = q_w = 1 has no live branch at any node, and every weight is 0.
            assert math.isnan(got[0][1][1]) and not math.isnan(got[0][0][1])
            assert got[1][1][1] == 0.0
    assert live > 0
    if scenario.protected:
        assert nan_rows > 0


def test_row_stack_rejects_bad_qw():
    inp = [0.3, 0.2, 0.6, 1.0]
    for scenario in (Scenario.UNPROTECTED_RECOVERY, Scenario.UNPROTECTED_ALL):
        dist, _ = distribute(scenario, 0.4)
        with pytest.raises(ValueError, match="unprotected scenarios require q_w = 0"):
            _run_rows(dist, scenario, [0.0, 0.2, 0.0], [inp] * 3)
        with pytest.raises(ValueError, match="unprotected scenarios require q_w = 0"):
            _average_fidelities(dist, scenario, [0.0, 0.1])
        for bad in (0.2, float("nan")):
            with pytest.raises(ValueError, match="unprotected scenarios require q_w = 0"):
                _run_rows(dist, scenario, bad, [inp] * 3)
            # A bad entry after good ones in one totals-only call.
            with pytest.raises(ValueError, match="unprotected scenarios require q_w = 0"):
                _row_totals(dist, scenario, [0.0, [0.0] * 3, bad], [inp] * 3)
    for scenario in (Scenario.RECOVERY_ADC, Scenario.ALL_ADC):
        dist, _ = distribute(scenario, 0.4)
        for bad in (1.5, -0.1, float("nan")):
            message = re.escape(f"weak measurement strength q_w={bad!r} outside [0, 1]")
            with pytest.raises(ValueError, match=message):
                _run_rows(dist, scenario, [0.2, bad], [inp] * 2)
            with pytest.raises(ValueError, match=message):
                _average_fidelities(dist, scenario, [0.2, bad])
            with pytest.raises(ValueError, match=message):
                _row_totals(dist, scenario, [0.2, [0.3, 0.4], [0.2, bad]], [inp] * 2)
            # One float q_w for every row.
            with pytest.raises(ValueError, match=message):
                _run_rows(dist, scenario, bad, [inp] * 2)
            with pytest.raises(ValueError, match=message):
                average_fidelity(scenario, 0.4, bad)
        # Of several bad values, the least is reported, NaN counting last.
        for qs, least in (([1.5, 0.2, -0.1], -0.1), ([float("nan"), 1.5], 1.5)):
            with pytest.raises(ValueError, match=re.escape(f"q_w={least!r} outside")):
                _run_rows(dist, scenario, qs, [inp] * len(qs))
        # A sequence must give one q_w per input row; it is never broadcast.
        for qs in ([0.1, 0.2, 0.3], [0.1]):
            with pytest.raises(ValueError, match=f"{len(qs)} q_w values for 2 input rows"):
                _run_rows(dist, scenario, qs, [inp] * 2)


# One q_w of every edge and type: the doubles at and next to 0 and 1 on
# both sides, the non-finite values, and a numpy and two int scalars.
ODD_QS = (0.0, -0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, -1e-300,
          math.nan, math.inf, -math.inf, np.float64(0.3), 0, 1)


def outcome(fn, *args):
    """fn(*args) as bytes, or the type and message of what it raises."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def test_weak_diagonals_fast_check_matches_full_path(monkeypatch):
    """A single q_w gives the bits or the error of the same value as a
    one-row sequence, which takes the ordered checks. A valid one skips
    them: check_q_w, the first of them, is never consulted for it."""
    consulted = []
    full_check = Scenario.check_q_w

    def spy(self, q_w):
        consulted.append(q_w)
        full_check(self, q_w)

    monkeypatch.setattr(Scenario, "check_q_w", spy)
    for scenario in Scenario:
        for q in ODD_QS + (0.4,):
            want = outcome(_weak_pairs, [q], scenario, 1)
            consulted.clear()
            got = outcome(_weak_pairs, q, scenario, 1)
            assert got == want, f"{scenario.value} q_w={q!r}"
            if isinstance(got, bytes):
                assert not consulted, f"{scenario.value} q_w={q!r} took the ordered checks"


def test_input_densities_broadcast_row_by_row():
    """Scalars, (N,) populations with one phase, and (2, N) with (2, N):
    the broadcast shape, and each entry's state the bytes of the scalar
    call for it."""
    rng = np.random.default_rng(13)
    pops = np.concatenate(([0.0, 1.0, 1e-12], rng.random(5)))
    phases = np.concatenate(([0.0, math.pi, -2.5], rng.random(5) * 2.0 * math.pi))
    assert _input_densities(0.3, 1.1).shape == (2, 2)
    cases = ((pops, 0.7), (np.stack((pops, pops[::-1])), np.stack((phases, phases[::-1]))))
    for pop0, phase in cases:
        got = _input_densities(pop0, phase)
        shape = np.broadcast_shapes(np.shape(pop0), np.shape(phase))
        assert got.shape == shape + (2, 2)
        pop0, phase = np.broadcast_to(pop0, shape), np.broadcast_to(phase, shape)
        for idx in np.ndindex(shape):
            want = _input_densities(float(pop0[idx]), float(phase[idx]))
            assert got[idx].tobytes() == want.tobytes(), idx


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_packed_fold_matches_explicit_contraction(scenario):
    """The fold's packed (X00, X11, Re X10, Im X10) of each party's outcome
    states, against the explicit contraction in `_fold_maps`' docstring,
    and each party's weight and fidelity numerator at a random weak pair
    D_a D_b of each row with D1 = 1, as every weak operator has it, against
    sum_a D_a^2 X[a, a] and sum_ab D_a D_b Re(X[a, b] R'[b, a]) with R' =
    U_k^dag rho U_k, all within 1e-15: random inputs, seven rows over each
    of six distributed states. The explicit states are Hermitian, so X01
    is conj(X10), as the packing assumes. The fold that takes the
    references along gives the same states, bit for bit, and the same
    references as their own product; with `classes`, both folds give
    outcomes 1 and 3 of those states and references, bit for bit."""
    rng = np.random.default_rng(271)
    ps = [0.0, 1.0, *rng.random(4).tolist()]
    dists, m = distribute(scenario, ps)[0], 7
    n = len(ps) * m
    rho = _input_densities(rng.random((2, n)), rng.random((2, n)) * 2.0 * math.pi)
    grouped = rho.reshape(2, len(ps), m, 2, 2)
    diagonals = np.stack((rng.random(n), np.ones(n)), axis=1)
    packed, reference = protocol._fold(dists, grouped, references=True)
    np.testing.assert_array_equal(packed, protocol._fold(dists, grouped))
    np.testing.assert_array_equal(reference, _references(grouped))
    for got in (protocol._fold(dists, grouped, classes=True, references=True),
                (protocol._fold(dists, grouped, classes=True), _references(grouped, classes=True))):
        for part, whole in zip(got, (packed, reference), strict=True):
            assert part.tobytes() == whole[:, :, [0, 2]].tobytes()
    pair = (diagonals[:, :, None] * diagonals[:, None, :]).reshape(n, 4)
    weights, numerators = _party_factors(packed, reference, pair)
    bells = protocol._BELL_KETS.reshape(4, 2, 2)
    # Each row's pair stack, and its pairs with both qubits' indices split.
    pairs = np.repeat(dists, m, axis=0).reshape(n, 2, 2, 2, 2, 2)
    states = (
        np.einsum("rxX,ixy,iXY,rymYM->rimM", rho[0], bells.conj(), bells, pairs[:, 0]),
        np.einsum("rzZ,jwz,jWZ,rnwNW->rjnN", rho[1], bells.conj(), bells, pairs[:, 1]),
    )
    unitaries = protocol._CORR_UNITARIES
    for party, x in enumerate(states):
        assert np.abs(x - x.conj().swapaxes(-1, -2)).max() <= 1e-15
        want = np.stack((x[..., 0, 0].real, x[..., 1, 1].real, x[..., 1, 0].real, x[..., 1, 0].imag), axis=-1)
        assert np.abs(packed[party] - want).max() <= 1e-15
        ref = np.einsum("kba,rbc,kcd->rkad", unitaries.conj(), rho[party], unitaries)
        scale = diagonals[:, None, :, None] * diagonals[:, None, None, :]
        weight = np.einsum("rkaa->rk", scale * x).real
        numerator = np.einsum("rkab,rkba->rk", scale * x, ref).real
        assert np.abs(weights[party] - weight).max() <= 1e-15
        assert np.abs(numerators[party] - numerator).max() <= 1e-15


def test_state_map_unpacks_and_turns_each_outcome():
    """`_correct_branches`' map on a party's packed reals (X00, X11, Re X10,
    Im X10) of each outcome k gives X's entries and U_k X U_k^dag exactly,
    U_k from `_CORR_UNITARIES` and the product written out in 2x2; scaled
    by a weak pair through `_STATE_SCALE`, the unturned half takes D1^2 and
    each turned entry the pair entry D_a D_b of its source, so the turned
    half is U_k (X * D) U_k^dag. Seeded random Hermitian states, a different
    one per outcome and row, with exact-zero diagonals, real and imaginary
    parts and whole states among them; the pair's four entries are drawn
    apart, so no index can stand in for another."""
    rng = np.random.default_rng(4099)
    n = 24
    diagonal = rng.standard_normal((n, 4, 2))
    off = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    diagonal[:6, :, 0] = 0.0
    diagonal[3:9, :, 1] = 0.0
    off.real[6:12] = 0.0
    off.imag[9:15] = 0.0
    diagonal[-1], off[-1] = 0.0, 0.0
    x = np.zeros((n, 4, 2, 2), dtype=complex)
    x[..., 0, 0], x[..., 1, 1] = diagonal[..., 0], diagonal[..., 1]
    x[..., 1, 0], x[..., 0, 1] = off, off.conj()
    packed = np.stack((diagonal[..., 0], diagonal[..., 1], off.real, off.imag), axis=-1).reshape(n, 16)
    pair = rng.random((n, 4)) + 0.5
    reals = packed @ protocol._STATE_MAP
    states = reals.view(complex).reshape(n, 2, 4, 2, 2)
    scaled = (reals * pair.take(protocol._STATE_SCALE, axis=1)).view(complex).reshape(n, 2, 4, 2, 2)
    np.testing.assert_array_equal(states[:, 0], x)
    np.testing.assert_array_equal(scaled[:, 0], x * pair[:, None, None, None, 3])
    for k, u in enumerate(protocol._CORR_UNITARIES):
        np.testing.assert_array_equal(states[:, 1, k], u @ x[:, k] @ u.conj().T)
        np.testing.assert_array_equal(scaled[:, 1, k], u @ (x[:, k] * pair.reshape(n, 2, 2)) @ u.conj().T)


# Every p the mirror is pinned at: a 2001-point grid, 1 - 10^-k for k =
# 1..16, and two tiny p, one of them subnormal.
MIRROR_PS = [*np.linspace(0.0, 1.0, 2001).tolist(), *(1.0 - 10.0**-k for k in range(1, 17)), 5e-324, 1e-300]


def bob_fold_table() -> np.ndarray:
    """Bob's packed fold map as a (16, 32) table from his flattened pair
    rho_34, built from the Bell signs by the contraction K_B[z z', j n n'] =
    sum_{w w'} B_j[w, z]^* B_j[w', z'] rho_34[n w, n' w'], packed as
    `protocol._FOLD_TABLE` packs Alice's."""
    eye, tables = np.eye(2, dtype=int), protocol._BELL_SIGNS.reshape(4, 2, 2)
    bob = np.einsum("jwz,jWZ,nk,NK->kwKWzZjnN", tables, tables, eye, eye).reshape(16, 4, 4, 4) * 0.5
    return protocol._packed(bob).reshape(16, 32)


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_bob_fold_map_is_alices_on_distributed_states(scenario):
    """The fact the kernel's one fold map rests on: every state `distribute`
    returns, from a stack of p or one p at a time, has rho_34 = SWAP rho_12
    SWAP bit for bit, and Bob's packed map read off rho_34 equals the
    kernel's `_FOLD_TABLE` read off rho_12 bit for bit, as `_fold` takes
    the product. The two tables differ, and so do the maps of a pair stack
    that is not a mirror image, so the equality is the states'."""
    stack = distribute(scenario, MIRROR_PS)[0]
    singles = np.stack([distribute(scenario, p)[0] for p in MIRROR_PS])
    bob = bob_fold_table()
    assert not np.array_equal(bob, protocol._FOLD_TABLE)
    for dists in (stack, singles):
        swapped = dists[:, 0].reshape(-1, 2, 2, 2, 2).transpose(0, 2, 1, 4, 3).reshape(-1, 4, 4)
        for g, p in enumerate(MIRROR_PS):
            assert dists[g, 1].tobytes() == swapped[g].tobytes(), f"{scenario.value} p={p!r}"
        pairs = dists.reshape(-1, 2, 16)
        alice_maps, bob_maps = np.dot(pairs[:, 0], protocol._FOLD_TABLE), np.dot(pairs[:, 1], bob)
        for g, p in enumerate(MIRROR_PS):
            assert bob_maps[g].tobytes() == alice_maps[g].tobytes(), f"{scenario.value} p={p!r}"
    pairs = np.random.default_rng(307).random((2, 16)) + 0j
    assert not np.array_equal(np.dot(pairs[1], bob), np.dot(pairs[0], protocol._FOLD_TABLE))


def partners_match(table: np.ndarray) -> bool:
    """Whether a packed (..., input entry, outcome, slot) map gives outcome
    2 the A slot of outcome 1 bit for bit and the B slot negated, and
    outcome 4 the same of outcome 3. B is compared by value: the negated
    zeros of one outcome are +0.0 in the other's map."""
    return all(
        table[..., partner, 0].tobytes() == table[..., first, 0].tobytes()
        and np.array_equal(table[..., partner, 1], -table[..., first, 1])
        for first, partner in ((0, 1), (2, 3))
    )


@pytest.mark.parametrize("scenario", tuple(Scenario))
def test_outcome_partners_share_factors_on_distributed_states(scenario):
    """The fact the totals-only calls and the input average rest on when
    they fold one outcome per Z-partner class: on every state `distribute`
    returns, from a stack of p or one p at a time, the fold map gives
    outcome 2 the A slot of outcome 1 bit for bit and the B slot negated,
    and outcome 4 likewise outcome 3's, and `_REFERENCE_TABLE` does the
    same, so each pair has the same trace, weight and fidelity numerator.
    A random pair stack breaks it, so the equality is the states'. Then
    `_row_totals` and `_average_fidelities` equal, byte for byte, the
    same calls with the class tables swapped for the four outcomes' ones
    (`protocol._TABLES`), which sum ((x1 + x2) + x3) + x4: seeded phased
    rows, q_w in {0, p, 1, 1 - 1e-12} (0 when bare), float and one per row
    or state, at p in {0, 1, 1 - 1e-9} and a draw."""
    stack = distribute(scenario, MIRROR_PS)[0]
    singles = np.stack([distribute(scenario, p)[0] for p in MIRROR_PS])
    for dists in (stack, singles):
        maps = np.dot(dists.reshape(-1, 2, 16)[:, 0], protocol._FOLD_TABLE)
        assert partners_match(maps.reshape(-1, 4, 4, 2)), scenario.value
    assert partners_match(protocol._REFERENCE_TABLE.reshape(4, 4, 2))
    pairs = np.random.default_rng(311).random((8, 16)) + 0j
    assert not partners_match(np.dot(pairs, protocol._FOLD_TABLE).reshape(-1, 4, 4, 2))

    rng = np.random.default_rng(313)
    ps, m = [0.0, 1.0, 1.0 - 1e-9, float(rng.uniform())], 9
    dists = distribute(scenario, ps)[0]
    rows = rng.random((len(ps) * m, 4)) * [1.0, 2.0 * math.pi, 1.0, 2.0 * math.pi]
    if scenario.protected:
        row_qs = [0.0, 1.0, 1.0 - 1e-12, np.repeat(ps, m), rng.random(len(rows))]
        state_qs = [0.0, 1.0, 1.0 - 1e-12, ps]
    else:
        row_qs, state_qs = [0.0, np.zeros(len(rows))], [0.0, np.zeros(len(ps))]

    def calls():
        return [
            *_row_totals(dists, scenario, row_qs, rows),
            *(_row_totals(dists[g], scenario, [0.0], rows[:m]) for g in range(len(ps))),
            *(_average_fidelities(dists, scenario, state_qs, points) for points in (8, 32)),
            _average_fidelities(dists[2], scenario, state_qs[:1]),
        ]

    def as_bytes(results) -> list:
        return [np.array(result).tobytes() for result in results]

    metrics._node_states.cache_clear()
    classes = as_bytes(calls())
    outcomes = protocol._TABLES[0]
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "_TABLES", (outcomes, outcomes))
            metrics._node_states.cache_clear()
            assert protocol._fold(dists, protocol._row_inputs(rows, len(ps)), classes=True).shape[-2] == 4
            assert as_bytes(calls()) == classes
    finally:
        metrics._node_states.cache_clear()
    if scenario.protected:
        # p = q_w = 1 annihilates every outcome: the NaN positions match too.
        assert np.isnan(_row_totals(dists, scenario, [1.0], rows)[0][1]).any()


def test_degenerate_thresholds_are_exact():
    """The rules `channels.DEGENERATE_TOL` states, at their sites in the
    kernel: a party's outcome is annihilated when its trace is at or below
    the tolerance or its weight is below it, which flags its branches
    degenerate and leaves it out of the totals; the doubles next to the
    tolerance fall the other way. Each branch value is a product of one
    factor per party, so one party carries the value at every outcome and
    the other the state diag(0, 1), whose trace and weight are exactly
    1.0: rows 0-3 Alice, rows 4-7 Bob. At q_w = 0 the weight is the trace;
    all-adc at q_w = 1 keeps only entry (1, 1), so there a trace of 1 + w
    has weight w. A row whose carrying party has every outcome annihilated
    has success 0 and a NaN total fidelity."""
    above, below = np.nextafter(DEGENERATE_TOL, 1.0), np.nextafter(DEGENERATE_TOL, 0.0)
    entries = [(DEGENERATE_TOL, 0.0), (above, 0.0), (1.0, DEGENERATE_TOL), (1.0, below)] * 2
    # The states as `_fold` packs them, (X00, X11, Re X10, Im X10) per outcome.
    parties = np.zeros((2, 8, 4, 4))
    parties[..., 1] = 1.0
    for n, (first, last) in enumerate(entries):
        parties[n // 4, n, :, :2] = first, last
    inputs = _input_densities(np.full((2, 8), 0.5))
    traces = parties[..., 0] + parties[..., 1]
    pairs = _weak_pairs([0.0, 0.0, 1.0, 1.0] * 2, Scenario.ALL_ADC, 8)
    factors = _party_factors(parties, _references(inputs), pairs)
    totals, branches = _correct_branches(traces, *factors, pairs, parties)
    success, fidelity, _ = totals
    weights = (0.0, above, DEGENERATE_TOL, 0.0) * 2
    assert branches.joint.tolist() == [[x + y] * 16 for x, y in entries]
    assert branches.degenerate.tolist() == [[flag] * 16 for flag in (True, False, False, True) * 2]
    assert branches.weight.tolist() == [[w] * 16 for w in weights]
    # Each party adds its four outcomes in order; the other party's sum is 4.
    assert success.tolist() == [(w + w + w + w) * 4.0 for w in weights]
    assert np.isnan(fidelity).tolist() == [True, False, False, True] * 2
    # A totals-only call takes the same totals from the party sums alone,
    # NaN where these are NaN.
    for alone, total in zip(_party_totals(traces, *factors)[0], totals, strict=True):
        np.testing.assert_array_equal(alone, total)


def test_postselected_fidelity_needs_success_above_tolerance():
    """A row whose total success is exactly DEGENERATE_TOL has a NaN
    post-selected fidelity; one whose success is the next double up has
    its weighted mean. In each row Alice's outcome 0, of weight w and
    numerator w / 2, and Bob's outcome 0, of weight and numerator 1, are
    the only live ones, so the success is w and the total fidelity 1/2."""
    above = np.nextafter(DEGENERATE_TOL, 1.0)
    traces, weights = np.zeros((2, 2, 4)), np.zeros((2, 2, 4))
    traces[:, :, 0] = 1.0
    weights[0, :, 0], weights[1, :, 0] = [DEGENERATE_TOL, above], 1.0
    success, total, postselected = _party_totals(traces, weights, weights * [[[0.5]], [[1.0]]])[0]
    assert success.tolist() == [DEGENERATE_TOL, above]
    assert total.tolist() == [0.5, 0.5]
    assert math.isnan(postselected[0]) and postselected[1] == 0.5


def test_total_fidelity_is_product_of_party_integrands():
    """The totals' fidelity is G_A G_B of the input average's fidelity
    integrand, NaN where either party has every outcome annihilated, over
    outcomes with traces and weights on both sides of DEGENERATE_TOL. Its
    success integrand sums every outcome's weight, annihilated or not, so
    the totals' success, which sums the live ones, is the product of the
    two parties' where neither has an annihilated outcome."""
    rng = np.random.default_rng(167)
    traces, weights, numerators = rng.random((3, 2, 400, 4)) * 10.0 ** rng.integers(-16, 1, (3, 2, 400, 4))
    traces[:, ::7], weights[:, 1::9] = 0.0, 0.0
    success, fidelity, _ = _party_totals(traces, weights, numerators)[0]
    integrand, party_success = _party_integrand(traces, weights, numerators)
    np.testing.assert_array_equal(fidelity, integrand[0] * integrand[1])
    assert np.isnan(fidelity).any() and not np.isnan(fidelity).all()
    np.testing.assert_array_equal(party_success, weights[..., 0] + weights[..., 1] + weights[..., 2] + weights[..., 3])
    live = ~((traces <= DEGENERATE_TOL) | (weights < DEGENERATE_TOL)).any(axis=(0, 2))
    np.testing.assert_array_equal(success[live], (party_success[0] * party_success[1])[live])
    assert 0 < live.sum() < len(live)
