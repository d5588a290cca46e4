import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers

from gclifford import dense, stabilizer
from gclifford.circuits import (Circuit, CorrectionOp, GateOp, MagicPrepOp, MeasureOp,
                                encode_phase_table, sample_records, sample_trajectory)
from gclifford.clifford import (AutomorphismGate, CXGate, FourierGate, PauliGate,
                                QuadraticGate, gate_tableau)
from gclifford.dense import apply_gate as dense_apply_gate
from gclifford.dense import (basis_state, element_index,
                             enumerate_branches, gate_matrix,
                             measurement_projections, run_circuit,
                             states_equal_up_to_phase)
from gclifford.errors import (BackendCapabilityError, GroupMismatchError,
                              PreconditionFailedError, ResourceCapError)
from gclifford.forms import Character
from gclifford.groups import HomMatrix, make_group, product_group
from gclifford.pauli import PauliOperator, PauliVector
from gclifford.phases import Phase
from gclifford.protocols import (build_cx_protocol, build_magic_injection,
                                 builtin_magic_table)
from gclifford.stabilizer import StabilizerState
from gclifford.stabilizer import enumerate_branches as tableau_branches
from gclifford.stabilizer import run_circuit as tableau_run
from gclifford.verify import (branch_distributions, random_clifford_circuit,
                              stabilizers_fix_dense, tv_distance)

GROUPS = [(2,), (3,), (4,), (4, 2)]


def test_dense_gate_unitarity():
    rng = random.Random(3)
    from test_clifford import random_gate
    for orders in GROUPS:
        g = make_group(orders)
        dim = g.order
        for _ in range(6):
            u = gate_matrix(random_gate(g, rng), g)
            assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_dense_fourier_is_hadamard_on_z2():
    z2 = make_group([2])
    u = gate_matrix(FourierGate(HomMatrix.identity(z2)), z2)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(u - h)) < 1e-12


def test_dense_cx_permutation():
    z2 = make_group([2])
    big = product_group(z2, 2)
    u = gate_matrix(CXGate(), big)
    # |10> -> |11>
    state = basis_state(big, (1, 0))
    out = u @ state
    assert abs(out[element_index(big, (1, 1))] - 1.0) < 1e-12
    assert np.max(np.abs(gate_matrix(
        AutomorphismGate(HomMatrix.identity(big)), big) - np.eye(4))) < 1e-12


def test_dense_cap():
    g = make_group([4, 4, 4])
    with pytest.raises(ResourceCapError):
        gate_matrix(FourierGate(HomMatrix.identity(g)), g, cap=16)


def test_states_equal_up_to_phase():
    a = np.array([1.0, 0.0], dtype=complex)
    assert states_equal_up_to_phase(a, a)
    assert states_equal_up_to_phase(a, np.exp(0.7j) * a)
    assert not states_equal_up_to_phase(a, np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        states_equal_up_to_phase(a, np.zeros(3, dtype=complex))


def test_branches_no_measurement():
    z2 = make_group([2])
    circ = Circuit(z2, 1, (GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),))
    branches = enumerate_branches(circ)
    assert len(branches) == 1
    assert abs(branches[0][2] - 1.0) < 1e-12


def test_branches_fourier_measure():
    z2 = make_group([2])
    circ = Circuit(z2, 1, (
        GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),
        MeasureOp("m", (0,), (0,), (1,)),
    ))
    branches = enumerate_branches(circ)
    assert len(branches) == 2
    assert all(abs(p - 0.5) < 1e-9 for _, _, p in branches)
    assert abs(sum(p for _, _, p in branches) - 1.0) < 1e-9


def test_measure_z_on_zero_state_deterministic():
    z4 = make_group([4])
    st = StabilizerState(z4, 1)
    vec = PauliVector(z4, z4.zero(), Character(z4, (1,)))
    out, prob = st.measure(vec, rng=random.Random(0))
    assert out == 0 and prob == 1
    st.validate()


def test_measure_existing_stabilizer_unchanged():
    z4 = make_group([4])
    st = StabilizerState(z4, 1)
    before = st.generator_operators()
    vec = PauliVector(z4, z4.zero(), Character(z4, (1,)))
    out, prob = st.measure(vec, rng=random.Random(0))
    assert out == 0 and prob == 1
    assert st.generator_operators() == before


def test_qubit_plus_state_x_measurement():
    z2 = make_group([2])
    st = StabilizerState(z2, 1)
    vec = PauliVector(z2, z2.element((1,)), Character.trivial(z2))
    outcomes, prob, _ = st.outcome_support(vec)
    assert outcomes == [0, 1] and prob == Fraction(1, 2)


def test_z4_x_measurement_uniform_and_repeatable():
    z4 = make_group([4])
    for seed in range(6):
        st = StabilizerState(z4, 1)
        vec = PauliVector(z4, z4.element((1,)), Character.trivial(z4))
        outcomes, prob, _ = st.outcome_support(vec)
        assert outcomes == [0, 1, 2, 3] and prob == Fraction(1, 4)
        out, _ = st.measure(vec, rng=random.Random(seed))
        st.validate()
        again, p2 = st.measure(vec, rng=random.Random(seed + 100))
        assert again == out and p2 == 1


def test_measurement_repeatability_random_observables():
    rng = random.Random(11)
    for orders in GROUPS:
        g = make_group(orders)
        big = product_group(g, 2)
        for _ in range(8):
            st = StabilizerState(g, 2)
            # soften the state with a couple of gates
            from test_clifford import random_gate
            st.apply_gate(random_gate(g, rng), (rng.randrange(2),))
            st.apply_gate(CXGate(), (0, 1))
            x = tuple(rng.randrange(q) for q in big.orders)
            z = tuple(rng.randrange(q) for q in big.orders)
            if not any(x) and not any(z):
                continue
            vec = PauliVector(big, big.element(x), Character(big, z))
            out, _ = st.measure(vec, rng=rng)
            st.validate()
            again, p = st.measure(vec, rng=rng)
            assert again == out and p == 1


def test_dense_measurement_matches_projections():
    z4 = make_group([4])
    st = basis_state(z4, (0,))
    vec = PauliVector(z4, z4.element((1,)), Character.trivial(z4))
    branches = measurement_projections(st, vec)
    assert len(branches) == 4
    assert all(abs(p - 0.25) < 1e-9 for _, p, _ in branches)


@pytest.mark.parametrize("orders", [(2,), (4, 2)])
def test_backend_equivalence_random_circuits(orders):
    base = make_group(orders)
    rng = random.Random(sum(orders) * 7)
    for n in (1, 2):
        if base.order ** n > 256:
            continue
        for i in range(6):
            circ = random_clifford_circuit(base, n, rng, num_gates=7,
                                           num_measurements=3)
            dense_dist, tab_dist = branch_distributions(circ)
            assert tv_distance(dense_dist, tab_dist) < 1e-9, (orders, n, i)
            assert stabilizers_fix_dense(circ)


def test_seed_determinism_both_backends():
    base = make_group([4, 2])
    rng = random.Random(5)
    circ = random_clifford_circuit(base, 2, rng, num_gates=6, num_measurements=3)
    d1 = run_circuit(circ, seed=42)[1]
    d2 = run_circuit(circ, seed=42)[1]
    assert d1 == d2
    t1 = tableau_run(circ, seed=42)[1]
    t2 = tableau_run(circ, seed=42)[1]
    assert t1 == t2
    # shared sampling discipline: identical seeds agree across backends
    assert d1 == t1
    # a certain outcome draws nothing on either backend, so the random
    # measurement after it sees the same draw
    z2 = make_group([2])
    certain_first = Circuit(z2, 1, (
        MeasureOp("a", (0,), (0,), (1,)),
        GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),
        MeasureOp("b", (0,), (0,), (1,)),
    ))
    for seed in range(200):
        assert run_circuit(certain_first, seed=seed)[1] == \
            tableau_run(certain_first, seed=seed)[1], seed


def test_magic_prep_rejected_on_tableau_backend():
    z2 = make_group([2])
    table = ((tuple([0]), "0/1"), (tuple([1]), "1/8"))
    circ = Circuit(z2, 1, (MagicPrepOp(0, (((0,), "0/1"), ((1,), "1/8"))),))
    with pytest.raises(BackendCapabilityError):
        tableau_run(circ, seed=1)
    with pytest.raises(BackendCapabilityError):
        tableau_branches(circ)


def test_circuit_validation():
    z2 = make_group([2])
    with pytest.raises(ValueError):
        Circuit(z2, 1, (MeasureOp("m", (1,), (0,), (1,)),))  # bad slot
    with pytest.raises(ValueError):
        Circuit(z2, 2, (
            MeasureOp("m", (0,), (0,), (1,)),
            MeasureOp("m", (1,), (0,), (1,)),
        ))  # register reuse
    with pytest.raises(ValueError):
        Circuit(z2, 1, (CorrectionOp("x-neg", ("nope",), (0,)),))
    with pytest.raises(ValueError):
        Circuit(z2, 1, (
            GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),
            MagicPrepOp(0, (((0,), "0/1"), ((1,), "1/8"))),
        ))  # prep after a gate on the same slot
    z4_fourier = FourierGate(HomMatrix.identity(make_group([4])))
    with pytest.raises(GroupMismatchError):
        Circuit(z2, 1, (GateOp(z4_fourier, (0,)),))  # gate over another group
    with pytest.raises(ValueError, match="correction acts on 1 slot"):
        Circuit(z2, 2, (
            MeasureOp("m", (0,), (0,), (1,)),
            CorrectionOp("x-neg", ("m",), (0, 1)),
        ))
    # the backends reject the same gate when applied directly
    with pytest.raises(GroupMismatchError):
        gate_tableau(z4_fourier, z2)
    with pytest.raises(GroupMismatchError):
        StabilizerState(z2, 1).apply_gate(z4_fourier, (0,))
    with pytest.raises(GroupMismatchError):
        dense_apply_gate(basis_state(z2, (0,)), z4_fourier, (0,), z2, 1)


def test_stabilizer_gate_application_matches_dense():
    rng = random.Random(13)
    from test_clifford import random_gate
    base = make_group([4, 2])
    for _ in range(6):
        ops = []
        for _ in range(5):
            nslots = rng.choice([1, 2])
            slots = tuple(rng.sample(range(2), nslots))
            local = product_group(base, nslots)
            ops.append(GateOp(random_gate(local, rng), slots))
        circ = Circuit(base, 2, tuple(ops))
        assert stabilizers_fix_dense(circ)


def test_stabilizer_perf_smoke():
    # the large-instance path: many qudits, layered gates, a few measurements
    import time
    base = make_group([4, 2])
    rng = random.Random(99)
    n = 20
    st = StabilizerState(base, n)
    t0 = time.monotonic()
    for i in range(100):
        kind = rng.randrange(3)
        if kind == 0:
            st.apply_gate(CXGate(), tuple(rng.sample(range(n), 2)))
        elif kind == 1:
            st.apply_gate(FourierGate(HomMatrix.identity(base)), (rng.randrange(n),))
        else:
            from gclifford.forms import standard_nondegenerate_form
            st.apply_gate(QuadraticGate(standard_nondegenerate_form(base)),
                          (rng.randrange(n),))
    big = product_group(base, n)
    for _ in range(3):
        z = [0] * big.num_factors
        z[rng.randrange(big.num_factors)] = 1
        st.measure(PauliVector(big, big.zero(), Character(big, tuple(z))), rng=rng)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0


def test_branch_probabilities_sum_to_one():
    rng = random.Random(404)
    for orders in [(2,), (4, 2)]:
        base = make_group(orders)
        for _ in range(4):
            circ = random_clifford_circuit(base, 2, rng, num_gates=5,
                                           num_measurements=3)
            dense_total = sum(p for _, _, p in enumerate_branches(circ))
            assert abs(dense_total - 1.0) < 1e-9
            tab_total = sum(p for _, _, p in tableau_branches(circ))
            assert tab_total == 1


# ---------------------------------------------------------------------------
# shot sampling through the outcome trie

def _backend(name, circuit):
    if name == "dense":
        return (dense._Backend(circuit, dense.DEFAULT_DENSE_CAP),
                dense._initial_vector(circuit, dense.DEFAULT_DENSE_CAP))
    return stabilizer._Backend, stabilizer._initial_state(circuit)


def _per_shot(name, circuit, rng, shots):
    return [sample_trajectory(circuit, *_backend(name, circuit), rng)[1]
            for _ in range(shots)]


def _trie(name, circuit, rng, shots):
    return sample_records(circuit, *_backend(name, circuit), rng, shots)


def _prepared_cx(orders):
    base = make_group(orders)
    rng = random.Random(sum(orders))
    prep = tuple(GateOp(PauliGate(PauliOperator.x_shift(base.random_element(rng))), (s,))
                 for s in (0, 2))
    return Circuit(base, 3, prep + build_cx_protocol(base).ops)


def _random_circuit(orders, seed):
    return random_clifford_circuit(make_group(orders), 2, random.Random(seed),
                                   num_gates=6, num_measurements=4)


def _certain_first():
    z2 = make_group([2])
    return Circuit(z2, 1, (
        MeasureOp("a", (0,), (0,), (1,)),
        GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),
        MeasureOp("b", (0,), (0,), (1,)),
    ))


def _magic(table):
    """The magic-injection circuit of ``table`` over Z2, built without the
    up-front check that every correction is quadratic."""
    z2 = make_group([2])
    encoded = tuple(tuple(e) for e in encode_phase_table(
        {z2.element((g,)): ph for g, ph in enumerate(table)}))
    return Circuit(z2, 2, (
        MagicPrepOp(1, encoded), GateOp(CXGate(dagger=True), (0, 1)),
        MeasureOp("k0", (1,), (0,), (1,)),
        CorrectionOp("magic-quadratic", ("k0",), (0,), table=encoded)))


SAMPLER_CASES = {
    **{f"cx-{'x'.join(map(str, o))}": (lambda o=o: _prepared_cx(o), ("tableau", "dense"))
       for o in [(2,), (3,), (4,), (2, 4)]},
    **{f"random-{'x'.join(map(str, o))}-{s}": (lambda o=o, s=s: _random_circuit(o, s),
                                               ("tableau", "dense"))
       for o in [(2,), (3,), (4, 2)] for s in (1, 2)},
    "no-measurement": (lambda: Circuit(make_group([3]), 2, (
        GateOp(FourierGate(HomMatrix.identity(make_group([3]))), (0,)),
        GateOp(CXGate(), (0, 1)))), ("tableau", "dense")),
    "certain-first": (_certain_first, ("tableau", "dense")),
    "magic-z2": (lambda: build_magic_injection(
        make_group([2]), builtin_magic_table(make_group([2])))[0], ("dense",)),
}


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(shots=integers(1, 40), seed=integers(0, 2 ** 32 - 1))
def test_sample_records_matches_per_shot_trajectories(case, shots, seed):
    build, names = SAMPLER_CASES[case]
    circuit = build()
    for name in names:
        loop_rng, trie_rng = random.Random(seed), random.Random(seed)
        expected = _per_shot(name, circuit, loop_rng, shots)
        got = _trie(name, circuit, trie_rng, shots)
        assert got == expected, name
        assert [list(r) for r in got] == [list(r) for r in expected], name
        assert trie_rng.getstate() == loop_rng.getstate(), name


def test_sample_records_raises_where_the_per_shot_loop_does():
    # outcome 0 takes the zero correction; outcome 1 needs the phase 1/8,
    # which is not a quadratic form over Z2
    circuit = _magic((Phase(), Phase(1, 16)))
    raised = 0
    for seed in range(12):
        outcomes = []
        for run in (_per_shot, _trie):
            rng = random.Random(seed)
            try:
                outcomes.append(run("dense", circuit, rng, 3))
            except PreconditionFailedError as exc:
                outcomes.append((type(exc), str(exc)))
            outcomes.append(rng.getstate())
        assert outcomes[:2] == outcomes[2:], seed
        raised += isinstance(outcomes[0], tuple)
    assert 0 < raised < 12


class _SpyBackend:
    """The stabilizer backend, counting ``outcomes`` calls and the states
    alive at once, and noting which measurements are projected.  A
    measurement is numbered by the first ``outcomes`` call on its observable,
    which the interpreter embeds once per op index and run."""

    unit = stabilizer._Backend.unit

    def __init__(self):
        self.outcome_calls = 0
        self.live = weakref.WeakSet()
        self.peak_live = 0
        self.measurement = {}
        self.supports = {}  # id -> (measurement, support kept alive)
        self.projected = set()

    def track(self, state):
        self.live.add(state)
        self.peak_live = max(self.peak_live, len(self.live))
        return state

    def apply(self, state, gate, slots):
        return self.track(stabilizer._Backend.apply(state, gate, slots))

    def outcomes(self, state, vec):
        self.outcome_calls += 1
        pairs, support = stabilizer._Backend.outcomes(state, vec)
        index = self.measurement.setdefault(id(vec), len(self.measurement))
        self.supports[id(support)] = (index, support)
        return pairs, support

    def project(self, state, support, outcome, last):
        self.projected.add(self.supports[id(support)][0])
        return self.track(stabilizer._Backend.project(state, support, outcome, last))


def _spy_run(circuit, shots, seed, per_shot):
    spy, rng = _SpyBackend(), random.Random(seed)
    if per_shot:
        for _ in range(shots):
            sample_trajectory(circuit, spy, spy.track(stabilizer._initial_state(circuit)), rng)
    else:
        sample_records(circuit, spy, spy.track(stabilizer._initial_state(circuit)), rng, shots)
    return spy


def test_sample_records_runs_each_record_prefix_once():
    z3 = make_group([3])
    certain = Circuit(z3, 2, (
        MeasureOp("a", (0,), (0,), (1,)),
        GateOp(PauliGate(PauliOperator.x_shift(z3.element((1,)))), (0,)),
        GateOp(CXGate(), (0, 1)),
        MeasureOp("b", (1,), (0,), (1,)),
        MeasureOp("c", (0, 1), (0, 0), (1, 2)),
    ))
    spy = _spy_run(certain, 1000, 3, per_shot=False)
    assert spy.outcome_calls == 3
    for orders in [(2,), (3,), (4, 2)]:
        for seed in range(4):
            circuit = random_clifford_circuit(make_group(orders), 2, random.Random(seed),
                                              num_gates=8, num_measurements=5)
            measurements = sum(isinstance(op, MeasureOp) for op in circuit.ops)
            for shots in (1, 5, 60):
                trie = _spy_run(circuit, shots, seed, per_shot=False)
                loop = _spy_run(circuit, shots, seed, per_shot=True)
                assert trie.outcome_calls <= loop.outcome_calls, (orders, seed, shots)
                assert trie.peak_live <= measurements + 2, (orders, seed, shots)


# outcome calls of 60 shots of the circuits below, by (orders, seed): one
# per computed node that ends at a measurement, as many as when the leaves
# were computed too
LEAF_OUTCOME_CALLS = {
    (2,): [31, 14, 19, 48], (3,): [111, 111, 168, 156], (4, 2): [194, 180, 209, 131]}


def test_sample_records_computes_no_leaf_state():
    """No node projects onto an outcome of the last measurement, so no
    leaf state is computed, and the ``outcomes`` calls stay those of a
    sampler that computed the leaves."""
    for orders, calls in LEAF_OUTCOME_CALLS.items():
        for seed in range(4):
            circuit = random_clifford_circuit(make_group(orders), 2, random.Random(seed),
                                              num_gates=8, num_measurements=5)
            spy = _spy_run(circuit, 60, seed, per_shot=False)
            assert spy.projected == {0, 1, 2, 3}, (orders, seed)
            assert spy.outcome_calls == calls[seed], (orders, seed)


def test_interpret_leaves_no_reference_cycle():
    """With the cyclic collector off, each sampled trajectory's states are
    freed when it returns."""
    circuit = random_clifford_circuit(make_group([2]), 2, random.Random(0),
                                      num_gates=8, num_measurements=5)
    gc.disable()
    try:
        spy = _spy_run(circuit, 200, 0, per_shot=True)
        assert len(spy.live) <= 5 + 2
        assert spy.peak_live <= 5 + 2
    finally:
        gc.enable()
