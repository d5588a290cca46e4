import random
from fractions import Fraction

import numpy as np
import pytest

from gclifford.circuits import Circuit, CorrectionOp, GateOp, MagicPrepOp, MeasureOp
from gclifford.clifford import (AutomorphismGate, CXGate, FourierGate,
                                QuadraticGate, gate_tableau)
from gclifford.dense import apply_gate as dense_apply_gate
from gclifford.dense import (basis_state, element_index,
                             enumerate_branches, gate_matrix,
                             measurement_projections, run_circuit,
                             states_equal_up_to_phase)
from gclifford.errors import (BackendCapabilityError, GroupMismatchError,
                              ResourceCapError)
from gclifford.forms import Character
from gclifford.groups import HomMatrix, make_group, product_group
from gclifford.pauli import PauliVector
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
