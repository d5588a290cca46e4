import random

import numpy as np
import pytest

from gclifford.clifford import (AutomorphismGate, CXGate, CliffordTableau,
                                FourierGate, PauliGate, QuadraticGate,
                                cx_matrix, fourier_plain_inverse,
                                gate_inverse, gate_tableau,
                                sequence_tableau, two_local_factorize)
from gclifford.dense import gate_matrix, tableau_faithful
from gclifford.elementary import random_automorphism
from gclifford.forms import (Character, QuadraticForm,
                             standard_nondegenerate_form)
from gclifford.groups import HomMatrix, make_group, product_group
from gclifford.pauli import PauliOperator
from gclifford.phases import Phase

from test_pauli import random_pauli

GROUPS = [(2,), (3,), (4,), (2, 2), (4, 2)]


def random_quadratic(group, rng):
    from math import gcd
    n = group.num_factors
    q = group.orders
    diag = tuple(rng.choice([a for a in range(2 * q[i]) if (a * q[i]) % 2 == 0])
                 for i in range(n))
    cross = tuple(tuple(rng.randrange(gcd(q[i], q[j])) if i < j else 0
                        for j in range(n)) for i in range(n))
    linear = tuple(rng.randrange(q[i]) for i in range(n))
    return QuadraticForm(group, diag, cross, linear)


def random_iso_matrix(group, rng):
    return random_automorphism(group, rng)


def random_gate(group, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return AutomorphismGate(random_automorphism(group, rng))
    if kind == 1:
        return QuadraticGate(random_quadratic(group, rng))
    if kind == 2:
        return FourierGate(random_iso_matrix(group, rng), rng.random() < 0.3)
    return PauliGate(random_pauli(group, rng))


def test_identity_tableau():
    g = make_group([4, 2])
    t = CliffordTableau.identity(g)
    rng = random.Random(3)
    for _ in range(10):
        p = random_pauli(g, rng)
        assert t.conjugate(p) == p
    t.validate()
    # X_0 sent to Z_0, like Z_0 itself: the pairing is broken
    bad = CliffordTableau(g, (t.z_images[0],) + t.x_images[1:], t.z_images)
    with pytest.raises(ValueError, match="pairing"):
        bad.validate()


def test_automorphism_gate_examples():
    g = make_group([2, 2])
    tau = HomMatrix(g, g, ((1, 0), (1, 1)))
    t = gate_tableau(AutomorphismGate(tau))
    x0 = PauliOperator.x_shift(g.element((1, 0)))
    img = t.conjugate(x0)
    assert img.phase.is_zero()
    assert img.x.residues == (1, 1) and img.z.is_trivial()
    # identical to the CX tableau over Z2 x Z2
    base = make_group([2])
    assert t == gate_tableau(CXGate(), product_group(base, 2))
    assert gate_tableau(AutomorphismGate(HomMatrix.identity(g))).is_identity()


def test_automorphism_gate_composition():
    rng = random.Random(7)
    for orders in GROUPS:
        g = make_group(orders)
        for _ in range(8):
            t1 = random_automorphism(g, rng)
            t2 = random_automorphism(g, rng)
            assert gate_tableau(AutomorphismGate(t2.compose(t1))) == \
                gate_tableau(AutomorphismGate(t2)).compose(gate_tableau(AutomorphismGate(t1)))


def test_quadratic_gate_examples():
    z2 = make_group([2])
    t = gate_tableau(QuadraticGate(QuadraticForm.diagonal(z2, (1,))))
    img = t.conjugate(PauliOperator.x_shift(z2.element((1,))))
    # X -> i * X * Z, the qubit S conjugation
    assert img.phase == Phase(1, 4)
    assert img.x.residues == (1,) and img.z.residues == (1,)
    rng = random.Random(11)
    for orders in GROUPS:
        g = make_group(orders)
        assert gate_tableau(QuadraticGate(QuadraticForm.zero(g))).is_identity()
        form = random_quadratic(g, rng)
        tab = gate_tableau(QuadraticGate(form))
        for i in range(g.num_factors):
            z = PauliOperator.z_char(Character.generator(g, i))
            assert tab.conjugate(z) == z


def test_fourier_gate_qubit():
    z2 = make_group([2])
    t = gate_tableau(FourierGate(HomMatrix.identity(z2)))
    x = PauliOperator.x_shift(z2.element((1,)))
    z = PauliOperator.z_char(Character(z2, (1,)))
    assert t.conjugate(x) == z
    assert t.conjugate(z) == x


def _f_squared_matrix(m):
    # F_m^2 = A_{-m o dual(m)^{-1}} as unitaries
    from gclifford.groups import invert_automorphism
    g = m.source
    comp = m.compose(invert_automorphism(m.dual()))
    return HomMatrix(g, g, tuple(tuple(-v for v in row) for row in comp.entries))


def test_fourier_squared_is_negation():
    rng = random.Random(13)
    for orders in GROUPS:
        g = make_group(orders)
        for _ in range(4):
            m = random_iso_matrix(g, rng)
            t = gate_tableau(FourierGate(m))
            assert t.compose(t) == gate_tableau(AutomorphismGate(_f_squared_matrix(m)))


def test_fourier_dagger_matches_plain_inverse():
    rng = random.Random(17)
    for orders in GROUPS:
        g = make_group(orders)
        m = random_iso_matrix(g, rng)
        t = gate_tableau(FourierGate(m))
        tdag = gate_tableau(FourierGate(m, True))
        assert t.compose(tdag).is_identity()
        assert tdag.compose(t).is_identity()
        # and densely: F_{m'} equals F_m^dagger entrywise
        fm = gate_matrix(FourierGate(m), g)
        fmp = gate_matrix(FourierGate(fourier_plain_inverse(m)), g)
        assert np.max(np.abs(fm.conj().T - fmp)) < 1e-12


def test_conjugate_is_homomorphism():
    rng = random.Random(19)
    for orders in GROUPS:
        g = make_group(orders)
        for _ in range(6):
            t = sequence_tableau([random_gate(g, rng) for _ in range(4)], g)
            p, q = random_pauli(g, rng), random_pauli(g, rng)
            assert t.conjugate(p * q) == t.conjugate(p) * t.conjugate(q)


def test_compose_inverse_identity():
    rng = random.Random(23)
    for orders in GROUPS:
        g = make_group(orders)
        for _ in range(6):
            t = sequence_tableau([random_gate(g, rng) for _ in range(4)], g)
            t.validate()
            inv = t.inverse()
            assert t.compose(inv).is_identity()
            assert inv.compose(t).is_identity()


def test_compose_associative():
    rng = random.Random(29)
    g = make_group([4, 2])
    for _ in range(6):
        a, b, c = (sequence_tableau([random_gate(g, rng)], g) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_gate_inverse_roundtrip():
    rng = random.Random(31)
    for orders in GROUPS:
        g = make_group(orders)
        for _ in range(10):
            gate = random_gate(g, rng)
            t = gate_tableau(gate, g)
            ti = gate_tableau(gate_inverse(gate), g)
            assert t.compose(ti).is_identity()


def test_all_gate_tableaux_match_dense():
    rng = random.Random(37)
    for orders in GROUPS:
        g = make_group(orders)
        gates = [
            AutomorphismGate(random_automorphism(g, rng)),
            QuadraticGate(random_quadratic(g, rng)),
            QuadraticGate(standard_nondegenerate_form(g)),
            FourierGate(HomMatrix.identity(g)),
            FourierGate(random_iso_matrix(g, rng)),
            FourierGate(random_iso_matrix(g, rng), dagger=True),
            PauliGate(random_pauli(g, rng)),
        ]
        for gate in gates:
            assert tableau_faithful(gate_tableau(gate, g), gate, g), gate


def test_cx_tableau_matches_dense():
    for orders in [(2,), (3,), (4, 2)]:
        base = make_group(orders)
        big = product_group(base, 2)
        if big.order > 64:
            continue
        for dagger in (False, True):
            gate = CXGate(dagger)
            assert tableau_faithful(gate_tableau(gate, big), gate, big)


def test_two_local_single_slot_returns_single_factor():
    g = make_group([4, 2])
    rng = random.Random(41)
    tau = random_automorphism(g, rng)
    factors = two_local_factorize(tau, g, 1)
    assert len(factors) <= 1
    if factors:
        assert factors[0].entries == tau.entries


def test_two_local_cx_block_stays_whole():
    base = make_group([4, 2])
    tau = cx_matrix(base)
    factors = two_local_factorize(tau, base, 2)
    assert len(factors) == 1
    assert factors[0].entries == tau.entries


def test_two_local_random_recompose():
    rng = random.Random(43)
    for orders, n in [((2,), 2), ((2,), 3), ((4, 2), 2), ((4, 2), 3), ((2, 4), 2)]:
        base = make_group(orders)
        big = product_group(base, n)
        k = base.num_factors
        for _ in range(10):
            tau = random_automorphism(big, rng)
            factors = two_local_factorize(tau, base, n)
            acc = HomMatrix.identity(big)
            for f in factors:
                acc = acc.compose(f)
            assert acc.entries == tau.entries
            for f in factors:
                touched = set()
                for i in range(big.num_factors):
                    for j in range(big.num_factors):
                        if f.entries[i][j] != (1 if i == j else 0):
                            touched.update((i // k, j // k))
                assert len(touched) <= 2


def test_random_sequences_match_dense():
    # faithfulness for whole gate sequences at desk scale
    import numpy as np
    from gclifford.dense import gate_matrix, pauli_matrix
    from gclifford.forms import Character as Chr
    rng = random.Random(47)
    for orders in [(2,), (4,), (4, 2)]:
        g = make_group(orders)
        for _ in range(4):
            gates = [random_gate(g, rng) for _ in range(4)]
            tab = sequence_tableau(gates, g)
            u = np.eye(g.order, dtype=complex)
            for gate in gates:
                u = gate_matrix(gate, g) @ u
            for i in range(g.num_factors):
                for p in (PauliOperator.x_shift(g.generator(i)),
                          PauliOperator.z_char(Chr.generator(g, i))):
                    lhs = u @ pauli_matrix(p) @ u.conj().T
                    rhs = pauli_matrix(tab.conjugate(p))
                    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_triple_product_tableau_is_identity():
    # tableau equality is exactly the up-to-global-phase statement
    from gclifford.forms import i_xi_matrix, is_nondegenerate
    rng = random.Random(53)
    for orders in [(2,), (3,), (4,), (4, 2)]:
        g = make_group(orders)
        forms = [standard_nondegenerate_form(g)]
        forms += [f for f in (random_quadratic(g, rng) for _ in range(12))
                  if is_nondegenerate(f)][:2]
        for xi in forms:
            f_tab = gate_tableau(FourierGate(i_xi_matrix(xi)))
            s_tab = gate_tableau(QuadraticGate(xi))
            fs = f_tab.compose(s_tab)
            assert fs.compose(fs).compose(fs).is_identity()
            # with a symmetric iso the squared Fourier is plain negation
            neg = HomMatrix(g, g, tuple(
                tuple(-1 if i == j else 0 for j in range(g.num_factors))
                for i in range(g.num_factors)))
            assert f_tab.compose(f_tab) == gate_tableau(AutomorphismGate(neg))
