"""The integer tableau kernel against the ``Fraction`` algebra it replaced.

A tableau holds integer columns and phase numerators, and conjugates,
composes, inverts and validates through ``pauli.ordered_products``.  The
references below multiply ``PauliOperator`` images with ``Phase``
arithmetic instead: conjugation is the ordered product of the images, X
block then Z block, in ascending order.  They are slow and plainly
correct; the tests hold the kernel to them.
"""

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclifford import stabilizer
from gclifford.clifford import (AutomorphismGate, CliffordTableau, FourierGate,
                                PauliGate, QuadraticGate, gate_pauli,
                                gate_tableau, sequence_tableau)
from gclifford.forms import Character, QuadraticForm
from gclifford.groups import HomMatrix, invert_automorphism, make_group, product_group
from gclifford.pauli import PauliOperator, beta, row_params
from gclifford.stabilizer import StabilizerState
from gclifford.symplectic import decompose_clifford

from test_clifford import random_gate
from test_dense_kernels import gate_cases
from test_pauli import random_pauli

TABLEAU_GROUPS = [(2,), (3,), (4,), (2, 2), (4, 2), (3, 3), (8, 2)]


def images(tab):
    return [tab.image(j) for j in range(2 * tab.group.num_factors)]


def from_images(group, imgs):
    D = 2 * lcm(*group.orders)
    nums = [img.phase.frac * D for img in imgs]
    assert all(num.denominator == 1 for num in nums)
    entries = tuple(zip(*(img.x.residues + img.z.residues for img in imgs)))
    return CliffordTableau(group, entries, tuple(int(num) for num in nums))


def reference_conjugate(tab, p):
    out = PauliOperator.identity(tab.group).times_phase(p.phase)
    for img, e in zip(images(tab), p.x.residues + p.z.residues):
        if e:
            out = out * img.pow(e)
    return out


def reference_compose(second, first):
    """The images of U_second U_first."""
    return [reference_conjugate(second, img) for img in images(first)]


def reference_inverse(tab):
    """The images of U^-1: each column of the inverse vector matrix, with
    the phase that cancels the one it picks up under ``tab``."""
    group = tab.group
    raw = CliffordTableau(group, invert_automorphism(tab.vector_matrix()).entries,
                          (0,) * 2 * group.num_factors)
    out = []
    for pre, gen in zip(images(raw), images(CliffordTableau.identity(group))):
        img = reference_conjugate(tab, pre)
        assert img.vector() == gen.vector()
        out.append(pre.times_phase(-img.phase))
    return out


def reference_sequence(gates, group):
    out = CliffordTableau.identity(group)
    for gate in gates:
        out = from_images(group, reference_compose(gate_tableau(gate, group), out))
    return out


def reference_gate_pauli(op):
    inv = op.inverse()
    return [op * g * inv for g in images(CliffordTableau.identity(op.group))]


def reference_defect(tab):
    """What ``validate`` must reject: "pairing" when two images pair unlike
    their generators, else the first image whose order-th power is not the
    identity, else None."""
    m = tab.group.num_factors
    imgs = images(tab)
    gens = images(CliffordTableau.identity(tab.group))
    for i in range(2 * m):
        for j in range(2 * m):
            if beta(imgs[i].vector(), imgs[j].vector()) != \
                    beta(gens[i].vector(), gens[j].vector()):
                return "pairing"
    for j, img in enumerate(imgs):
        if not img.pow(tab.group.orders[j % m]).is_identity():
            return f"{'XZ'[j // m]} image {j % m} "
    return None


def check_against_reference(tab, other, p, op, invertible=True):
    """Every kernel operation on ``tab`` against its reference."""
    assert tab.conjugate(p) == reference_conjugate(tab, p)
    assert images(tab.compose(other)) == reference_compose(tab, other)
    assert images(other.compose(tab)) == reference_compose(other, tab)
    if invertible:
        assert images(tab.inverse()) == reference_inverse(tab)
    assert images(gate_pauli(op)) == reference_gate_pauli(op)
    defect = reference_defect(tab)
    if defect is None:
        tab.validate()
    else:
        with pytest.raises(ValueError, match=defect):
            tab.validate()


@st.composite
def tableau_cases(draw):
    """A random gate product (maybe broken in one entry or one phase),
    a second product, the gates of the first, and two Paulis."""
    group = make_group(list(draw(st.sampled_from(TABLEAU_GROUPS))))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gates = [random_gate(group, rng) for _ in range(draw(st.integers(1, 4)))]
    tab = sequence_tableau(gates, group)
    other = sequence_tableau([random_gate(group, rng) for _ in range(2)], group)
    broken = draw(st.sampled_from([None, "entry", "phase"]))
    n = 2 * group.num_factors
    j = draw(st.integers(0, n - 1))
    if broken == "entry":
        i = draw(st.integers(0, n - 1))
        rows = [list(row) for row in tab.entries]
        rows[i][j] = draw(st.integers(0, (group.orders * 2)[i] - 1))
        tab = CliffordTableau(group, tuple(map(tuple, rows)), tab.phases)
    elif broken == "phase":
        D = 2 * lcm(*group.orders)
        phases = list(tab.phases)
        phases[j] = (phases[j] + draw(st.integers(1, D - 1))) % D
        tab = CliffordTableau(group, tab.entries, tuple(phases))
    return gates if broken is None else None, tab, other, broken, \
        random_pauli(group, rng), random_pauli(group, rng)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=tableau_cases())
def test_kernel_matches_fraction_reference(case):
    gates, tab, other, broken, p, op = case
    if gates is not None:
        assert tab == reference_sequence(gates, tab.group)
    check_against_reference(tab, other, p, op, invertible=broken != "entry")


def test_large_modulus_tableau_uses_python_integers():
    q = 2 ** 40
    one = make_group([q])
    assert row_params(one.orders)[1] is object
    gates = [FourierGate(HomMatrix.identity(one)),
             QuadraticGate(QuadraticForm(one, (3,), ((0,),), (5,))),
             AutomorphismGate(HomMatrix(one, one, ((q // 2 + 3,),))),
             PauliGate(PauliOperator.x_shift(one.element((q // 2 + 3,)))),
             PauliGate(PauliOperator.z_char(Character(one, (q - 7,))))]
    tab = sequence_tableau(gates, one)
    assert tab == reference_sequence(gates, one)
    other = sequence_tableau(gates[::-1], one)
    p = PauliOperator(one, tab.image(0).phase, one.element((q // 4 + 1,)),
                      Character(one, (q - 5,)))
    check_against_reference(tab, other, p, PauliOperator.x_shift(one.element((q - 1,))))
    inv = tab.inverse()
    assert tab.compose(inv).is_identity()
    assert all(type(v) is int for row in inv.entries for v in row)
    assert all(type(v) is int for v in inv.phases)


def test_kernel_callers_make_no_pauli_products(monkeypatch):
    """Compiling a tableau and applying every gate kind to a stabilizer
    state run on integer rows only: no ``PauliOperator`` product or power."""
    rng = random.Random(44)
    group = make_group([4, 2, 2])
    tab = sequence_tableau([random_gate(group, rng) for _ in range(6)], group)
    base = make_group([2, 4])
    cases = [(gate, slots) for nslots, slots in ((1, (2,)), (2, (0, 2)))
             for _name, gate in gate_cases(product_group(base, nslots), rng, nslots == 2)]
    calls = []
    for name in ("__mul__", "pow"):
        original = getattr(PauliOperator, name)
        monkeypatch.setattr(PauliOperator, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    assert sequence_tableau(decompose_clifford(tab), group) == tab
    monkeypatch.setattr(stabilizer, "_TABLEAU_CACHE", {})
    monkeypatch.setattr(stabilizer, "_CONJ_CACHE", {})
    state = StabilizerState(base, 3)
    for gate, slots in cases:
        state.apply_gate(gate, slots)
    state.validate()
    assert calls == []
