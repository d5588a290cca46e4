"""The dense gate kernels against the element-by-element definitions.

``reference_gate_matrix`` builds every unitary one basis element at a time
from the definitional formulas with exact ``Phase`` values; the kernels in
``gclifford.dense`` work on residue tables with integer phase exponents.
"""

import functools
import math
import random

import numpy as np
import pytest

from gclifford.clifford import (AutomorphismGate, CXGate, FourierGate,
                                PauliGate, QuadraticGate, cx_matrix)
from gclifford.dense import apply_gate, element_index, gate_matrix, pauli_matrix
from gclifford.elementary import random_automorphism
from gclifford.errors import NotInvertibleError, ResourceCapError
from gclifford.forms import Character, QuadraticForm
from gclifford.groups import Group, HomMatrix, make_group, product_group
from gclifford.pauli import PauliOperator
from gclifford.phases import Phase

BASES = [(2,), (3,), (4,), (2, 4), (4, 2), (3, 3), (8, 2)]
ATOL = 1e-12


def reference_pauli_matrix(p: PauliOperator) -> np.ndarray:
    group = p.group
    dim = group.order
    mat = np.zeros((dim, dim), dtype=complex)
    w = p.phase.to_complex()
    for h in group.elements():
        col = element_index(group, h.residues)
        row = element_index(group, (p.x + h).residues)
        mat[row, col] = w * p.z.eval(h).to_complex()
    return mat


def reference_gate_matrix(gate, group: Group) -> np.ndarray:
    dim = group.order
    if isinstance(gate, AutomorphismGate):
        mat = np.zeros((dim, dim), dtype=complex)
        for g in group.elements():
            mat[element_index(group, gate.tau.apply(g).residues),
                element_index(group, g.residues)] = 1.0
        return mat
    if isinstance(gate, QuadraticGate):
        return np.diag([gate.form.eval(g).to_complex() for g in group.elements()])
    if isinstance(gate, FourierGate):
        mat = np.zeros((dim, dim), dtype=complex)
        scale = 1.0 / math.sqrt(dim)
        for g in group.elements():
            col = element_index(group, g.residues)
            for chi_el in group.elements():
                chi = Character(group, chi_el.residues)
                row = element_index(group, gate.matrix.apply(chi_el).residues)
                mat[row, col] += scale * (-chi.eval(g)).to_complex()
        return mat.conj().T if gate.dagger else mat
    if isinstance(gate, PauliGate):
        return reference_pauli_matrix(gate.op)
    if isinstance(gate, CXGate):
        base = Group(group.orders[:group.num_factors // 2])
        return reference_gate_matrix(AutomorphismGate(cx_matrix(base, gate.dagger)), group)
    raise TypeError(f"unknown gate {gate!r}")


def reference_apply(state, mat, slots, base: Group, n: int) -> np.ndarray:
    k = base.num_factors
    axes = [s * k + f for s in slots for f in range(k)]
    moved = np.moveaxis(state.reshape(tuple(base.orders) * n), axes, range(len(axes)))
    rest = moved.shape[len(axes):]
    flat = mat @ moved.reshape(mat.shape[0], -1)
    out = np.moveaxis(flat.reshape(moved.shape[:len(axes)] + rest),
                      range(len(axes)), axes)
    return np.ascontiguousarray(out).reshape(-1)


def full_quadratic(group: Group, rng) -> QuadraticForm:
    """A form with every linear and every possible cross term nonzero."""
    q = group.orders
    n = group.num_factors
    diag = tuple(rng.choice([a for a in range(1, 2 * q[i]) if (a * q[i]) % 2 == 0])
                 for i in range(n))
    cross = tuple(tuple(rng.randrange(1, math.gcd(q[i], q[j]))
                        if i < j and math.gcd(q[i], q[j]) > 1 else 0
                        for j in range(n)) for i in range(n))
    linear = tuple(rng.randrange(1, q[i]) for i in range(n))
    return QuadraticForm(group, diag, cross, linear)


def gate_cases(group: Group, rng, two_slot: bool):
    p = PauliOperator(group, Phase(rng.randrange(1, 12), 12), group.random_element(rng),
                      Character(group, tuple(rng.randrange(q) for q in group.orders)))
    cases = [
        ("automorphism", AutomorphismGate(random_automorphism(group, rng))),
        ("quadratic", QuadraticGate(full_quadratic(group, rng))),
        ("fourier", FourierGate(random_automorphism(group, rng))),
        ("fourier-dagger", FourierGate(random_automorphism(group, rng), True)),
        ("pauli", PauliGate(p)),
    ]
    if two_slot:
        cases += [("cx", CXGate()), ("cx-dagger", CXGate(True))]
    return cases


@functools.lru_cache(maxsize=None)
def cases_with_reference(orders):
    """(name, slots-per-gate, gate, reference matrix) for one- and two-slot
    gates over the base group ``orders``."""
    rng = random.Random(str(orders))
    base = make_group(orders)
    out = []
    for nslots in (1, 2):
        group = product_group(base, nslots)
        for name, gate in gate_cases(group, rng, nslots == 2):
            out.append((name, nslots, gate, reference_gate_matrix(gate, group)))
    return out


@pytest.mark.parametrize("orders", BASES)
def test_gate_matrix_matches_reference(orders):
    base = make_group(orders)
    for name, nslots, gate, ref in cases_with_reference(orders):
        mat = gate_matrix(gate, product_group(base, nslots))
        assert np.allclose(mat, ref, rtol=0, atol=ATOL), (orders, nslots, name)
        if isinstance(gate, PauliGate):
            assert np.allclose(pauli_matrix(gate.op), ref, rtol=0, atol=ATOL)


@pytest.mark.parametrize("orders", BASES)
def test_apply_gate_matches_reference(orders):
    base = make_group(orders)
    rng = np.random.default_rng(len(orders) * 10 + orders[0])
    dim = base.order ** 3
    slot_choices = {1: [(0,), (2,)], 2: [(2, 0), (0, 2), (1, 0)]}
    for name, nslots, gate, ref in cases_with_reference(orders):
        for slots in slot_choices[nslots]:
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            got = apply_gate(state, gate, slots, base, 3)
            want = reference_apply(state, ref, slots, base, 3)
            assert np.allclose(got, want, rtol=0, atol=ATOL), (orders, name, slots)


def test_non_invertible_matrices_rejected():
    z4 = make_group([4])
    doubling = HomMatrix(z4, z4, ((2,),))
    for gate in (AutomorphismGate(doubling), FourierGate(doubling)):
        with pytest.raises(NotInvertibleError) as err:
            gate_matrix(gate, z4)
        assert err.value.witness == (2,)
        with pytest.raises(NotInvertibleError):
            apply_gate(np.ones(16, dtype=complex), gate, (1,), z4, 2)


def test_apply_gate_cap_checked_on_local_group():
    z4 = make_group([4])
    with pytest.raises(ResourceCapError):
        apply_gate(np.ones(64, dtype=complex), CXGate(), (0, 2), z4, 3, cap=8)
