"""Dense (state-vector) backend: exact definitional gate actions,
projective measurement, and full branch enumeration.

This backend is the desk-scale oracle: every symbolic identity in the
package is checked against it at small dimensions.  States are numpy
complex vectors indexed by residue tuples in mixed radix, first factor
most significant.

Automorphism, CX, quadratic and Pauli gates are a permutation times a
phase diagonal, U|g> = w^e[g] |rows[g]> with w = exp(2*pi*i/D).  Their
row maps and integer phase exponents e (mod D) come straight from the
residue table of the gate's group, and ``apply_gate`` applies them as
an index gather on the gate's own axes.  Floats appear only when the
exponents are turned into roots of unity.  The Fourier gate is the only
one applied as a matrix contraction.

Circuits run through :func:`circuits.interpret`, as on the stabilizer
backend, so both draw the same random numbers for the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (MagicPrepOp, decode_phase_table, interpret,
                       sample_trajectory)
from .clifford import (AutomorphismGate, CXGate, CliffordTableau, FourierGate,
                       Gate, PauliGate, QuadraticGate, cx_matrix)
from .errors import GroupMismatchError, NotInvertibleError, ResourceCapError
from .forms import QuadraticForm
from .groups import Group, HomMatrix, product_group
from .pauli import PauliOperator, PauliVector

DEFAULT_DENSE_CAP = 4096


def element_index(group: Group, residues) -> int:
    idx = 0
    for r, q in zip(residues, group.orders):
        idx = idx * q + (r % q)
    return idx


def _check_cap(dim: int, cap: int) -> None:
    if dim > cap:
        raise ResourceCapError(f"dense dimension {dim} exceeds the cap {cap}")


def basis_state(group: Group, residues) -> np.ndarray:
    state = np.zeros(group.order, dtype=complex)
    state[element_index(group, residues)] = 1.0
    return state


_GROUP_TABLES: dict = {}


def _group_tables(group: Group):
    """Cached (residues, strides, orders) arrays: row g of ``residues`` is
    the residue tuple of basis index g."""
    key = group.orders
    hit = _GROUP_TABLES.get(key)
    if hit is not None:
        return hit
    orders = np.array(key, dtype=np.int64)
    m = len(key)
    strides = np.ones(m, dtype=np.int64)
    for i in range(m - 2, -1, -1):
        strides[i] = strides[i + 1] * key[i + 1]
    dim = int(np.prod(orders))
    idx = np.arange(dim, dtype=np.int64)
    residues = np.empty((dim, m), dtype=np.int64)
    rem = idx
    for i in range(m):
        residues[:, i] = (rem // strides[i]) % key[i]
    result = (residues, strides, orders)
    _GROUP_TABLES[key] = result
    return result


def _roots(expo: np.ndarray, den: int) -> np.ndarray:
    """exp(2*pi*i*expo/den) for an integer exponent array."""
    return np.exp(2j * np.pi * ((expo % den) / den))


def _hom_rows(matrix: HomMatrix, group: Group) -> np.ndarray:
    """Basis index of matrix(g) for every basis index g; raises
    NotInvertibleError, with a kernel witness, unless that is a permutation."""
    residues, strides, orders = _group_tables(group)
    tau = np.array(matrix.entries, dtype=np.int64)
    rows = (residues @ tau.T % orders) @ strides
    kernel = np.flatnonzero(rows == 0)
    if len(kernel) > 1:
        raise NotInvertibleError(
            f"{matrix!r} is not invertible",
            witness=tuple(int(r) for r in residues[kernel[1]]))
    return rows


def _pauli_action(p: PauliOperator, group: Group):
    """(rows, expo, den) with p|h> = exp(2*pi*i*expo[h]/den) |rows[h]>."""
    residues, strides, orders = _group_tables(group)
    den = math.lcm(*group.orders, p.phase.den)
    rows = ((residues + np.array(p.x.residues, dtype=np.int64)) % orders) @ strides
    zco = np.array(p.z.residues, dtype=np.int64) * (den // orders)
    return rows, residues @ zco + p.phase.num * (den // p.phase.den), den


def _quadratic_expo(form: QuadraticForm, group: Group):
    """(expo, den) with form(g) = expo[g]/den mod 1, den = 2*lcm(q)."""
    residues, _strides, orders = _group_tables(group)
    q = group.orders
    den = 2 * math.lcm(*q)
    diag = np.array(form.diag, dtype=np.int64) * (den // (2 * orders))
    linear = np.array(form.linear, dtype=np.int64) * (den // orders)
    cross = np.array([[c * (den // math.gcd(q[i], q[j])) for j, c in enumerate(row)]
                      for i, row in enumerate(form.cross)], dtype=np.int64)
    expo = (residues * residues) @ diag + residues @ linear
    return expo + ((residues @ cross) * residues).sum(axis=1), den


def _gate_action(gate: Gate, group: Group):
    """(rows, phase) with U|g> = phase[g] |rows[g]> for every gate kind but
    Fourier; ``phase`` is None for a pure permutation."""
    if gate.group is not None and gate.group != group:
        raise GroupMismatchError(f"gate over {gate.group!r} applied over {group!r}")
    if isinstance(gate, CXGate):
        base = Group(group.orders[:group.num_factors // 2])
        return _hom_rows(cx_matrix(base, gate.dagger), group), None
    if isinstance(gate, AutomorphismGate):
        return _hom_rows(gate.tau, group), None
    if isinstance(gate, QuadraticGate):
        expo, den = _quadratic_expo(gate.form, group)
        return np.arange(group.order), _roots(expo, den)
    if isinstance(gate, PauliGate):
        rows, expo, den = _pauli_action(gate.op, group)
        return rows, _roots(expo, den)
    raise TypeError(f"unknown gate {gate!r}")


def _fourier_matrix(gate: FourierGate, group: Group) -> np.ndarray:
    """F|g> = |G|^-1/2 sum_chi conj(chi(g)) |M chi>, from the character
    table e[chi, g] = sum_i chi_i g_i / q_i (integer numerators mod den)."""
    if gate.group != group:
        raise GroupMismatchError(f"gate over {gate.group!r} applied over {group!r}")
    residues, _strides, orders = _group_tables(group)
    den = math.lcm(*group.orders)
    table = (residues * (den // orders)) @ residues.T
    mat = np.empty((group.order, group.order), dtype=complex)
    mat[_hom_rows(gate.matrix, group)] = _roots(-table, den) / math.sqrt(group.order)
    return mat.conj().T if gate.dagger else mat


def pauli_matrix(p: PauliOperator, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    return gate_matrix(PauliGate(p), p.group, cap)


def pauli_apply(p: PauliOperator, state: np.ndarray) -> np.ndarray:
    """Apply a Pauli over the state's full group without materialising it."""
    rows, expo, den = _pauli_action(p, p.group)
    out = np.zeros_like(state)
    out[rows] = _roots(expo, den) * state
    return out


def gate_matrix(gate: Gate, group: Group, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """The unitary of a gate over ``group`` (for CX, ``group`` is the
    two-slot product), materialized from the action ``apply_gate`` uses."""
    _check_cap(group.order, cap)
    if isinstance(gate, FourierGate):
        return _fourier_matrix(gate, group)
    rows, phase = _gate_action(gate, group)
    mat = np.zeros((group.order, group.order), dtype=complex)
    mat[rows, np.arange(group.order)] = 1.0 if phase is None else phase
    return mat


def apply_gate(state: np.ndarray, gate: Gate, slots, base: Group, n: int,
               cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Apply a gate supported on ``slots`` to an n-qudit state over base^n.

    Only the gate's own axes are touched: Fourier contracts them with its
    matrix, every other gate gathers them by its row map and phases."""
    k = base.num_factors
    local = Group(base.orders * len(slots))
    _check_cap(local.order, cap)
    axes = [s * k + f for s in slots for f in range(k)]
    order = axes + [a for a in range(n * k) if a not in axes]
    moved = state.reshape(base.orders * n).transpose(order)
    flat = moved.reshape(local.order, -1)
    if isinstance(gate, FourierGate):
        flat = _fourier_matrix(gate, local) @ flat
    else:
        rows, phase = _gate_action(gate, local)
        out = np.empty_like(flat)
        out[rows] = flat if phase is None else phase[:, None] * flat
        flat = out
    return flat.reshape(moved.shape).transpose(np.argsort(order)).reshape(-1)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return abs(np.vdot(a, b)) >= 1.0 - tol


def _measured_action(vec: PauliVector):
    """(rows, expo, den, m) for the order-m unitary measured for a Pauli
    vector observable, U|h> = exp(2*pi*i*expo[h]/den) |rows[h]>.

    m is the order of the vector.  U is the vector's Pauli P times the
    phase that makes U^m exactly the identity, so outcomes are plain
    m-th-root exponents.  P^m is the scalar whose exponent is the sum of
    P's exponents along the orbit of basis index 0.
    """
    m = vec.order
    rows, expo, den = _pauli_action(PauliOperator.from_vector(vec), vec.group)
    total, h = 0, 0
    for _ in range(m):
        total += int(expo[h])
        h = rows[h]
    if h != 0:
        raise AssertionError("vector order computation is wrong")
    return rows, m * expo - total % den, m * den, m


def measurement_projections(state: np.ndarray, vec: PauliVector,
                            tol: float = 1e-12):
    """All (outcome, probability, normalized post-state) triples with
    nonzero probability for measuring the canonical unitary of ``vec``:
    the projection on outcome s is (1/m) sum_t exp(-2*pi*i*s*t/m) U^t."""
    rows, expo, den, m = _measured_action(vec)
    phase = _roots(expo, den)
    powers = np.empty((m, len(state)), dtype=complex)
    powers[0] = state
    for t in range(1, m):
        powers[t][rows] = phase * powers[t - 1]
    ts = np.arange(m)
    projs = _roots(-np.outer(ts, ts), m) @ powers / m
    probs = np.einsum("ij,ij->i", projs.conj(), projs).real
    return [(s, float(probs[s]), projs[s] / math.sqrt(probs[s]))
            for s in range(m) if probs[s] > tol]


@dataclass
class DenseState:
    base: Group
    n: int
    vector: np.ndarray

    @property
    def group(self) -> Group:
        return product_group(self.base, self.n)

    @classmethod
    def zeros(cls, base: Group, n: int, cap: int = DEFAULT_DENSE_CAP) -> "DenseState":
        big = product_group(base, n)
        _check_cap(big.order, cap)
        return cls(base, n, basis_state(big, (0,) * big.num_factors))


def tableau_faithful(tableau: CliffordTableau, gate: Gate, group: Group,
                     cap: int = DEFAULT_DENSE_CAP, tol: float = 1e-9) -> bool:
    """Dense check that conjugation by the gate's unitary matches the
    tableau prediction on every Pauli generator."""
    u = gate_matrix(gate, group, cap)
    ident = CliffordTableau.identity(group)
    for p in ident.x_images + ident.z_images:
        lhs = u @ pauli_matrix(p, cap) @ u.conj().T
        rhs = pauli_matrix(tableau.conjugate(p), cap)
        if np.max(np.abs(lhs - rhs)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# circuit execution

def _initial_vector(circuit, cap: int) -> np.ndarray:
    base = circuit.base
    _check_cap(base.order ** circuit.n, cap)
    per_slot = []
    magic = {op.slot: op for op in circuit.ops if isinstance(op, MagicPrepOp)}
    for s in range(circuit.n):
        if s in magic:
            table = decode_phase_table(base, magic[s].table)
            vec = np.zeros(base.order, dtype=complex)
            for g, ph in table.items():
                vec[element_index(base, g.residues)] = ph.to_complex()
            vec /= np.linalg.norm(vec)
        else:
            vec = basis_state(base, (0,) * base.num_factors)
        per_slot.append(vec)
    state = per_slot[0]
    for vec in per_slot[1:]:
        state = np.kron(state, vec)
    return state


class _Backend:
    """The dense backend of one circuit as :func:`circuits.interpret`
    drives it; states are plain vectors."""

    unit = 1.0

    def __init__(self, circuit, cap: int):
        self.base, self.n, self.cap = circuit.base, circuit.n, cap

    def apply(self, state: np.ndarray, gate: Gate, slots) -> np.ndarray:
        return apply_gate(state, gate, slots, self.base, self.n, self.cap)

    @staticmethod
    def outcomes(state: np.ndarray, vec: PauliVector):
        branches = measurement_projections(state, vec)
        return [(s, p) for s, p, _ in branches], branches

    @staticmethod
    def project(state: np.ndarray, branches, outcome: int, last: bool):
        return next(st for s, _, st in branches if s == outcome)


def run_circuit(circuit, rng=None, seed=None, cap: int = DEFAULT_DENSE_CAP):
    """Run one dense trajectory; returns (DenseState, measurement record)."""
    vector, record = sample_trajectory(circuit, _Backend(circuit, cap),
                                       _initial_vector(circuit, cap), rng, seed)
    return DenseState(circuit.base, circuit.n, vector), record


def enumerate_branches(circuit, cap: int = DEFAULT_DENSE_CAP):
    """Every measurement branch as (record, DenseState, probability)."""
    return [(record, DenseState(circuit.base, circuit.n, vector), prob)
            for record, vector, prob in interpret(circuit, _Backend(circuit, cap),
                                                  _initial_vector(circuit, cap))]
