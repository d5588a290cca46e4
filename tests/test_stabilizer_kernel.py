"""The integer stabilizer kernel against its definitions.

``ReferenceState`` is the list/``Fraction`` engine the integer kernel
replaced: generators are ``[x, z, Phase]`` lists multiplied by the raw
Pauli product, gates conjugate each generator's local pattern through
``CliffordTableau.conjugate``, and the echelon runs column Euclid one pair
of generators at a time.  It is slow and plainly correct; the tests hold
the closed forms, the gate kernel and whole branch enumerations to it.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gclifford import stabilizer
from gclifford.circuits import (GateOp, MeasureOp, embed_vector,
                                resolve_correction)
from gclifford.clifford import (CXGate, FourierGate, PauliGate, QuadraticGate,
                                gate_tableau)
from gclifford.forms import Character, QuadraticForm
from gclifford.groups import Group, GroupElement, HomMatrix, product_group
from gclifford.intmat import ext_gcd
from gclifford.pauli import PauliOperator, PauliVector
from gclifford.phases import Phase
from gclifford.stabilizer import StabilizerState, enumerate_branches
from gclifford.verify import random_clifford_circuit

from test_dense_kernels import gate_cases

KERNEL_GROUPS = [(2,), (3,), (4,), (2, 4), (4, 2), (8, 2), (3, 3)]
# (gate, local orders) -> (tableau, local pattern -> image), as the
# replaced engine kept them across states
REFERENCE_MEMO = {}


class ReferenceState:
    """Stabilizer state with list generators and ``Phase`` arithmetic."""

    def __init__(self, base: Group, n: int):
        self.base = base
        self.orders = base.orders * n
        self.m = len(self.orders)
        self.big = product_group(base, n)
        self.den = lcm(*self.orders)
        self.gens = []
        for r in range(self.m):
            z = [0] * self.m
            z[r] = 1
            self.gens.append([[0] * self.m, z, Phase()])
        self._pivots = None

    def _mul(self, a, b):
        cross = sum(a[1][i] * b[0][i] * (self.den // self.orders[i])
                    for i in range(self.m))
        x = [(a[0][i] + b[0][i]) % self.orders[i] for i in range(self.m)]
        z = [(a[1][i] + b[1][i]) % self.orders[i] for i in range(self.m)]
        return [x, z, a[2] + b[2] + Phase(cross, self.den)]

    def _inv(self, a):
        cross = sum(a[1][i] * a[0][i] * (self.den // self.orders[i])
                    for i in range(self.m))
        x = [(-v) % self.orders[i] for i, v in enumerate(a[0])]
        z = [(-v) % self.orders[i] for i, v in enumerate(a[1])]
        return [x, z, -a[2] + Phase(cross, self.den)]

    def _pow(self, a, k):
        if k < 0:
            return self._pow(self._inv(a), -k)
        out = [[0] * self.m, [0] * self.m, Phase()]
        while k:
            if k & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            k >>= 1
        return out

    def clone(self):
        out = ReferenceState.__new__(ReferenceState)
        out.__dict__.update(self.__dict__)
        out.gens = [[g[0][:], g[1][:], g[2]] for g in self.gens]
        return out

    def generator_operators(self):
        return [PauliOperator(self.big, g[2], GroupElement(self.big, tuple(g[0])),
                              Character(self.big, tuple(g[1]))) for g in self.gens]

    def apply_gate(self, gate, slots):
        k = self.base.num_factors
        local = product_group(self.base, len(slots))
        key = (gate, local.orders)
        if key not in REFERENCE_MEMO:
            REFERENCE_MEMO[key] = (gate_tableau(gate, local), {})
        tab, memo = REFERENCE_MEMO[key]
        idxs = [s * k + f for s in slots for f in range(k)]
        for gen in self.gens:
            lx = tuple(gen[0][i] for i in idxs)
            lz = tuple(gen[1][i] for i in idxs)
            hit = memo.get((lx, lz))
            if hit is None:
                img = tab.conjugate(PauliOperator(
                    local, Phase(), GroupElement(local, lx), Character(local, lz)))
                hit = memo[(lx, lz)] = (img.x.residues, img.z.residues, img.phase)
            for pos, i in enumerate(idxs):
                gen[0][i] = hit[0][pos]
                gen[1][i] = hit[1][pos]
            gen[2] = gen[2] + hit[2]
        self._pivots = None

    def _ensure_pivots(self):
        if self._pivots is not None:
            return
        lorders = list(self.orders) * 2
        rows = 2 * self.m
        work = [[g[0] + g[1], [g[0][:], g[1][:], g[2]]] for g in self.gens]
        pivots = []
        for r in range(rows):
            mr = lorders[r]
            bucket = [c for c in work if c[0][r] % mr]
            rest = [c for c in work if not c[0][r] % mr]
            while len(bucket) > 1:
                c1, c2 = bucket[-2], bucket[-1]
                while c2[0][r] % mr:
                    q = (c1[0][r] % mr) // (c2[0][r] % mr)
                    if q:
                        c1[1] = self._mul(c1[1], self._pow(c2[1], -q))
                        c1[0] = [(c1[0][i] - q * c2[0][i]) % lorders[i]
                                 for i in range(rows)]
                    c1, c2 = c2, c1
                if any(c2[0]):
                    rest.append(c2)
                else:
                    assert_identity(c2[1])
                bucket = bucket[:-2] + [c1]
            if bucket:
                piv = bucket[0]
                p = piv[0][r] % mr
                pivots.append((r, p, piv[0], piv[1]))
                t = mr // gcd(p, mr)
                scaled = [(t * v) % lorders[i] for i, v in enumerate(piv[0])]
                if any(scaled):
                    rest.append([scaled, self._pow(piv[1], t)])
                else:
                    assert_identity(self._pow(piv[1], t))
            work = rest
        for c in work:
            assert not any(c[0])
            assert_identity(c[1])
        self._pivots = pivots

    def membership(self, w):
        """A generator product with vector ``w``, or None."""
        self._ensure_pivots()
        lorders = list(self.orders) * 2
        residual = [w[i] % lorders[i] for i in range(2 * self.m)]
        acc = [[0] * self.m, [0] * self.m, Phase()]
        for (r, p, vec, pauli) in self._pivots:
            mr = lorders[r]
            rem = residual[r] % mr
            if not rem:
                continue
            g = gcd(p, mr)
            if rem % g:
                return None
            xcoef = (rem // g) * pow(p // g, -1, mr // g) % (mr // g)
            residual = [(residual[i] - xcoef * vec[i]) % lorders[i]
                        for i in range(2 * self.m)]
            acc = self._mul(acc, self._pow(pauli, xcoef))
        return None if any(residual) else acc

    def outcome_support(self, vec):
        order = vec.order
        bare = [list(vec.x.residues), list(vec.z.residues), Phase()]
        correction = Phase.from_fraction(-self._pow(bare, order)[2].frac / order)
        op = [bare[0], bare[1], correction]
        v = bare[0] + bare[1]
        for t in range(1, order + 1):
            if order % t == 0:
                witness = self.membership([t * val for val in v])
                if witness is not None:
                    break
        rel = self._mul(self._pow(op, t), self._inv(witness))
        assert not any(rel[0]) and not any(rel[1])
        cfrac = rel[2].frac * order / t
        assert cfrac.denominator == 1
        c = int(cfrac) % (order // t)
        outcomes = sorted((c + j * (order // t)) % order for j in range(t))
        return outcomes, Fraction(1, t), (op, order, t, v)

    def collapse(self, support, outcome):
        op, order, t0, v = support
        if t0 == 1:
            return
        bvals = []
        for gen in self.gens:
            total = sum((gen[1][i] * v[i] - v[self.m + i] * gen[0][i])
                        * (self.den // self.orders[i]) for i in range(self.m))
            assert total * order % self.den == 0
            bvals.append((total * order // self.den) % order)
        k = len(self.gens)
        new_gens = [[g[0][:], g[1][:], g[2]] for g in self.gens]
        if any(bvals):
            first = next(j for j in range(k) if bvals[j])
            g = bvals[first]
            u = [0] * k
            u[first] = 1
            for j in range(first + 1, k):
                if bvals[j]:
                    g, xc, yc = ext_gcd(g, bvals[j])
                    u = [xc * val for val in u]
                    u[j] += yc
            coeff_rows = []
            for j in range(k):
                coeffs = [(1 if i == j else 0) - (bvals[j] // g) * u[i]
                          for i in range(k)]
                coeff_rows.append(coeffs)
            coeff_rows.append([(order // gcd(g, order)) * val for val in u])
            new_gens = []
            for coeffs in coeff_rows:
                if any(coeffs):
                    out = [[0] * self.m, [0] * self.m, Phase()]
                    for j, c in enumerate(coeffs):
                        if c:
                            out = self._mul(out, self._pow(self.gens[j], c))
                    new_gens.append(out)
        new_gens.append([op[0][:], op[1][:], op[2] + Phase(-outcome, order)])
        self.gens = new_gens
        self._pivots = None
        self._ensure_pivots()
        self.gens = [[p[0][:], p[1][:], p[2]] for (_r, _p, _v, p) in self._pivots]
        self._pivots = None


def assert_identity(pauli):
    assert not any(pauli[0]) and not any(pauli[1]) and pauli[2].is_zero()


def reference_branches(circuit):
    """Every branch as (record, ReferenceState, exact prob)."""
    results = []

    def walk(state, idx, record, prob):
        for i in range(idx, len(circuit.ops)):
            op = circuit.ops[i]
            if isinstance(op, GateOp):
                state.apply_gate(op.gate, op.slots)
            elif isinstance(op, MeasureOp):
                vec = embed_vector(op.observable(circuit.base), op.slots,
                                   circuit.base, circuit.n)
                outcomes, p, support = state.outcome_support(vec)
                for s in outcomes:
                    branch = state.clone()
                    branch.collapse(support, s)
                    walk(branch, i + 1, {**record, op.register: s}, prob * p)
                return
            else:
                state.apply_gate(resolve_correction(op, circuit.base, record),
                                 op.slots)
        results.append((record, state, prob))

    walk(ReferenceState(circuit.base, circuit.n), 0, {}, Fraction(1))
    return results


def assert_same_groups(state: StabilizerState, ref: ReferenceState):
    """Every generator of each engine is in the other's group, phase and all."""
    for gen in state.generator_operators():
        witness = ref.membership(list(gen.x.residues + gen.z.residues))
        assert witness is not None and witness[2] == gen.phase, gen
    for gen in ref.generator_operators():
        w = np.array(gen.x.residues + gen.z.residues, dtype=state.dtype)
        phase = state._membership(w)
        assert phase is not None and Phase(phase, state.D) == gen.phase, gen


def rows_of(state: StabilizerState, ops):
    V = np.array([op.x.residues + op.z.residues for op in ops], dtype=state.dtype)
    P = np.array([(op.phase.frac * state.D).numerator for op in ops],
                 dtype=state.dtype)
    return V, P


def operator_of(state: StabilizerState, row, phase):
    m, big = state.m, state.big
    return PauliOperator(big, Phase(int(phase), state.D),
                         GroupElement(big, tuple(int(a) for a in row[:m])),
                         Character(big, tuple(int(a) for a in row[m:])))


@st.composite
def pauli_pairs(draw):
    orders = draw(st.sampled_from(KERNEL_GROUPS))
    group = Group(orders)
    D = 2 * lcm(*orders)

    def pauli():
        return PauliOperator(
            group, Phase(draw(st.integers(0, D - 1)), D),
            GroupElement(group, tuple(draw(st.integers(0, q - 1)) for q in orders)),
            Character(group, tuple(draw(st.integers(0, q - 1)) for q in orders)))

    return pauli(), pauli(), draw(st.integers(-3 * D, 3 * D))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=pauli_pairs())
def test_closed_form_product_and_power(case):
    a, b, k = case
    state = StabilizerState(a.group, 1)
    D = state.D
    V, P = rows_of(state, [a, b])
    rows, phases = state._combine(np.array([[1, 1]], dtype=state.dtype), V, P)
    assert operator_of(state, rows[0], phases[0]) == a * b
    rows, phases = state._combine(np.array([[k]], dtype=state.dtype), V[:1], P[:1])
    assert operator_of(state, rows[0], phases[0]) == a.pow(k)
    # phase(a^k) = k p + C(k, 2) c without reducing k
    c = int(state._cross(V[:1], V[:1])[0, 0])
    assert Phase(k * int(P[0]) + k * (k - 1) // 2 * c, D) == a.pow(k).phase


@pytest.mark.parametrize("orders", KERNEL_GROUPS)
def test_apply_gate_matches_tableau_conjugation(orders):
    base = Group(orders)
    rng = random.Random(str(orders))
    n = 3
    big = product_group(base, n)
    slot_choices = {1: [(0,), (2,)], 2: [(2, 0), (0, 2), (1, 0), (0, 1)]}
    for nslots in (1, 2):
        local = product_group(base, nslots)
        for name, gate in gate_cases(local, rng, nslots == 2):
            tab = gate_tableau(gate, local)
            for slots in slot_choices[nslots]:
                state = StabilizerState(base, n)
                ops = [PauliOperator(big, Phase(rng.randrange(state.D), state.D),
                                     big.random_element(rng),
                                     Character(big, tuple(rng.randrange(q)
                                                          for q in big.orders)))
                       for _ in range(5)]
                state.V, state.P = rows_of(state, ops)
                state.apply_gate(gate, slots)
                k = base.num_factors
                idxs = [s * k + f for s in slots for f in range(k)]
                for op, got in zip(ops, state.generator_operators()):
                    img = tab.conjugate(PauliOperator(
                        local, Phase(),
                        GroupElement(local, tuple(op.x.residues[i] for i in idxs)),
                        Character(local, tuple(op.z.residues[i] for i in idxs))))
                    x, z = list(op.x.residues), list(op.z.residues)
                    for pos, i in enumerate(idxs):
                        x[i] = img.x.residues[pos]
                        z[i] = img.z.residues[pos]
                    want = PauliOperator(big, op.phase + img.phase,
                                         GroupElement(big, tuple(x)),
                                         Character(big, tuple(z)))
                    assert got == want, (orders, name, slots)
            # one integer row per local generator image
            rows = stabilizer._CONJ_CACHE[(gate, local.orders)]
            assert rows.shape[0] == 2 * local.num_factors


@pytest.mark.parametrize("orders", [(2,), (2, 4)])
def test_criterion_9_corpus_matches_reference(orders):
    """The circuits of acceptance criterion 9: the same branch records in
    the same order (so the same outcome list at every measurement), the
    same exact probabilities, and equal stabilizer groups."""
    base = Group(orders)
    rng = random.Random(909 + sum(orders))
    for i in range(100):
        n = rng.choice([1, 2, 3]) if base.order ** 3 <= 1024 else rng.choice([1, 2])
        circuit = random_clifford_circuit(
            base, n, rng, num_gates=rng.randint(4, 12),
            num_measurements=rng.randint(1, 4))
        ref = reference_branches(circuit)
        got = enumerate_branches(circuit)
        assert [(r, p) for r, _, p in got] == [(r, p) for r, _, p in ref], i
        for (_r, state, _p), (_r2, ref_state, _p2) in zip(got, ref):
            state.validate()
            assert_same_groups(state, ref_state)


def test_large_modulus_uses_python_integers():
    q = 2 ** 40
    base = Group((q,))
    state = StabilizerState(base, 2)
    ref = ReferenceState(base, 2)
    assert state.dtype is object
    big = state.big
    one = product_group(base, 1)
    shift = PauliGate(PauliOperator.x_shift(one.element((q // 2 + 3,))))
    gates = [(FourierGate(HomMatrix.identity(one)), (0,)),
             (QuadraticGate(QuadraticForm(one, (3,), ((0,),), (5,))), (0,)),
             (CXGate(), (0, 1)), (shift, (1,)), (CXGate(True), (1, 0))]
    for gate, slots in gates:
        state.apply_gate(gate, slots)
        ref.apply_gate(gate, slots)
    state.validate()
    assert_same_groups(state, ref)
    # observables of small order: both engines give the same support
    for x, z in (((0, 0), (q // 4, q // 4)), ((q // 2, 0), (0, 0))):
        vec = PauliVector(big, big.element(x), Character(big, z))
        outcomes, prob, support = state.outcome_support(vec)
        ref_outcomes, ref_prob, ref_support = ref.outcome_support(vec)
        assert (outcomes, prob) == (ref_outcomes, ref_prob)
        s = outcomes[-1]
        state._collapse(support, s)
        ref.collapse(ref_support, s)
        state.validate()
        assert_same_groups(state, ref)
    # a full-order observable on a basis state: Z on |a> reads out a
    basis = StabilizerState(base, 1)
    basis.apply_gate(PauliGate(PauliOperator.x_shift(one.element((q - 7,)))), (0,))
    z = PauliVector(one, one.zero(), Character(one, (1,)))
    assert basis.measure(z) == (q - 7, 1)
    assert all(type(v) is int for v in basis.V.ravel())


def test_validate_names_its_witness():
    base = Group((2, 4))
    state = StabilizerState(base, 2)
    state.apply_gate(FourierGate(HomMatrix.identity(base)), (1,))
    state.validate()
    # Z on factor 1 has order 4; a phase of 1/8 breaks Z^4 = 1
    bad = state.clone()
    bad.P[1] = state.D // 8
    with pytest.raises(AssertionError, match="generator 1 violates the power relation"):
        bad.validate()
    # X on factor 0 against Z on factor 0: (Z_0 X_0 Z_0^-1 X_0^-1) = -1
    bad = state.clone()
    bad.V[2] = 0
    bad.V[2, 0] = 1
    with pytest.raises(AssertionError, match="generators 0 and 2 do not commute"):
        bad.validate()
