"""The symplectic group over G x G^ and the constructive reduction of any
symplectic map to Fourier, quadratic-phase and automorphism gates.

Vectors over L = G x G^ are residue tuples of length 2m (element part
first); the commutation pairing is
``beta((g0,c0),(g1,c1)) = c0(g1) - c1(g0)``; a matrix preserves it when
C^T J C == J mod lcm(q) in integers (``clifford.preserves_pairing``).
The decomposition clears one pivot pair (X_t, Z^_t) per round by
left-multiplying the working matrix with exact gate images
(``clifford.gate_image``), asserting the expected shape and the pairing
after every step; the emitted gate list is the reversed inverse of the
moves.

Fourier moves on a strict subset of the factors are not generator gates;
they are synthesized with the split-subgroup circuit (two full Fourier
gates sandwiched between three quadratic gates, plus an inversion on the
spectator factors), whose net image acts as identity on the cleared block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .clifford import (AutomorphismGate, CliffordTableau, FourierGate, Gate,
                       PauliGate, QuadraticGate, doubled_group, gate_image,
                       gate_inverse, gate_pauli, preserves_pairing,
                       sequence_tableau)
from .elementary import column_clear_moves, move_to_hom
from .errors import (NotExtendableError, NotSymplecticError, ReductionError)
from .forms import (Character, QuadraticForm, SymmetricBilinearForm,
                    bilinear_from_hom, induced_hom, i_xi_matrix, lift_bilinear,
                    standard_nondegenerate_form)
from .groups import (Group, GroupElement, HomMatrix, invert_automorphism,
                     is_automorphism)
from .intmat import mat_mul, stab_multiplier
from .pauli import PauliOperator
from .phases import Phase

__all__ = [
    "SymplecticMap", "is_symplectic", "sequence_image",
    "tableau_image", "extend_to_automorphism", "decompose",
    "decompose_clifford", "random_symplectic", "split_fourier_gates",
]


@dataclass(frozen=True)
class SymplecticMap:
    group: Group
    matrix: HomMatrix

    def __post_init__(self):
        big = doubled_group(self.group)
        if self.matrix.source != big or self.matrix.target != big:
            raise ValueError("matrix is not over G x G^")

    @classmethod
    def identity(cls, group: Group) -> "SymplecticMap":
        return cls(group, HomMatrix.identity(doubled_group(group)))

    def compose(self, first: "SymplecticMap") -> "SymplecticMap":
        return SymplecticMap(self.group, self.matrix.compose(first.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticMap):
            return NotImplemented
        return self.group == other.group and self.matrix.entries == other.matrix.entries

    def __hash__(self):
        return hash((self.group, self.matrix.entries))


def beta_residues(orders, u, v) -> Phase:
    """Pairing of two residue vectors over G x G^ (element part first)."""
    m = len(orders)
    total = Fraction(0)
    for i in range(m):
        total += Fraction(u[m + i] * v[i] - v[m + i] * u[i], orders[i])
    return Phase.from_fraction(total)


def is_symplectic(sigma: SymplecticMap) -> bool:
    return (is_automorphism(sigma.matrix)
            and preserves_pairing(sigma.group.orders, sigma.matrix.entries))


def _image(gates, group: Group) -> HomMatrix:
    acc = HomMatrix.identity(doubled_group(group))
    for gate in gates:
        acc = gate_image(gate, group).compose(acc)
    return acc


def sequence_image(gates, group: Group) -> SymplecticMap:
    """Image of a gate list applied first-to-last."""
    return SymplecticMap(group, _image(gates, group))


def tableau_image(tableau: CliffordTableau) -> SymplecticMap:
    return SymplecticMap(tableau.group, tableau.vector_matrix())


def extend_to_automorphism(v: GroupElement) -> HomMatrix:
    """An automorphism of a canonical group sending ``v`` to the first
    generator; requires ``v`` to have the maximal order q_0."""
    group = v.group
    if not group.canonical:
        raise NotExtendableError("extension requires a canonical group")
    vec = list(v.residues)
    moves = column_clear_moves(group.orders, vec, 0, list(range(group.num_factors)))
    tau = HomMatrix.identity(group)
    for mv in moves:
        tau = move_to_hom(group, mv).compose(tau)
    if not (is_automorphism(tau) and tau.apply(v) == group.generator(0)):
        raise NotExtendableError("constructed map failed validation")
    return tau


def split_fourier_gates(group: Group, pivot: int) -> list[Gate]:
    """Gate list acting as a Fourier transform on factors ``pivot..`` and
    as the identity on factors below ``pivot`` (up to global phase).

    For pivot == 0 this is a single canonical Fourier gate; otherwise the
    split-subgroup circuit: S, F, S, F, S on the full group with a
    block-diagonal isomorphism, then an inversion on the spectator block.
    """
    m = group.num_factors
    if pivot == 0:
        return [FourierGate(HomMatrix.identity(group))]
    tail = Group(group.orders[pivot:])
    xi_tail = standard_nondegenerate_form(tail)
    # the tail form acted on the full group (zero on spectator factors)
    diag = (0,) * pivot + xi_tail.diag
    cross = tuple(tuple(0 for _ in range(m)) for _ in range(pivot)) + tuple(
        (0,) * pivot + row for row in xi_tail.cross)
    s_gate = QuadraticGate(QuadraticForm(group, diag, cross, (0,) * m))
    # block-diagonal iso: identity on spectators, i_xi on the tail
    ixi = i_xi_matrix(xi_tail)
    iso = [[0] * m for _ in range(m)]
    for i in range(pivot):
        iso[i][i] = 1
    for i in range(m - pivot):
        for j in range(m - pivot):
            iso[pivot + i][pivot + j] = ixi.entries[i][j]
    f_gate = FourierGate(HomMatrix(group, group, tuple(tuple(r) for r in iso)))
    # inversion on the spectator block only
    inv = [[0] * m for _ in range(m)]
    for i in range(m):
        inv[i][i] = -1 if i < pivot else 1
    a_inv = AutomorphismGate(HomMatrix(group, group, tuple(tuple(r) for r in inv)))
    return [s_gate, f_gate, s_gate, f_gate, s_gate, a_inv]


class _Reduction:
    """Working state of the symplectic elimination."""

    def __init__(self, sigma: SymplecticMap):
        self.group = sigma.group
        self.orders = sigma.group.orders
        self.m = sigma.group.num_factors
        self.lorders = self.orders + self.orders
        self.mat = [list(row) for row in sigma.matrix.entries]
        self.applied: list[Gate] = []

    def check(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ReductionError(f"symplectic reduction: {msg}")

    def apply(self, gates: list[Gate]) -> None:
        new = mat_mul(_image(gates, self.group).entries, self.mat)
        self.mat = [[v % q for v in row] for row, q in zip(new, self.lorders)]
        self.applied.extend(gates)
        # every intermediate matrix must stay symplectic; the moves are
        # automorphism images, so only the pairing needs re-checking
        if not preserves_pairing(self.orders, self.mat):
            raise ReductionError("an intermediate matrix stopped being symplectic")

    def column(self, j: int) -> list[int]:
        return [self.mat[i][j] for i in range(2 * self.m)]

    def pivot_clean(self, t: int) -> bool:
        m = self.m
        for pos in (t, m + t):
            for r in range(2 * m):
                want = 1 if r == pos else 0
                if self.mat[r][pos] != want or self.mat[pos][r] != want:
                    return False
        return True

    def round(self, t: int) -> None:
        if self.pivot_clean(t):
            return
        m, q = self.m, self.orders
        remaining = list(range(t, m))
        fourier_gates = split_fourier_gates(self.group, t)

        # Combine each (r_i, r_i') pair of the pivot column into its Z^ slot.
        col = self.column(t)
        coeffs = [[0] * m for _ in range(m)]
        for i in remaining:
            coeffs[i][i] = stab_multiplier(col[m + i], col[i], q[i])
        combine = QuadraticGate(lift_bilinear(
            SymmetricBilinearForm(self.group, tuple(tuple(r) for r in coeffs))))
        targets = {i: gcd(gcd(col[i], col[m + i]), q[i]) for i in remaining}
        self.apply([combine])
        col = self.column(t)
        for i in remaining:
            self.check(gcd(col[m + i], q[i]) == targets[i],
                       "combine step missed the pair ideal")

        # Swap the remaining X and Z^ blocks with a (partial) Fourier move.
        image = _image(fourier_gates, self.group)
        for i in range(t):
            for pos in (i, m + i):
                expected = [1 if r == pos else 0 for r in range(2 * m)]
                self.check([image.entries[r][pos] for r in range(2 * m)] == expected,
                           "partial Fourier touches a cleared factor")
        for i in remaining:
            for j in remaining:
                self.check(image.entries[i][j] == 0 and
                           image.entries[m + i][m + j] == 0,
                           "partial Fourier image is not off-diagonal")
        self.apply(fourier_gates)

        # Map the pivot column's element part to the pivot generator.
        col = self.column(t)
        for i in range(t):
            self.check(col[i] == 0 and col[m + i] == 0, "cleared rows are dirty")
        vec = col[:m]
        order = 1
        for i in remaining:
            order = lcm(order, q[i] // gcd(q[i], vec[i]))
        self.check(order == q[t], "pivot column lost its maximal order")
        moves = column_clear_moves(list(q), vec, t, remaining)
        tau = HomMatrix.identity(self.group)
        for mv in moves:
            tau = move_to_hom(self.group, mv).compose(tau)
        self.apply([AutomorphismGate(tau)])
        col = self.column(t)
        self.check(col[:m] == [1 if i == t else 0 for i in range(m)],
                   "pivot element part is not the generator")

        # Kill the pivot column's character part with a quadratic move.
        w = col[m:]
        coeffs = [[0] * m for _ in range(m)]
        for j in remaining:
            coeffs[t][j] = coeffs[j][t] = (-w[j]) % gcd(q[t], q[j])
        clear = QuadraticGate(lift_bilinear(
            SymmetricBilinearForm(self.group, tuple(tuple(r) for r in coeffs))))
        self.apply([clear])
        col = self.column(t)
        self.check(col == [1 if i == t else 0 for i in range(2 * m)],
                   "pivot column did not clear")

        # The pairing now forces the dual diagonal entry to be 1.
        dual = self.column(m + t)
        self.check(dual[m + t] % q[t] == 1, "dual diagonal entry is not forced to 1")

        # Dual automorphism: send the dual column's character part to the
        # dual generator while fixing the pivot generator.
        rho = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        for i in remaining:
            if i != t:
                rho[i][t] = (-dual[m + i]) % q[i]
        rho_hom = HomMatrix(self.group, self.group, tuple(tuple(r) for r in rho))
        tau_dual = invert_automorphism(rho_hom.dual())
        self.check(tau_dual.apply(self.group.generator(t)) == self.group.generator(t),
                   "dual automorphism moved the pivot generator")
        self.apply([AutomorphismGate(tau_dual)])
        self.check(self.column(t) == [1 if i == t else 0 for i in range(2 * m)],
                   "dual automorphism disturbed the pivot column")
        dual = self.column(m + t)
        self.check(dual[m:] == [1 if i == t else 0 for i in range(m)],
                   "dual column character part did not normalize")

        # Clear the dual column's element part with a conjugated quadratic
        # move F^dagger S F, an upper-triangular image fixing the pivot.
        a = dual[:m]
        if any(a[i] for i in remaining):
            tail = Group(self.group.orders[t:])
            tm = tail.num_factors
            cstar = [[0] * tm for _ in range(tm)]
            for j in remaining:
                cstar[0][j - t] = cstar[j - t][0] = (-a[j]) % gcd(q[t], q[j])
            cstar_mat = induced_hom(SymmetricBilinearForm(
                tail, tuple(tuple(r) for r in cstar)))
            # extract the X<-Z^ block M of the partial Fourier on the tail
            mblock = [[image.entries[t + i][m + t + j] for j in range(tm)]
                      for i in range(tm)]
            m_hom = HomMatrix(tail, tail, tuple(tuple(r) for r in mblock))
            m_inv = invert_automorphism(m_hom)
            binner = m_inv.dual().compose(cstar_mat).compose(m_inv)
            bneg = HomMatrix(tail, tail,
                             tuple(tuple(-v for v in row) for row in binner.entries))
            form_tail = lift_bilinear(bilinear_from_hom(bneg))
            diag = (0,) * t + form_tail.diag
            cross = tuple((0,) * m for _ in range(t)) + tuple(
                (0,) * t + row for row in form_tail.cross)
            s_hat = QuadraticGate(QuadraticForm(self.group, diag, cross, (0,) * m))
            gates = list(fourier_gates) + [s_hat] + \
                [gate_inverse(gg) for gg in reversed(fourier_gates)]
            self.apply(gates)
        self.check(self.column(t) == [1 if i == t else 0 for i in range(2 * m)],
                   "dual clear disturbed the pivot column")
        self.check(self.column(m + t) == [1 if i == m + t else 0 for i in range(2 * m)],
                   "dual column did not clear")

        # Symplecticity forces the pivot rows clean as well.
        for j in range(2 * m):
            self.check(self.mat[t][j] == (1 if j == t else 0),
                       "pivot row is not clean")
            self.check(self.mat[m + t][j] == (1 if j == m + t else 0),
                       "dual pivot row is not clean")


def decompose(sigma: SymplecticMap) -> list[Gate]:
    """Gate sequence (applied first-to-last) whose symplectic image equals
    ``sigma``, built by clearing one factor pair per round."""
    group = sigma.group
    if not group.canonical:
        raise NotSymplecticError("decompose requires a canonical group")
    if not is_symplectic(sigma):
        raise NotSymplecticError("matrix does not preserve the pairing")
    red = _Reduction(sigma)
    for t in range(group.num_factors):
        red.round(t)
    m2 = 2 * group.num_factors
    red.check(all(red.mat[i][j] == (1 if i == j else 0)
                  for i in range(m2) for j in range(m2)),
              "reduction finished away from the identity")
    return [gate_inverse(g) for g in reversed(red.applied)]


def decompose_clifford(tableau: CliffordTableau) -> list[Gate]:
    """Gate sequence (with a trailing Pauli gate) recomposing exactly to
    the given tableau."""
    group = tableau.group
    seq = decompose(tableau_image(tableau))
    partial = sequence_tableau(seq, group)
    residue = tableau.compose(partial.inverse())
    if not residue.vector_matrix().is_identity():
        raise ReductionError("residue is not a Pauli conjugation")
    chi_res, g_res = [], []
    for img, imgz, q in zip(residue.x_images, residue.z_images, group.orders):
        val = img.phase.frac * q
        if val.denominator != 1:
            raise ReductionError("residue phase is not a character value")
        chi_res.append(int(val) % q)
        val = (-imgz.phase).frac * q
        if val.denominator != 1:
            raise ReductionError("residue phase is not an element value")
        g_res.append(int(val) % q)
    pauli = PauliOperator(group, Phase(), GroupElement(group, tuple(g_res)),
                          Character(group, tuple(chi_res)))
    if gate_pauli(pauli) != residue:
        raise ReductionError("Pauli correction does not reproduce the residue")
    return seq + [PauliGate(pauli)]


def random_symplectic(group: Group, rng, length: int | None = None) -> SymplecticMap:
    """Random element sampled as a product of random generator images
    (guaranteed membership; uniformity is not needed for round trips)."""
    from .elementary import random_automorphism
    m = group.num_factors
    length = length if length is not None else 20 * m
    acc = HomMatrix.identity(doubled_group(group))
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            gate: Gate = AutomorphismGate(random_automorphism(group, rng))
        elif kind == 1:
            n = m
            q = group.orders
            diag = tuple(rng.choice([a for a in range(2 * q[i])
                                     if (a * q[i]) % 2 == 0]) for i in range(n))
            cross = tuple(tuple(rng.randrange(gcd(q[i], q[j])) if i < j else 0
                                for j in range(n)) for i in range(n))
            gate = QuadraticGate(QuadraticForm(group, diag, cross, (0,) * n))
        else:
            gate = FourierGate(random_automorphism(group, rng))
        acc = gate_image(gate, group).compose(acc)
    return SymplecticMap(group, acc)
