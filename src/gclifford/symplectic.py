"""The symplectic group over G x G^ and the constructive reduction of any
symplectic map to Fourier, quadratic-phase and automorphism gates.

Vectors over L = G x G^ are residue tuples of length 2m (element part
first); the commutation pairing is
``beta((g0,c0),(g1,c1)) = c0(g1) - c1(g0)``; a matrix preserves it when
C^T J C == J mod lcm(q) in integers (``clifford.pairing_witness``).
The decomposition clears one pivot pair (X_t, Z^_t) per round by
left-multiplying the working matrix, an integer array, with exact gate
images (``clifford.gate_image``), asserting the expected shape and the
pairing after every step; the emitted gate list is the reversed inverse of
the moves.  Gate images are read through ``clifford.image_array``, which
memoizes them as read-only arrays, so a gate repeated within or across
decompositions is imaged and validated once; products are array products
reduced mod the orders.

Fourier moves on a strict subset of the factors are not generator gates;
they are synthesized with the split-subgroup circuit
(``split_fourier_gates``: two full Fourier gates sandwiched between three
quadratic gates, plus an inversion on the spectator factors), whose net
image acts as identity on the cleared block.  It is the one statement of
that circuit: ``protocols.build_split_fourier`` emits it with the block
first, and the dense oracle checks it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .clifford import (AutomorphismGate, CliffordTableau, FourierGate, Gate,
                       PauliGate, QuadraticGate, doubled_group,
                       gate_image,  # noqa: F401  (re-exported: tests and perfbench read it here)
                       gate_inverse, gate_pauli, image_array, image_name,
                       matrix_dtype, pairing_witness, sequence_tableau)
from .elementary import column_clear_moves, moves_matrix
from .errors import (GroupMismatchError, NotExtendableError, NotSymplecticError,
                     ReductionError)
from .forms import (QuadraticForm, SymmetricBilinearForm,
                    bilinear_from_hom, induced_hom, i_xi_matrix, lift_bilinear,
                    polarize, standard_nondegenerate_form)
from .groups import (Group, GroupElement, HomMatrix, invert_automorphism,
                     is_automorphism)
from .intmat import stab_multiplier
from .pauli import row_operator, row_params

__all__ = [
    "SymplecticMap", "is_symplectic", "sequence_image",
    "tableau_image", "extend_to_automorphism", "decompose",
    "decompose_clifford", "random_symplectic", "split_fourier_gates",
    "split_fourier_iso",
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


def is_symplectic(sigma: SymplecticMap) -> bool:
    return (is_automorphism(sigma.matrix)
            and pairing_witness(sigma.group.orders, sigma.matrix.entries) is None)


def _left_apply(gates, group: Group, mat: np.ndarray) -> np.ndarray:
    """The gates' memoized images times ``mat``, row i reduced mod the
    order of factor i of G x G^ after each product."""
    moduli = np.array(group.orders * 2, dtype=mat.dtype)[:, None]
    for gate in gates:
        mat = image_array(gate, group) @ mat % moduli
    return mat


def _image(gates, group: Group) -> HomMatrix:
    """Product of the gate images, validated once."""
    ident = np.eye(2 * group.num_factors, dtype=np.int64).astype(matrix_dtype(group.orders))
    big = doubled_group(group)
    return HomMatrix(big, big, tuple(map(tuple, _left_apply(gates, group, ident).tolist())))


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
    tau = moves_matrix(group, column_clear_moves(group.orders, list(v.residues), 0,
                                                 list(range(group.num_factors))))
    if not (is_automorphism(tau) and tau.apply(v) == group.generator(0)):
        raise NotExtendableError("constructed map failed validation")
    return tau


def _extend_by_zero(group: Group, form: QuadraticForm, start: int) -> QuadraticForm:
    """``form`` on the factors ``start, start+1, ...`` of ``group``, read
    as a form on all of ``group`` that ignores the other factors."""
    m, k = group.num_factors, form.group.num_factors

    def pad(row):
        return (0,) * start + tuple(row) + (0,) * (m - start - k)

    zero_rows = ((0,) * m,)
    cross = zero_rows * start + tuple(map(pad, form.cross)) + zero_rows * (m - start - k)
    return QuadraticForm(group, pad(form.diag), cross, pad(form.linear))


def split_fourier_gates(group: Group, xi: QuadraticForm, start: int,
                        spectator_iso: HomMatrix | None = None) -> list[Gate]:
    """The split-subgroup circuit: a Fourier transform on the block of
    factors ``start, start+1, ...`` that ``xi`` lives on, and the identity
    on the other (spectator) factors, up to global phase.

    The gates are S, F, S, F, S on the full group, then A: S is ``xi``
    extended by zero, F has the block-diagonal iso matrix
    ``i_xi_matrix(xi)`` on the block and ``spectator_iso`` (the identity
    by default) on the spectators, and A inverts the spectators.  The
    block's transform is the Fourier gate of ``split_fourier_iso(xi)``.
    """
    m, k = group.num_factors, xi.group.num_factors
    block = range(start, start + k)
    if group.orders[start:start + k] != xi.group.orders:
        raise GroupMismatchError("the form's group is not the block at start")
    spectators = [i for i in range(m) if i not in block]
    iso = [[int(i == j) for j in range(m)] for i in range(m)]
    blocks = [(block, i_xi_matrix(xi))]
    if spectator_iso is not None:
        blocks.append((spectators, spectator_iso))
    for idx, hom in blocks:
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                iso[i][j] = hom.entries[a][b]
    inv = tuple(tuple((-1 if i in spectators else 1) if i == j else 0 for j in range(m))
                for i in range(m))
    s_gate = QuadraticGate(_extend_by_zero(group, xi, start))
    f_gate = FourierGate(HomMatrix(group, group, tuple(map(tuple, iso))))
    a_gate = AutomorphismGate(HomMatrix(group, group, inv))
    return [s_gate, f_gate, s_gate, f_gate, s_gate, a_gate]


def split_fourier_iso(xi: QuadraticForm) -> HomMatrix:
    """Iso matrix of the Fourier gate the split circuit realizes on the
    block: the inverse of the polarization's induced map."""
    return invert_automorphism(induced_hom(polarize(xi)))


class _Reduction:
    """Working state of the symplectic elimination."""

    def __init__(self, sigma: SymplecticMap):
        self.group = sigma.group
        self.orders = sigma.group.orders
        self.m = sigma.group.num_factors
        self.mat = np.array(sigma.matrix.entries, dtype=matrix_dtype(self.orders))
        self.applied: list[Gate] = []

    def check(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ReductionError(f"symplectic reduction: {msg}")

    def apply(self, gates: list[Gate]) -> None:
        """Left-multiply by the gates' images."""
        self.mat = _left_apply(gates, self.group, self.mat)
        self.applied.extend(gates)
        # every intermediate matrix must stay symplectic; the moves are
        # automorphism images, so only the pairing needs re-checking
        witness = pairing_witness(self.orders, self.mat)
        if witness is not None:
            i, j = witness
            raise ReductionError(
                f"an intermediate matrix stopped being symplectic: {image_name(i, self.m)} "
                f"and {image_name(j, self.m)} do not pair as their generators do")

    def column(self, j: int) -> list[int]:
        return self.mat[:, j].tolist()

    def pivot_clean(self, t: int) -> bool:
        unit = np.eye(2 * self.m, dtype=np.int64)
        return all((self.mat[:, pos] == unit[pos]).all() and (self.mat[pos] == unit[pos]).all()
                   for pos in (t, self.m + t))

    def round(self, t: int) -> None:
        if self.pivot_clean(t):
            return
        m, q = self.m, self.orders
        remaining = list(range(t, m))
        if t == 0:
            fourier_gates = [FourierGate(HomMatrix.identity(self.group))]
        else:
            fourier_gates = split_fourier_gates(
                self.group, standard_nondegenerate_form(Group(q[t:])), t)

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
        tau = moves_matrix(self.group, column_clear_moves(list(q), vec, t, remaining))
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
            s_hat = QuadraticGate(_extend_by_zero(
                self.group, lift_bilinear(bilinear_from_hom(bneg)), t))
            gates = list(fourier_gates) + [s_hat] + \
                [gate_inverse(gg) for gg in reversed(fourier_gates)]
            self.apply(gates)
        self.check(self.column(t) == [1 if i == t else 0 for i in range(2 * m)],
                   "dual clear disturbed the pivot column")
        self.check(self.column(m + t) == [1 if i == m + t else 0 for i in range(2 * m)],
                   "dual column did not clear")

        # Symplecticity forces the pivot rows clean as well.
        self.check(self.mat[t].tolist() == [1 if j == t else 0 for j in range(2 * m)],
                   "pivot row is not clean")
        self.check(self.mat[m + t].tolist() == [1 if j == m + t else 0 for j in range(2 * m)],
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
    red.check(np.array_equal(red.mat, np.eye(2 * group.num_factors, dtype=np.int64)),
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
    # the residue is conjugation by X_g Z_chi: X_i picks up chi_i / q_i and
    # Z_i picks up -g_i / q_i, in units of 1/D = 1/(w_i q_i)
    m, D = group.num_factors, row_params(group.orders)[0]
    chi_res, g_res = [], []
    for i, q in enumerate(group.orders):
        w = D // q
        if residue.phases[i] % w or residue.phases[m + i] % w:
            raise ReductionError("residue phase is not a character or element value")
        chi_res.append(residue.phases[i] // w)
        g_res.append(-residue.phases[m + i] // w % q)
    pauli = row_operator(group, g_res + chi_res, 0, D)
    if gate_pauli(pauli) != residue:
        raise ReductionError("Pauli correction does not reproduce the residue")
    return seq + [PauliGate(pauli)]


def random_symplectic(group: Group, rng, length: int | None = None) -> SymplecticMap:
    """Random element sampled as a product of random generator images
    (guaranteed membership; uniformity is not needed for round trips)."""
    from .elementary import random_automorphism
    m = group.num_factors
    length = length if length is not None else 20 * m
    gates: list[Gate] = []
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
        gates.append(gate)
    return SymplecticMap(group, _image(gates, group))
