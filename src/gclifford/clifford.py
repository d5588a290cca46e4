"""Symbolic Clifford unitaries as tableaux of Pauli images.

A tableau records, for each canonical generator X_{e_i} and Z-generator of
the group, the exact Pauli image under conjugation.  That data determines
the unitary up to global phase; two tableaux are equal exactly when the
unitaries agree up to phase.  Conjugation of an arbitrary Pauli
accumulates the generator images in a fixed order (ascending factor, X
block before Z block), which is consistent because all deviations land in
exactly tracked phases.

Gate semantics are stated once, by :func:`gate_image`: the matrix over
G x G^ whose columns are the vectors of the generator images.  Every
non-Pauli tableau is read off those columns; its only phases are a
quadratic gate's values on the generators, on the X images.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .elementary import automorphism_elementary_factors
from .errors import GroupMismatchError
from .forms import (Character, QuadraticForm, induced_hom, polarize)
from .groups import Group, GroupElement, HomMatrix, invert_automorphism, product_group
from .intmat import identity_matrix
from .pauli import PauliOperator
from .phases import Phase

__all__ = [
    "AutomorphismGate", "QuadraticGate", "FourierGate", "PauliGate", "CXGate",
    "CliffordTableau", "gate_image", "gate_tableau", "gate_inverse",
    "sequence_tableau", "preserves_pairing", "two_local_factorize",
]


@dataclass(frozen=True)
class AutomorphismGate:
    tau: HomMatrix

    @property
    def group(self) -> Group:
        return self.tau.source


@dataclass(frozen=True)
class QuadraticGate:
    form: QuadraticForm

    @property
    def group(self) -> Group:
        return self.form.group


@dataclass(frozen=True)
class FourierGate:
    """Fourier transform parameterized by an isomorphism from characters to
    elements, given as an automorphism-shaped matrix under the canonical
    identification."""

    matrix: HomMatrix
    dagger: bool = False

    @property
    def group(self) -> Group:
        return self.matrix.source

    @classmethod
    def canonical(cls, group: Group, dagger: bool = False) -> "FourierGate":
        return cls(HomMatrix.identity(group), dagger)


@dataclass(frozen=True)
class PauliGate:
    op: PauliOperator

    @property
    def group(self) -> Group:
        return self.op.group


@dataclass(frozen=True)
class CXGate:
    """Controlled shift |g, h> -> |g, g + h> on two qudits over one base
    group (dagger: |g, h> -> |g, h - g>)."""

    dagger: bool = False

    @property
    def group(self):
        return None  # resolved against the two slots it is applied to


Gate = AutomorphismGate | QuadraticGate | FourierGate | PauliGate | CXGate


def fourier_plain_inverse(matrix: HomMatrix) -> HomMatrix:
    """The iso matrix m' = -dual(m) with F_{m'} == F_m^dagger exactly."""
    entries = tuple(tuple(-v for v in row) for row in matrix.dual().entries)
    return HomMatrix(matrix.source, matrix.target, entries)


def gate_inverse(gate: Gate) -> Gate:
    if isinstance(gate, AutomorphismGate):
        return AutomorphismGate(invert_automorphism(gate.tau))
    if isinstance(gate, QuadraticGate):
        return QuadraticGate(-gate.form)
    if isinstance(gate, FourierGate):
        if gate.dagger:
            return FourierGate(gate.matrix, False)
        return FourierGate(fourier_plain_inverse(gate.matrix), False)
    if isinstance(gate, PauliGate):
        return PauliGate(gate.op.inverse())
    if isinstance(gate, CXGate):
        return CXGate(not gate.dagger)
    raise TypeError(f"unknown gate {gate!r}")


@dataclass(frozen=True)
class CliffordTableau:
    group: Group
    x_images: tuple[PauliOperator, ...]
    z_images: tuple[PauliOperator, ...]

    @classmethod
    def identity(cls, group: Group) -> "CliffordTableau":
        return cls.from_columns(group, identity_matrix(2 * group.num_factors))

    @classmethod
    def from_columns(cls, group: Group, entries, x_phases=None) -> "CliffordTableau":
        """The tableau whose generator images have the columns of a matrix
        over G x G^ as vectors, with phase zero but for ``x_phases`` on
        the X images."""
        m = group.num_factors
        phases = list(x_phases or [Phase()] * m) + [Phase()] * m
        imgs = [PauliOperator(group, phases[j],
                              GroupElement(group, tuple(row[j] for row in entries[:m])),
                              Character(group, tuple(row[j] for row in entries[m:])))
                for j in range(2 * m)]
        return cls(group, tuple(imgs[:m]), tuple(imgs[m:]))

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        if p.group != self.group:
            raise GroupMismatchError("operator over a different group")
        out = PauliOperator.identity(self.group).with_phase(p.phase)
        for i, e in enumerate(p.x.residues):
            if e:
                out = out * self.x_images[i].pow(e)
        for i, e in enumerate(p.z.residues):
            if e:
                out = out * self.z_images[i].pow(e)
        return out

    def compose(self, first: "CliffordTableau") -> "CliffordTableau":
        """Tableau of U_self . U_first (``first`` acts first)."""
        if first.group != self.group:
            raise GroupMismatchError("tableaux over different groups")
        xs = tuple(self.conjugate(img) for img in first.x_images)
        zs = tuple(self.conjugate(img) for img in first.z_images)
        return CliffordTableau(self.group, xs, zs)

    def vector_matrix(self) -> HomMatrix:
        """The induced automorphism of G x G^ on Pauli vectors."""
        big = doubled_group(self.group)
        cols = [img.vector().residues() for img in self.x_images + self.z_images]
        return HomMatrix(big, big, tuple(zip(*cols)))

    def inverse(self) -> "CliffordTableau":
        raw = CliffordTableau.from_columns(
            self.group, invert_automorphism(self.vector_matrix()).entries)
        ident = CliffordTableau.identity(self.group)

        def preimage(pre: PauliOperator, gen: PauliOperator) -> PauliOperator:
            img = self.conjugate(pre)
            if img.vector() != gen.vector():
                raise ValueError("tableau vector action failed to invert")
            # img is the generator up to phase; cancel that phase.
            return pre.times_phase(-img.phase)

        return CliffordTableau(self.group,
                               tuple(map(preimage, raw.x_images, ident.x_images)),
                               tuple(map(preimage, raw.z_images, ident.z_images)))

    def is_identity(self) -> bool:
        return self == CliffordTableau.identity(self.group)

    def validate(self) -> None:
        """Check the defining invariants: the vector action preserves the
        commutation pairing and each generator image has the right order."""
        n = self.group.num_factors
        cols = [img.vector().residues() for img in self.x_images + self.z_images]
        if not preserves_pairing(self.group.orders, list(zip(*cols))):
            raise ValueError("tableau does not preserve the pairing")
        for i in range(n):
            q = self.group.orders[i]
            if not self.x_images[i].pow(q).is_identity():
                raise ValueError(f"X image {i} does not have order dividing {q}")
            if not self.z_images[i].pow(q).is_identity():
                raise ValueError(f"Z image {i} does not have order dividing {q}")


def doubled_group(group: Group) -> Group:
    return Group(group.orders + group.orders)


def preserves_pairing(orders, entries) -> bool:
    """Whether the columns of a residue matrix C over G x G^ pair as the
    unit vectors do: C^T J C == J mod L = lcm(orders), where J is the
    pairing in units of 1/L, J[m+i][i] = L/q_i = -J[i][m+i]."""
    m = len(orders)
    big_l = lcm(*orders)
    dtype = np.int64 if 2 * m * big_l ** 2 < 2 ** 62 else object
    c = np.array(entries, dtype=dtype)
    j = np.zeros((2 * m, 2 * m), dtype=dtype)
    j[m:, :m] = np.diag(np.array([big_l // q for q in orders], dtype=dtype))
    j = j - j.T
    return not (((c.T @ j) % big_l @ c - j) % big_l).any()


def gate_pauli(op: PauliOperator) -> CliffordTableau:
    inv = op.inverse()
    ident = CliffordTableau.identity(op.group)
    return CliffordTableau(op.group, tuple(op * g * inv for g in ident.x_images),
                           tuple(op * g * inv for g in ident.z_images))


def cx_matrix(base: Group, dagger: bool = False) -> HomMatrix:
    """Automorphism matrix of the controlled shift on base x base."""
    big = product_group(base, 2)
    k = base.num_factors
    n = 2 * k
    entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(k):
        entries[k + i][i] = -1 % big.orders[k + i] if dagger else 1
    return HomMatrix(big, big, tuple(tuple(r) for r in entries))


def gate_image(gate: Gate, group: Group) -> HomMatrix:
    """The action of a gate on Pauli vectors over G x G^ (element part
    first): column j is the vector of the image of generator j.  For CX,
    ``group`` is the two-slot product; a Pauli gate acts as the identity.

    This is the one statement of gate semantics: :func:`gate_tableau`
    reads its images off these columns."""
    if isinstance(gate, CXGate):
        gate = AutomorphismGate(cx_matrix(Group(group.orders[:group.num_factors // 2]),
                                          gate.dagger))
    elif isinstance(gate, FourierGate) and gate.dagger:
        gate = FourierGate(fourier_plain_inverse(gate.matrix))
    m = group.num_factors
    big = doubled_group(group)
    zero = ((0,) * m,) * m
    if isinstance(gate, AutomorphismGate):
        xx, xz = gate.tau.entries, zero
        zx, zz = zero, invert_automorphism(gate.tau).dual().entries
    elif isinstance(gate, QuadraticGate):
        xx = zz = HomMatrix.identity(group).entries
        xz, zx = zero, induced_hom(polarize(gate.form)).entries
    elif isinstance(gate, FourierGate):
        xx, xz = zero, gate.matrix.entries
        zx = tuple(tuple(-v for v in row)
                   for row in invert_automorphism(gate.matrix).dual().entries)
        zz = zero
    elif isinstance(gate, PauliGate):
        return HomMatrix.identity(big)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return HomMatrix(big, big, tuple(a + b for a, b in zip(xx + zx, xz + zz)))


def gate_tableau(gate: Gate, group: Group | None = None) -> CliffordTableau:
    """Tableau of a gate over ``group`` (required for CX: the two-slot
    product).  Apart from Pauli gates, each generator image is read off the
    columns of :func:`gate_image`; the only phases are a quadratic gate's
    on its X images, the form's values on the generators."""
    if gate.group is not None:
        if group is not None and group != gate.group:
            raise GroupMismatchError(f"gate over {gate.group!r} used over {group!r}")
        group = gate.group
    elif group is None:
        raise ValueError("CX tableau needs the two-slot group")
    if isinstance(gate, PauliGate):
        return gate_pauli(gate.op)
    phases = None
    if isinstance(gate, QuadraticGate):
        phases = [gate.form.eval(group.generator(i)) for i in range(group.num_factors)]
    return CliffordTableau.from_columns(group, gate_image(gate, group).entries, phases)


def sequence_tableau(gates, group: Group) -> CliffordTableau:
    """Tableau of a gate list applied first-to-last."""
    out = CliffordTableau.identity(group)
    for gate in gates:
        out = gate_tableau(gate, group).compose(out)
    return out


def two_local_factorize(tau: HomMatrix, base: Group, n: int) -> list[HomMatrix]:
    """Split an automorphism of base^n into automorphisms touching at most
    two slots; composing the returned list in order (first entry applied
    last) reproduces ``tau``.

    Elementary Gaussian moves each touch at most two cyclic factors, hence
    at most two slots; adjacent moves inside one slot pair are merged.
    """
    big = product_group(base, n)
    if tau.source != big or tau.target != big:
        raise GroupMismatchError("automorphism is not over the given base^n")
    k = base.num_factors

    def slots_of(hom: HomMatrix) -> set[int]:
        touched = set()
        for i in range(big.num_factors):
            for j in range(big.num_factors):
                if hom.entries[i][j] != (1 if i == j else 0):
                    touched.add(i // k)
                    touched.add(j // k)
        return touched

    merged: list[tuple[set[int], HomMatrix]] = []
    for factor in automorphism_elementary_factors(tau):
        fslots = slots_of(factor)
        if merged and len(merged[-1][0] | fslots) <= 2:
            slots, acc = merged.pop()
            merged.append((slots | fslots, acc.compose(factor)))
        else:
            merged.append((fslots, factor))
    return [hom for _, hom in merged]
