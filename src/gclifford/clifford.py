"""Symbolic Clifford unitaries as tableaux of Pauli images.

A tableau records, for each canonical generator X_{e_i} and Z-generator of
the group, the exact Pauli image under conjugation, as integers: the
columns of a residue matrix over G x G^ hold the images' vectors and each
image has one phase numerator mod D = 2*lcm(q) (the integer rows of
:mod:`pauli`).  That data determines the unitary up to global phase; two
tableaux are equal exactly when the unitaries agree up to phase.
Conjugation of an arbitrary Pauli is the ordered product of the generator
images (ascending factor, X block before Z block), which is consistent
because all deviations land in exactly tracked phases; composition,
inversion and validation are such products too, one
:func:`pauli.ordered_products` call each.

Gate semantics are stated once, by :func:`gate_image`: the matrix over
G x G^ whose columns are the vectors of the generator images.  Every
non-Pauli tableau is that matrix; its only phases are a quadratic gate's
values on the generators, on the X images.  :func:`image_array` memoizes
each image as a read-only integer array, so the compiler validates a
gate's image once and multiplies arrays after that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm

import numpy as np

from .elementary import automorphism_elementary_factors
from .errors import GroupMismatchError
from .forms import QuadraticForm, induced_hom, polarize
from .groups import Group, HomMatrix, invert_automorphism, product_group
from .intmat import identity_matrix
from .pauli import (PauliOperator, ordered_products, product_rows, row_operator,
                    row_params)

__all__ = [
    "AutomorphismGate", "QuadraticGate", "FourierGate", "PauliGate", "CXGate",
    "CliffordTableau", "gate_image", "image_array", "gate_tableau",
    "gate_inverse", "sequence_tableau", "pairing_witness", "two_local_factorize",
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


_IMAGE_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_IMAGE_MEMO_SIZE)
def gate_inverse(gate: Gate) -> Gate:
    """The inverse gate, memoized like :func:`image_array`: gates are frozen
    values, and the compiler inverts the same few many times."""
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
    """Column j of ``entries`` is the vector over G x G^ of the image of
    generator j (X_0 .. X_{m-1}, then Z_0 .. Z_{m-1}), reduced mod the
    factor orders; ``phases[j]`` is its phase numerator mod D."""

    group: Group
    entries: tuple[tuple[int, ...], ...]
    phases: tuple[int, ...]

    @classmethod
    def identity(cls, group: Group) -> "CliffordTableau":
        n = 2 * group.num_factors
        return cls(group, tuple(map(tuple, identity_matrix(n))), (0,) * n)

    def image(self, j: int) -> PauliOperator:
        return row_operator(self.group, [row[j] for row in self.entries],
                            self.phases[j], row_params(self.group.orders)[0])

    def product_rows(self):
        """The generator images in the form :func:`pauli.ordered_products`
        reads."""
        orders = self.group.orders
        dtype = row_params(orders)[1]
        return product_rows(np.array(self.entries, dtype=dtype).T,
                            np.array(self.phases, dtype=dtype), orders)

    def _products(self, exponents):
        """Vectors and phases of the ordered products of the generator
        images with the given exponent rows."""
        orders = self.group.orders
        return ordered_products(np.array(exponents, dtype=row_params(orders)[1]),
                                self.product_rows(), orders)

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        if p.group != self.group:
            raise GroupMismatchError("operator over a different group")
        vecs, phases = self._products([p.x.residues + p.z.residues])
        return row_operator(self.group, vecs[0], phases[0],
                            row_params(self.group.orders)[0]).times_phase(p.phase)

    def compose(self, first: "CliffordTableau") -> "CliffordTableau":
        """Tableau of U_self . U_first (``first`` acts first)."""
        if first.group != self.group:
            raise GroupMismatchError("tableaux over different groups")
        vecs, phases = self._products(list(zip(*first.entries)))
        D = row_params(self.group.orders)[0]
        return CliffordTableau(self.group, tuple(map(tuple, vecs.T.tolist())),
                               tuple((a + b) % D for a, b in zip(first.phases, phases.tolist())))

    def vector_matrix(self) -> HomMatrix:
        """The induced automorphism of G x G^ on Pauli vectors."""
        big = doubled_group(self.group)
        return HomMatrix(big, big, self.entries)

    def inverse(self) -> "CliffordTableau":
        """The inverse vector matrix with the phases that cancel those its
        columns pick up under this tableau."""
        inv = invert_automorphism(self.vector_matrix()).entries
        _vecs, phases = self._products(list(zip(*inv)))
        D = row_params(self.group.orders)[0]
        return CliffordTableau(self.group, inv, tuple(-p % D for p in phases.tolist()))

    def is_identity(self) -> bool:
        return self == CliffordTableau.identity(self.group)

    def validate(self) -> None:
        """Check the defining invariants: the vector action preserves the
        commutation pairing and each generator image has the right order;
        a failure names the image."""
        orders = self.group.orders
        m = len(orders)
        witness = pairing_witness(orders, self.entries)
        if witness is not None:
            i, j = witness
            raise ValueError(f"tableau does not preserve the pairing: {image_name(i, m)} "
                             f"and {image_name(j, m)} do not pair as their generators do")
        vecs, phases = self._products(np.diag(orders * 2))
        for j in np.flatnonzero((vecs != 0).any(1) | (phases != 0)):
            raise ValueError(f"{image_name(j, m)} does not have order "
                             f"dividing {orders[j % m]}")


def doubled_group(group: Group) -> Group:
    return Group(group.orders + group.orders)


def image_name(j: int, m: int) -> str:
    """Name of generator j's image (X_0 .. X_{m-1}, then Z_0 .. Z_{m-1})."""
    return f"{'XZ'[j // m]} image {j % m}"


def matrix_dtype(orders):
    """dtype of residue matrices over G x G^: int64 when an entry of the
    product of two reduced matrices, a sum of 2m products of values below
    L = lcm(orders), fits with a factor 2 to spare, and object (Python
    integers, same code) otherwise."""
    return np.int64 if 2 * (2 * len(orders)) * lcm(*orders) ** 2 < 2 ** 62 else object


def pairing_witness(orders, entries) -> tuple[int, int] | None:
    """The first (i, j), in row-major order, at which the columns of a
    residue matrix C over G x G^ do not pair as the unit vectors do, that
    is (C^T J C - J)[i][j] != 0 mod L = lcm(orders), where J is the
    pairing in units of 1/L, J[m+i][i] = L/q_i = -J[i][m+i]; None when C
    preserves the pairing.  The difference is antisymmetric, so i < j."""
    m = len(orders)
    big_l = lcm(*orders)
    dtype = matrix_dtype(orders)
    c = np.asarray(entries, dtype=dtype)
    j = np.zeros((2 * m, 2 * m), dtype=dtype)
    j[m:, :m] = np.diag(np.array([big_l // q for q in orders], dtype=dtype))
    j = j - j.T
    bad = np.argwhere(((c.T @ j) % big_l @ c - j) % big_l)
    return (int(bad[0][0]), int(bad[0][1])) if len(bad) else None


def gate_pauli(op: PauliOperator) -> CliffordTableau:
    """Tableau of conjugation by a Pauli: generator g goes to the ordered
    product op g op^-1 (the phase of ``op`` cancels)."""
    group = op.group
    ident = CliffordTableau.identity(group)
    D, dtype, _w, _moduli = row_params(group.orders)
    n = 2 * group.num_factors
    v = [op.x.residues + op.z.residues]
    rows = product_rows(np.array(v + list(ident.entries) + v, dtype=dtype),
                        np.zeros(n + 2, dtype=dtype), group.orders)
    ones = np.ones((n, 1), dtype=dtype)
    E = np.hstack([ones, np.eye(n, dtype=dtype), (D - 1) * ones])
    _vecs, phases = ordered_products(E, rows, group.orders)
    return CliffordTableau(group, ident.entries, tuple(phases.tolist()))


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

    This is the one statement of gate semantics; each call builds and
    validates the matrix.  Hot paths read it through :func:`image_array`,
    which memoizes it as a read-only integer array."""
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


@functools.lru_cache(maxsize=_IMAGE_MEMO_SIZE)
def image_array(gate: Gate, group: Group) -> np.ndarray:
    """``gate_image(gate, group).entries`` as a read-only array of dtype
    :func:`matrix_dtype`.  The ``_IMAGE_MEMO_SIZE`` most recently used
    images are kept, so :func:`gate_image` builds and validates each
    image once per distinct (gate, group) while it stays in the memo;
    ``image_array.cache_info()`` reports the hits and misses."""
    out = np.array(gate_image(gate, group).entries, dtype=matrix_dtype(group.orders))
    out.flags.writeable = False
    return out


def gate_tableau(gate: Gate, group: Group | None = None) -> CliffordTableau:
    """Tableau of a gate over ``group`` (required for CX: the two-slot
    product).  Apart from Pauli gates, the vectors are the columns of
    :func:`gate_image`, read through :func:`image_array`; the only phases
    are a quadratic gate's on its X images, the form's values on the
    generators."""
    if gate.group is not None:
        if group is not None and group != gate.group:
            raise GroupMismatchError(f"gate over {gate.group!r} used over {group!r}")
        group = gate.group
    elif group is None:
        raise ValueError("CX tableau needs the two-slot group")
    if isinstance(gate, PauliGate):
        return gate_pauli(gate.op)
    m = group.num_factors
    phases = [0] * (2 * m)
    if isinstance(gate, QuadraticGate):
        D = row_params(group.orders)[0]
        phases[:m] = [int(gate.form.eval(group.generator(i)).frac * D) for i in range(m)]
    return CliffordTableau(group, tuple(map(tuple, image_array(gate, group).tolist())),
                           tuple(phases))


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
