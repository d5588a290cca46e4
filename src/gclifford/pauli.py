"""The generalized Pauli group over a finite abelian group.

An operator is stored as ``phase * X_g * Z_chi`` acting on the group
algebra: X_g translates basis labels by g and Z_chi multiplies |h> by
chi(h).  Phases are exact rationals mod 1, so products, powers and
commutators are computed without any rounding.

Multi-qudit operators are Paulis over the product group G^n with a single
global phase; there is no per-slot phase.

Clifford tableaux and stabilizer states compute on the integer rows of the
last section instead, where their closed forms are stated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import GroupMismatchError
from .forms import Character
from .groups import Group, GroupElement, product_group
from .phases import Phase

__all__ = ["PauliOperator", "PauliVector", "beta", "embed", "extract_slot",
           "row_params", "row_operator", "cross_matrix", "product_rows",
           "ordered_products", "ordered_product"]


@dataclass(frozen=True)
class PauliVector:
    """An element of G x G^: a Pauli modulo its phase."""

    group: Group
    x: GroupElement
    z: Character

    def __post_init__(self):
        if self.x.group != self.group or self.z.group != self.group:
            raise GroupMismatchError("vector components over different groups")

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.z.is_zero()

    @property
    def order(self) -> int:
        return lcm(self.x.order, self.z.order)

    def residues(self) -> tuple[int, ...]:
        return self.x.residues + self.z.residues


def beta(u: PauliVector, v: PauliVector) -> Phase:
    """Commutation pairing: the phase picked up when the Pauli of ``u``
    moves past the Pauli of ``v``,  chi_u(g_v) - chi_v(g_u)."""
    if u.group != v.group:
        raise GroupMismatchError("vectors over different groups")
    return u.z.eval(v.x) - v.z.eval(u.x)


@dataclass(frozen=True)
class PauliOperator:
    group: Group
    phase: Phase
    x: GroupElement
    z: Character

    def __post_init__(self):
        if self.x.group != self.group or self.z.group != self.group:
            raise GroupMismatchError("operator components over different groups")

    @classmethod
    def identity(cls, group: Group) -> "PauliOperator":
        return cls(group, Phase(), group.zero(), Character.trivial(group))

    @classmethod
    def from_vector(cls, vec: PauliVector, phase: Phase = Phase()) -> "PauliOperator":
        return cls(vec.group, phase, vec.x, vec.z)

    @classmethod
    def x_shift(cls, g: GroupElement) -> "PauliOperator":
        return cls(g.group, Phase(), g, Character.trivial(g.group))

    @classmethod
    def z_char(cls, chi: Character) -> "PauliOperator":
        return cls(chi.group, Phase(), chi.group.zero(), chi)

    def vector(self) -> PauliVector:
        return PauliVector(self.group, self.x, self.z)

    def times_phase(self, phase: Phase) -> "PauliOperator":
        return PauliOperator(self.group, self.phase + phase, self.x, self.z)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.group != other.group:
            raise GroupMismatchError("operators over different groups")
        phase = self.phase + other.phase + self.z.eval(other.x)
        return PauliOperator(self.group, phase, self.x + other.x, self.z + other.z)

    def inverse(self) -> "PauliOperator":
        phase = -self.phase + self.z.eval(self.x)
        return PauliOperator(self.group, phase, -self.x, -self.z)

    def pow(self, k: int) -> "PauliOperator":
        if k < 0:
            return self.inverse().pow(-k)
        out = PauliOperator.identity(self.group)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return self.phase.is_zero() and self.x.is_zero() and self.z.is_zero()

    def __repr__(self) -> str:
        return (f"Pauli({self.phase.as_string()}; X{self.x.residues}"
                f" Z{self.z.residues})")


def embed(p: PauliOperator, slot: int, n: int) -> PauliOperator:
    """Place a one-qudit Pauli at ``slot`` of an n-qudit register,
    identity elsewhere; the global phase is preserved."""
    if not 0 <= slot < n:
        raise ValueError(f"slot {slot} out of range for {n} qudits")
    group = p.group
    big = product_group(group, n)
    k = group.num_factors
    xres = [0] * (n * k)
    zres = [0] * (n * k)
    xres[slot * k:(slot + 1) * k] = p.x.residues
    zres[slot * k:(slot + 1) * k] = p.z.residues
    return PauliOperator(big, p.phase, GroupElement(big, tuple(xres)),
                         Character(big, tuple(zres)))


def extract_slot(p: PauliOperator, slot: int, n: int) -> PauliOperator:
    """The one-qudit component at ``slot``, carrying the global phase.
    Inverse of :func:`embed` for operators supported on a single slot."""
    k = p.group.num_factors // n
    base = Group(p.group.orders[slot * k:(slot + 1) * k])
    xres = p.x.residues[slot * k:(slot + 1) * k]
    zres = p.z.residues[slot * k:(slot + 1) * k]
    return PauliOperator(base, p.phase, GroupElement(base, xres),
                         Character(base, zres))


# ---------------------------------------------------------------------------
# integer rows
#
# Over Z_q1 x ... x Z_qm a Pauli is an integer row [x | z] of residues and
# one phase numerator p modulo D = 2*lcm(q): the operator
# exp(2*pi*i*p/D) X_x Z_z.  With w_j = D/q_j every operation has a closed
# form in these integers:
#
#     phase(a b)   = p_a + p_b + sum_j z_a[j] x_b[j] w_j            (mod D)
#     phase(a^k)   = k p_a + C(k, 2) c_a,   c_a = sum_j z_a[j] x_a[j] w_j
#
# for every integer k, and reducing residues never changes them
# (q_j x w_j = D x).  So the ordered product a_1^e_1 ... a_k^e_k of rows
# with cross matrix S_ij = z_i.W.x_j has phase e.(p - diag(S)/2) + e.T.e,
# where T = triu(S, 1) + diag(S)/2 (each S_ii is even because each w_j is),
# and exponents may be reduced mod D.  For one exponent row e the cross
# terms sum_{i<j} e_i e_j S_ij are the exclusive prefix sums of e_i z_i
# paired with each x_j, so S itself is not needed.

@lru_cache(maxsize=256)
def row_params(orders: tuple[int, ...]):
    """(D, dtype, weights w, moduli orders + orders) of rows over the given
    factor orders.  The dtype is int64 when every intermediate fits (each
    is a sum of at most 8m products of two values below D, all kept
    reduced) and object (Python integers, same code) otherwise.  The
    arrays are shared: never modify them."""
    D = 2 * lcm(*orders)
    dtype = np.int64 if 8 * len(orders) * D * D < 2 ** 62 else object
    return (D, dtype, np.array([D // q for q in orders], dtype=dtype),
            np.array(orders * 2, dtype=dtype))


def row_operator(group: Group, row, numerator, D: int) -> PauliOperator:
    """The Pauli exp(2*pi*i*numerator/D) X_x Z_z of a row [x | z]."""
    m = group.num_factors
    return PauliOperator(group, Phase(int(numerator), D),
                         GroupElement(group, tuple(int(a) for a in row[:m])),
                         Character(group, tuple(int(a) for a in row[m:])))


def cross_matrix(A, B, orders):
    """S_ij = z(A_i) . W . x(B_j) mod D for rows A and B."""
    D, _dtype, w, _moduli = row_params(orders)
    m = len(orders)
    return (A[:, m:] @ (w * B[:, :m]).T) % D


def product_rows(V, P, orders):
    """Rows V with phases P in the form :func:`ordered_products` reads:
    [V | P - diag(S)/2 | T] for their cross matrix S."""
    S = cross_matrix(V, V, orders)
    half = np.diagonal(S) // 2
    T = np.triu(S, 1) + np.diag(half)
    return np.hstack([V, ((P - half) % row_params(orders)[0])[:, None], T])


def ordered_products(E, rows, orders):
    """Vectors and phase numerators mod D of the ordered products
    prod_j a_j^E[r, j], for Paulis a_j given by :func:`product_rows` and
    exponent rows E reduced mod D.  The result has the dtype of E, which
    may hold Python integers where the orders alone would allow int64."""
    D, _dtype, _w, moduli = row_params(orders)
    n = len(moduli)
    return ((E @ rows[:, :n]) % moduli.astype(E.dtype, copy=False),
            (E @ rows[:, n] + ((E @ rows[:, n + 1:]) % D * E).sum(1)) % D)


def ordered_product(e, V, P, orders):
    """Vector and phase numerator mod D of the one ordered product
    prod_j a_j^e[j] of rows V with phases P, for an exponent row e reduced
    mod D: the value :func:`ordered_products` gives, in O(k m) for k rows
    rather than through their k x k cross matrix."""
    D, _dtype, w, moduli = row_params(orders)
    m = len(orders)
    ez = (e[:, None] * V[:, m:]) % moduli[m:]
    before = (np.cumsum(ez, axis=0) - ez) % moduli[m:]
    wx = w * V[:, :m]
    own = (V[:, m:] * wx).sum(1) % D
    cross = (before * wx).sum(1) % D
    phase = (e @ P + ((e * (e - 1) // 2) % D * own).sum() + (e * cross).sum()) % D
    return (e @ V) % moduli, phase
