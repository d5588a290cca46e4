"""The generalized Pauli group over a finite abelian group.

An operator is stored as ``phase * X_g * Z_chi`` acting on the group
algebra: X_g translates basis labels by g and Z_chi multiplies |h> by
chi(h).  Phases are exact rationals mod 1, so products, powers and
commutators are computed without any rounding.

Multi-qudit operators are Paulis over the product group G^n with a single
global phase; there is no per-slot phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import GroupMismatchError
from .forms import Character
from .groups import Group, GroupElement, product_group
from .phases import Phase

__all__ = ["PauliOperator", "PauliVector", "beta", "embed", "extract_slot"]


@dataclass(frozen=True)
class PauliVector:
    """An element of G x G^: a Pauli modulo its phase."""

    group: Group
    x: GroupElement
    z: Character

    def __post_init__(self):
        if self.x.group != self.group or self.z.group != self.group:
            raise GroupMismatchError("vector components over different groups")

    @classmethod
    def zero(cls, group: Group) -> "PauliVector":
        return cls(group, group.zero(), Character.trivial(group))

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.z.is_trivial()

    @property
    def order(self) -> int:
        return lcm(self.x.order, self.z.as_element().order)

    def scaled(self, k: int) -> "PauliVector":
        return PauliVector(self.group, self.x.scaled(k), self.z.scaled(k))

    def __add__(self, other: "PauliVector") -> "PauliVector":
        return PauliVector(self.group, self.x + other.x, self.z + other.z)

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

    def with_phase(self, phase: Phase) -> "PauliOperator":
        return PauliOperator(self.group, phase, self.x, self.z)

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
        return self.phase.is_zero() and self.x.is_zero() and self.z.is_trivial()

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
