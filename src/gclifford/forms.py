"""Characters, symmetric bilinear forms and quadratic forms on a finite
abelian group, with exact rational phases.

The character group is identified with the group itself componentwise via
the generator n -> exp(2*pi*i*n/q).  A quadratic form is stored in the
coordinate system

    xi(g) = sum_i diag[i]*g_i^2 / (2*q_i)
          + sum_{i<j} cross[i][j]*g_i*g_j / gcd(q_i, q_j)
          + sum_i linear[i]*g_i / q_i        (all mod 1),

with ``diag[i]*q_i`` even so the value is independent of the residue
representative.  Coordinates are not unique; equality of forms means
equality of value tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (DegenerateFormError, GroupMismatchError,
                     IncompleteTableError, NotInvertibleError)
from .groups import Group, GroupElement, HomMatrix, invert_automorphism, is_automorphism
from .phases import Phase

__all__ = [
    "Character", "SymmetricBilinearForm", "QuadraticForm",
    "polarize", "lift_bilinear",
    "is_quadratic_table", "fit_quadratic_table", "is_nondegenerate",
    "induced_hom", "i_xi_matrix", "i_xi", "i_xi_inverse",
    "standard_nondegenerate_form",
]


class Character(GroupElement):
    """A character of the group, on the same residues as an element: the
    character n -> exp(2*pi*i*n/q) on each factor.  Its arithmetic is the
    element arithmetic, but it never equals an element."""

    @classmethod
    def trivial(cls, group: Group) -> "Character":
        return cls(group, (0,) * group.num_factors)

    @classmethod
    def generator(cls, group: Group, i: int) -> "Character":
        res = [0] * group.num_factors
        res[i] = 1
        return cls(group, tuple(res))

    def eval(self, g: GroupElement) -> Phase:
        if g.group != self.group:
            raise GroupMismatchError("character evaluated outside its group")
        total = Fraction(0)
        for c, x, q in zip(self.residues, g.residues, self.group.orders):
            total += Fraction(c * x, q)
        return Phase.from_fraction(total)


@dataclass(frozen=True)
class SymmetricBilinearForm:
    group: Group
    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.group.num_factors
        if len(self.coeffs) != n or any(len(r) != n for r in self.coeffs):
            raise ValueError("coefficient shape does not match the group")
        q = self.group.orders
        reduced = tuple(
            tuple(self.coeffs[i][j] % gcd(q[i], q[j]) for j in range(n))
            for i in range(n))
        object.__setattr__(self, "coeffs", reduced)
        for i in range(n):
            for j in range(n):
                if self.coeffs[i][j] != self.coeffs[j][i]:
                    raise ValueError("coefficients are not symmetric")

    @classmethod
    def trivial(cls, group: Group) -> "SymmetricBilinearForm":
        n = group.num_factors
        return cls(group, tuple((0,) * n for _ in range(n)))

    def value(self, g: GroupElement, h: GroupElement) -> Phase:
        if g.group != self.group or h.group != self.group:
            raise GroupMismatchError("bilinear form evaluated outside its group")
        q = self.group.orders
        total = Fraction(0)
        for i, gi in enumerate(g.residues):
            if not gi:
                continue
            row = self.coeffs[i]
            for j, hj in enumerate(h.residues):
                if hj and row[j]:
                    total += Fraction(row[j] * gi * hj, gcd(q[i], q[j]))
        return Phase.from_fraction(total)

    def is_trivial(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.coeffs)


def induced_hom(b: SymmetricBilinearForm) -> HomMatrix:
    """The homomorphism g -> b(g, -) written on character residues.

    Entry (j, i) is coeffs[i][j] * q_j / gcd(q_i, q_j); the resulting matrix
    is its own dual, which is exactly the symmetry of the form.
    """
    q = b.group.orders
    n = b.group.num_factors
    entries = tuple(
        tuple((b.coeffs[i][j] * q[j] // gcd(q[i], q[j])) % q[j] for i in range(n))
        for j in range(n))
    return HomMatrix(b.group, b.group, entries)


def bilinear_from_hom(m: HomMatrix) -> SymmetricBilinearForm:
    """Inverse of :func:`induced_hom`; fails if ``m`` is not symmetric."""
    group = m.source
    q = group.orders
    n = group.num_factors
    coeffs = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            g = gcd(q[i], q[j])
            val = m.entries[j][i] * g
            if val % q[j]:
                raise ValueError("matrix does not come from a bilinear form")
            coeffs[i][j] = (val // q[j]) % g
    return SymmetricBilinearForm(group, tuple(tuple(r) for r in coeffs))


@dataclass(frozen=True)
class QuadraticForm:
    group: Group
    diag: tuple[int, ...]
    cross: tuple[tuple[int, ...], ...]
    linear: tuple[int, ...]

    def __post_init__(self):
        n = self.group.num_factors
        q = self.group.orders
        if len(self.diag) != n or len(self.linear) != n:
            raise ValueError("coefficient shape does not match the group")
        if len(self.cross) != n or any(len(r) != n for r in self.cross):
            raise ValueError("cross coefficient shape does not match the group")
        diag = tuple(a % (2 * q[i]) for i, a in enumerate(self.diag))
        for i, a in enumerate(diag):
            if (a * q[i]) % 2:
                raise ValueError(
                    f"diagonal coefficient {a} at odd-order factor {q[i]} must be even")
        cross = tuple(
            tuple(self.cross[i][j] % gcd(q[i], q[j]) if i < j else 0
                  for j in range(n))
            for i in range(n))
        linear = tuple(v % q[i] for i, v in enumerate(self.linear))
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "linear", linear)

    @classmethod
    def zero(cls, group: Group) -> "QuadraticForm":
        n = group.num_factors
        return cls(group, (0,) * n, tuple((0,) * n for _ in range(n)), (0,) * n)

    @classmethod
    def diagonal(cls, group: Group, diag) -> "QuadraticForm":
        n = group.num_factors
        return cls(group, tuple(diag), tuple((0,) * n for _ in range(n)), (0,) * n)

    def eval(self, g: GroupElement) -> Phase:
        if g.group != self.group:
            raise GroupMismatchError("form evaluated outside its group")
        q = self.group.orders
        total = Fraction(0)
        for i, gi in enumerate(g.residues):
            if not gi:
                continue
            if self.diag[i]:
                total += Fraction(self.diag[i] * gi * gi, 2 * q[i])
            if self.linear[i]:
                total += Fraction(self.linear[i] * gi, q[i])
            row = self.cross[i]
            for j in range(i + 1, len(q)):
                if row[j] and g.residues[j]:
                    total += Fraction(row[j] * gi * g.residues[j], gcd(q[i], q[j]))
        return Phase.from_fraction(total)

    def __neg__(self) -> "QuadraticForm":
        n = self.group.num_factors
        return QuadraticForm(
            self.group,
            tuple(-a for a in self.diag),
            tuple(tuple(-self.cross[i][j] for j in range(n)) for i in range(n)),
            tuple(-v for v in self.linear))

    def value_table(self) -> dict[GroupElement, Phase]:
        return {g: self.eval(g) for g in self.group.elements()}

    def same_values(self, other: "QuadraticForm") -> bool:
        if self.group != other.group:
            return False
        return all(self.eval(g) == other.eval(g) for g in self.group.elements())


def polarize(xi: QuadraticForm) -> SymmetricBilinearForm:
    """The bilinear form (g, h) -> xi(g+h) - xi(g) - xi(h)."""
    q = xi.group.orders
    n = xi.group.num_factors
    coeffs = [[0] * n for _ in range(n)]
    for i in range(n):
        coeffs[i][i] = xi.diag[i] % q[i]
        for j in range(i + 1, n):
            coeffs[i][j] = coeffs[j][i] = xi.cross[i][j]
    return SymmetricBilinearForm(xi.group, tuple(tuple(r) for r in coeffs))


def lift_bilinear(b: SymmetricBilinearForm) -> QuadraticForm:
    """A canonical quadratic form with polarization ``b`` and no character
    part: cross terms are copied and each diagonal coefficient is the
    representative of b[i][i] with even product against an odd order."""
    q = b.group.orders
    n = b.group.num_factors
    diag = []
    for i in range(n):
        a = b.coeffs[i][i] % q[i]
        if (a * q[i]) % 2:
            a += q[i]
        diag.append(a)
    cross = tuple(
        tuple(b.coeffs[i][j] if i < j else 0 for j in range(n)) for i in range(n))
    return QuadraticForm(b.group, tuple(diag), cross, (0,) * n)


def _difference_table(group: Group, table) -> dict:
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[(g, h)] = table[g + h] - table[g] - table[h]
    return out


def _require_complete(group: Group, table) -> None:
    for g in group.elements():
        if g not in table:
            raise IncompleteTableError(f"phase table misses element {g}")


def is_quadratic_table(group: Group, table) -> bool:
    """Whether a full phase table is a quadratic form: its difference table
    (g, h) -> t(g+h) - t(g) - t(h) must be additive in each slot."""
    _require_complete(group, table)
    diff = _difference_table(group, table)
    for g in group.elements():
        for h in group.elements():
            for k in group.elements():
                if diff[(g + k, h)] != diff[(g, h)] + diff[(k, h)]:
                    return False
                if diff[(g, h + k)] != diff[(g, h)] + diff[(g, k)]:
                    return False
    return True


def fit_quadratic_table(group: Group, table) -> QuadraticForm:
    """Express a phase table in quadratic-form coordinates.

    Raises ValueError when the table is not quadratic.  The fit goes through
    the polarization for diagonal and cross coefficients and reads the
    character part off the residual.
    """
    _require_complete(group, table)
    q = group.orders
    n = group.num_factors
    gens = [group.generator(i) for i in range(n)]
    coeffs = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            g_ = gcd(q[i], q[j])
            val = (table[gens[i] + gens[j]] - table[gens[i]] - table[gens[j]]).frac * g_
            if val.denominator != 1:
                raise ValueError("difference table is not bilinear on generators")
            coeffs[i][j] = int(val) % g_
    try:
        bil = SymmetricBilinearForm(group, tuple(tuple(r) for r in coeffs))
    except ValueError as exc:
        raise ValueError("difference table is not symmetric") from exc
    base = lift_bilinear(bil)
    linear = []
    for i in range(n):
        delta = (table[gens[i]] - base.eval(gens[i])).frac * q[i]
        if delta.denominator != 1:
            raise ValueError("residual character part is not a character")
        linear.append(int(delta) % q[i])
    fitted = QuadraticForm(group, base.diag, base.cross, tuple(linear))
    for g in group.elements():
        if fitted.eval(g) != table[g]:
            raise ValueError(f"table is not quadratic (mismatch at {g})")
    return fitted


def is_nondegenerate(xi: QuadraticForm) -> bool:
    """Whether g -> b_xi(g, -) is an isomorphism onto the character group,
    decided through the memo of ``invert_automorphism`` that
    :func:`i_xi_matrix` fills."""
    return is_automorphism(induced_hom(polarize(xi)))


def i_xi_matrix(xi: QuadraticForm) -> HomMatrix:
    """Matrix of the isomorphism chi -> t with -b_xi(t, -) == chi, i.e. the
    negated inverse of the polarization's induced map.  The one
    ``invert_automorphism`` call also decides non-degeneracy."""
    try:
        inv = invert_automorphism(induced_hom(polarize(xi)))
    except NotInvertibleError:
        raise DegenerateFormError("quadratic form is degenerate") from None
    n = xi.group.num_factors
    entries = tuple(tuple(-inv.entries[i][j] for j in range(n)) for i in range(n))
    return HomMatrix(xi.group, xi.group, entries)


def i_xi(xi: QuadraticForm, chi: Character) -> GroupElement:
    if chi.group != xi.group:
        raise GroupMismatchError("character outside the form's group")
    return i_xi_matrix(xi).apply(chi)


def i_xi_inverse(xi: QuadraticForm, t: GroupElement) -> Character:
    """The character chi with i_xi(chi) == t, namely -b_xi(t, -)."""
    hom = induced_hom(polarize(xi))
    if not is_automorphism(hom):
        raise DegenerateFormError("quadratic form is degenerate")
    return Character(t.group, (-hom.apply(t)).residues)


def standard_nondegenerate_form(group: Group) -> QuadraticForm:
    """A fixed non-degenerate diagonal form: coefficient 1 on even-order
    factors, 2 on odd-order factors."""
    diag = tuple(1 if q % 2 == 0 else 2 for q in group.orders)
    return QuadraticForm.diagonal(group, diag)

