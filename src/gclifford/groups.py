"""Finite abelian groups, their elements and homomorphisms.

A group is an ordered list of cyclic orders ``(q_0, ..., q_d)``; elements
are residue tuples.  Homomorphisms between such groups are integer matrices
acting on residues, where entry ``m[i][j]`` sends the j-th source generator
to ``m[i][j]`` times the i-th target generator.  Such a matrix is
well-defined exactly when ``m[i][j] * q_j == 0 (mod q_i)`` for every entry,
with ``q_j`` the source order and ``q_i`` the target order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import GroupMismatchError, NotInvertibleError
from .intmat import (bezout, identity_matrix, kernel_basis, mat_mul,
                     smith_normal_form, solve_linear)

__all__ = [
    "Group", "GroupElement", "HomMatrix", "Isomorphism",
    "make_group", "product_group", "canonicalize", "bezout",
]


@dataclass(frozen=True)
class Group:
    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValueError("a group needs at least one cyclic factor")
        for q in self.orders:
            if q < 2:
                raise ValueError(f"cyclic order {q} < 2 is not allowed")
        object.__setattr__(self, "orders", tuple(int(q) for q in self.orders))

    @property
    def num_factors(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    @property
    def canonical(self) -> bool:
        return all(self.orders[i] % self.orders[i + 1] == 0
                   for i in range(len(self.orders) - 1))

    def element(self, residues) -> "GroupElement":
        return GroupElement(self, tuple(r % q for r, q in zip(residues, self.orders, strict=True)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.num_factors)

    def generator(self, i: int) -> "GroupElement":
        res = [0] * self.num_factors
        res[i] = 1
        return GroupElement(self, tuple(res))

    def elements(self):
        for tup in itertools.product(*(range(q) for q in self.orders)):
            yield GroupElement(self, tup)

    def random_element(self, rng) -> "GroupElement":
        return GroupElement(self, tuple(rng.randrange(q) for q in self.orders))

    def literal(self) -> str:
        return ",".join(str(q) for q in self.orders)

    def __repr__(self) -> str:
        return f"Group({self.literal()})"


def make_group(orders) -> Group:
    return Group(tuple(orders))


def parse_group(literal: str) -> Group:
    try:
        orders = tuple(int(tok) for tok in literal.split(","))
    except ValueError as exc:
        raise ValueError(f"bad group literal {literal!r}") from exc
    return Group(orders)


def product_group(group: Group, n: int) -> Group:
    if n < 1:
        raise ValueError("qudit count must be >= 1")
    return Group(group.orders * n)


@dataclass(frozen=True)
class GroupElement:
    group: Group
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != self.group.num_factors:
            raise ValueError("residue count does not match the group")
        object.__setattr__(
            self, "residues",
            tuple(r % q for r, q in zip(self.residues, self.group.orders)))

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise GroupMismatchError("elements of different groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in zip(self.residues, other.residues)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in zip(self.residues, other.residues)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.residues))

    def scaled(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * a for a in self.residues))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    @property
    def order(self) -> int:
        return lcm(*(q // gcd(q, r) for r, q in zip(self.residues, self.group.orders)))

    def __repr__(self) -> str:
        return f"({','.join(map(str, self.residues))})"


@dataclass(frozen=True)
class HomMatrix:
    """A homomorphism ``source -> target`` as a residue matrix."""

    source: Group
    target: Group
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.target.num_factors
        cols = self.source.num_factors
        if len(self.entries) != rows or any(len(r) != cols for r in self.entries):
            raise ValueError("matrix shape does not match the groups")
        reduced = tuple(
            tuple(v % self.target.orders[i] for v in row)
            for i, row in enumerate(self.entries))
        object.__setattr__(self, "entries", reduced)
        if not hom_is_valid(self.source, self.target, self.entries):
            raise ValueError("matrix entries do not define a homomorphism")

    @classmethod
    def identity(cls, group: Group) -> "HomMatrix":
        return cls(group, group, tuple(tuple(r) for r in identity_matrix(group.num_factors)))

    @classmethod
    def zero(cls, source: Group, target: Group) -> "HomMatrix":
        return cls(source, target,
                   tuple((0,) * source.num_factors for _ in range(target.num_factors)))

    def apply(self, a: GroupElement) -> GroupElement:
        if a.group != self.source:
            raise GroupMismatchError("element not in the source group")
        res = tuple(sum(row[j] * a.residues[j] for j in range(len(row)))
                    for row in self.entries)
        return GroupElement(self.target, res)

    def column(self, j: int) -> GroupElement:
        return GroupElement(self.target, tuple(row[j] for row in self.entries))

    def compose(self, first: "HomMatrix") -> "HomMatrix":
        """self o first (apply ``first``, then ``self``)."""
        if first.target != self.source:
            raise GroupMismatchError("composition groups do not line up")
        entries = mat_mul([list(r) for r in self.entries], [list(r) for r in first.entries])
        return HomMatrix(first.source, self.target, tuple(tuple(r) for r in entries))

    def dual(self) -> "HomMatrix":
        """The induced map on character residues, target^ -> source^.

        Entry (j, i) is ``m[i][j] * q_j / q_i`` (always integral for a valid
        matrix), where q_j is the source order and q_i the target order.
        """
        cols = self.source.num_factors
        rows = self.target.num_factors
        entries = []
        for j in range(cols):
            qj = self.source.orders[j]
            row = []
            for i in range(rows):
                qi = self.target.orders[i]
                val = self.entries[i][j] * qj
                if val % qi:
                    raise ArithmeticError("dual entry is not integral")
                row.append((val // qi) % qj)
            entries.append(tuple(row))
        return HomMatrix(self.target, self.source, tuple(entries))

    def is_identity(self) -> bool:
        n = self.source.num_factors
        return (self.source == self.target
                and all(self.entries[i][j] == (1 if i == j else 0)
                        for i in range(n) for j in range(n)))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(map(str, r)) for r in self.entries)
        return f"Hom[{self.source.literal()}->{self.target.literal()}]({rows})"


def hom_is_valid(source: Group, target: Group, entries) -> bool:
    for i, row in enumerate(entries):
        qi = target.orders[i]
        for j, v in enumerate(row):
            if (v * source.orders[j]) % qi:
                return False
    return True


def _lifted_relation_matrix(m: HomMatrix) -> list[list[int]]:
    """[M | diag(target orders)] over Z."""
    n = m.target.num_factors
    cols = m.source.num_factors
    out = []
    for i in range(n):
        row = [m.entries[i][j] for j in range(cols)]
        row += [m.target.orders[i] if k == i else 0 for k in range(n)]
        out.append(row)
    return out


def is_automorphism(m: HomMatrix) -> bool:
    """True iff the endomorphism ``m`` is bijective.

    Bijectivity is read off the Smith normal form of the lifted relation
    matrix [M | diag(q)]: the map is onto (hence bijective, the group being
    finite) exactly when every invariant factor is 1.
    """
    if m.source != m.target:
        return False
    n = m.target.num_factors
    _, s, _ = smith_normal_form(_lifted_relation_matrix(m))
    return all(s[i][i] == 1 for i in range(n))


def _kernel_witness(m: HomMatrix) -> tuple[int, ...] | None:
    lifted = _lifted_relation_matrix(m)
    for vec in kernel_basis(lifted):
        cand = m.source.element(vec[:m.source.num_factors])
        if not cand.is_zero():
            return cand.residues
    return None


def invert_automorphism(m: HomMatrix) -> HomMatrix:
    """Two-sided inverse of an automorphism; NotInvertibleError otherwise."""
    if m.source != m.target:
        raise GroupMismatchError("only endomorphisms can be inverted")
    group = m.source
    n = group.num_factors
    lifted = _lifted_relation_matrix(m)
    cols = []
    for i in range(n):
        rhs = [1 if k == i else 0 for k in range(n)]
        sol = solve_linear(lifted, rhs)
        if sol is None:
            raise NotInvertibleError("homomorphism is not surjective",
                                     witness=_kernel_witness(m))
        cols.append(sol[:n])
    entries = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    inv = HomMatrix(group, group, entries)
    if not m.compose(inv).is_identity() or not inv.compose(m).is_identity():
        raise NotInvertibleError("no two-sided inverse exists",
                                 witness=_kernel_witness(m))
    return inv


@dataclass(frozen=True)
class Isomorphism:
    forward: HomMatrix
    backward: HomMatrix

    def __post_init__(self):
        ok = (self.forward.source == self.backward.target
              and self.forward.target == self.backward.source
              and self.backward.compose(self.forward).is_identity()
              and self.forward.compose(self.backward).is_identity())
        if not ok:
            raise ValueError("forward/backward pair is not an isomorphism")


def _prime_power_pieces(q: int) -> list[tuple[int, int]]:
    pieces = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pieces.append((p, p ** e))
        p += 1
    if n > 1:
        pieces.append((n, n))
    return pieces


def canonicalize(group: Group) -> tuple[Group, Isomorphism]:
    """Rewrite ``group`` in divisibility-chain form q_0 >= q_1 >= ...,
    q_{i+1} | q_i, together with the witnessing isomorphism pair.

    Splits every factor into prime-power pieces and recombines them by the
    Chinese remainder theorem, largest piece of each prime first.
    """
    # pieces[j] = list of (prime, prime power) for source factor j
    pieces = {j: _prime_power_pieces(q) for j, q in enumerate(group.orders)}
    pool = [(pw, p, j) for j, lst in pieces.items() for (p, pw) in lst]

    assignments: list[list[tuple[int, int, int]]] = []  # per canonical factor
    remaining = sorted(pool, reverse=True)
    while remaining:
        taken: dict[int, tuple[int, int, int]] = {}
        rest = []
        for pw, p, j in remaining:
            if p not in taken:
                taken[p] = (pw, p, j)
            else:
                rest.append((pw, p, j))
        assignments.append(sorted(taken.values(), reverse=True))
        remaining = rest
    canon = Group(tuple(prod(pw for pw, _, _ in slot) for slot in assignments))

    fwd = [[0] * group.num_factors for _ in range(canon.num_factors)]
    bwd = [[0] * canon.num_factors for _ in range(group.num_factors)]
    for i, slot in enumerate(assignments):
        qi = canon.orders[i]
        for pw, _p, j in slot:
            qj = group.orders[j]
            # source residue -> piece residue -> CRT component of the target
            co = qi // pw
            fwd[i][j] = (fwd[i][j] + co * pow(co, -1, pw)) % qi
            co_back = qj // pw
            bwd[j][i] = (bwd[j][i] + co_back * pow(co_back, -1, pw)) % qj
    forward = HomMatrix(group, canon, tuple(tuple(r) for r in fwd))
    backward = HomMatrix(canon, group, tuple(tuple(r) for r in bwd))
    return canon, Isomorphism(forward, backward)
