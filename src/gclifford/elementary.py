"""Factoring automorphisms into elementary moves on one or two cyclic factors.

The reduction below is plain Gaussian elimination with Bezout-style
pivoting, adapted to mixed moduli: a transvection adding factor ``src``
into factor ``dst`` is a valid homomorphism only when its coefficient is a
multiple of ``q_dst / gcd(q_dst, q_src)``.  Pivots are processed in
decreasing order of modulus, which keeps every needed coefficient legal as
long as the multiset of orders forms a divisibility chain (true for any
canonical group and for any power G^n of one).
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import NotExtendableError
from .groups import Group, HomMatrix
from .intmat import identity_matrix

__all__ = [
    "transvection", "scaling", "factor_swap",
    "column_clear_moves", "apply_move", "move_to_hom", "moves_matrix",
    "automorphism_elementary_factors", "random_automorphism",
]

# A move is ("transvect", dst, src, coeff) or ("scale", idx, unit).


def transvection(group: Group, dst: int, src: int, coeff: int) -> HomMatrix:
    n = group.num_factors
    entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    entries[dst][src] = coeff % group.orders[dst]
    return HomMatrix(group, group, tuple(tuple(r) for r in entries))


def scaling(group: Group, idx: int, unit: int) -> HomMatrix:
    n = group.num_factors
    entries = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    entries[idx][idx] = unit % group.orders[idx]
    return HomMatrix(group, group, tuple(tuple(r) for r in entries))


def factor_swap(group: Group, a: int, b: int) -> HomMatrix:
    if group.orders[a] != group.orders[b]:
        raise ValueError("can only swap factors of equal order")
    n = group.num_factors
    perm = list(range(n))
    perm[a], perm[b] = perm[b], perm[a]
    entries = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    return HomMatrix(group, group, tuple(tuple(r) for r in entries))


def move_to_hom(group: Group, move) -> HomMatrix:
    kind = move[0]
    if kind == "transvect":
        return transvection(group, move[1], move[2], move[3])
    if kind == "scale":
        return scaling(group, move[1], move[2])
    raise ValueError(f"unknown move {move!r}")


def apply_move(orders, vec: list[int], move) -> None:
    """Apply a move in place to a residue vector."""
    if move[0] == "transvect":
        _, dst, src, coeff = move
        vec[dst] = (vec[dst] + coeff * vec[src]) % orders[dst]
    else:
        _, idx, unit = move
        vec[idx] = (vec[idx] * unit) % orders[idx]


def _order_in(modulus: int, residue: int) -> int:
    return modulus // gcd(modulus, residue)


def column_clear_moves(orders, vec, pivot: int, active) -> list:
    """Moves (each touching <= 2 factors) driving ``vec`` to the pivot
    basis vector, assuming ``vec`` has full order ``orders[pivot]`` within
    the active factor set.  ``vec`` is modified in place.

    Raises NotExtendableError when the vector's order falls short of the
    pivot modulus, i.e. when it cannot generate a maximal-order summand.
    """
    moves = []
    mp = orders[pivot]
    for r in active:
        if r != pivot and mp % orders[r]:
            raise NotExtendableError(
                "active factor orders must divide the pivot order")
    # Gather: raise the order of the pivot coordinate to the full lcm.
    for r in active:
        if r == pivot or vec[r] == 0:
            continue
        have = _order_in(mp, vec[pivot])
        want = lcm(have, _order_in(orders[r], vec[r]))
        if want == have:
            continue
        unit_step = mp // orders[r]
        found = None
        for t in range(orders[r]):
            cand = (vec[pivot] + t * unit_step * vec[r]) % mp
            if _order_in(mp, cand) == want:
                found = t
                break
        if found is None:  # cannot happen for divisibility-chain orders
            raise NotExtendableError("gather step found no suitable multiplier")
        move = ("transvect", pivot, r, found * unit_step)
        apply_move(orders, vec, move)
        moves.append(move)
    if _order_in(mp, vec[pivot]) != mp:
        raise NotExtendableError(
            f"vector order {_order_in(mp, vec[pivot])} is below the pivot order {mp}")
    # Normalize the pivot to 1, then sweep the rest of the column.
    unit = vec[pivot]
    if unit != 1:
        move = ("scale", pivot, pow(unit, -1, mp))
        apply_move(orders, vec, move)
        moves.append(move)
    for r in active:
        if r == pivot or vec[r] == 0:
            continue
        move = ("transvect", r, pivot, -vec[r])
        apply_move(orders, vec, move)
        moves.append(move)
    return moves


def _check_chain_multiset(orders) -> None:
    seq = sorted(orders, reverse=True)
    for a, b in zip(seq, seq[1:]):
        if a % b:
            raise ValueError(
                "factor orders do not form a divisibility chain up to "
                "reordering; canonicalize the base group first")


def automorphism_elementary_factors(m: HomMatrix) -> list[HomMatrix]:
    """Factor an automorphism into elementary automorphisms, each touching
    at most two cyclic factors, so that composing the returned list in
    order (first entry applied last) reproduces ``m``.

    Returned factors F_1 ... F_N satisfy m = F_1 o F_2 o ... o F_N.
    """
    group = m.source
    orders = group.orders
    n = group.num_factors
    _check_chain_multiset(orders)
    work = [list(row) for row in m.entries]
    pivot_seq = sorted(range(n), key=lambda i: (-orders[i], i))
    left: list = []
    right: list = []
    remaining = set(range(n))
    for c in pivot_seq:
        col = [work[i][c] for i in range(n)]
        for i in range(n):
            if i not in remaining and col[i]:
                raise ArithmeticError("cleared row regained content")
        moves = column_clear_moves(orders, col, c, sorted(remaining))
        for move in moves:
            _left_apply(orders, work, move)
            left.append(move)
        # Row sweep: kill entries right of the pivot with column moves.
        for s in sorted(remaining):
            if s == c:
                continue
            val = work[c][s]
            if val:
                move = ("transvect", c, s, -val)
                _right_apply(orders, work, move)
                right.append(move)
        remaining.discard(c)
    if any(work[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise ArithmeticError("elementary reduction did not reach the identity")

    # From L_k...L_1 * m * R_1...R_l == I we get
    # m == inv(L_1)...inv(L_k) * inv(R_l)...inv(R_1).
    factors = [move_to_hom(group, _invert_move(orders, move)) for move in left]
    factors += [move_to_hom(group, _invert_move(orders, move)) for move in reversed(right)]
    return factors


def _invert_move(orders, move):
    if move[0] == "transvect":
        _, dst, src, coeff = move
        return ("transvect", dst, src, -coeff)
    _, idx, unit = move
    return ("scale", idx, pow(unit, -1, orders[idx]))


def _left_apply(orders, work, move) -> None:
    """work <- E * work for an elementary move E (row operation)."""
    n = len(work)
    if move[0] == "transvect":
        _, dst, src, coeff = move
        q = orders[dst]
        row_src = work[src]
        row_dst = work[dst]
        for j in range(n):
            row_dst[j] = (row_dst[j] + coeff * row_src[j]) % q
    else:
        _, idx, unit = move
        q = orders[idx]
        work[idx] = [(v * unit) % q for v in work[idx]]


def _right_apply(orders, work, move) -> None:
    """work <- work * E for an elementary move E (column operation)."""
    n = len(work)
    if move[0] == "transvect":
        # E = I + coeff * E_{dst,src} adds coeff * col_dst to col_src.
        _, dst, src, coeff = move
        for i in range(n):
            work[i][src] = (work[i][src] + coeff * work[i][dst]) % orders[i]
    else:
        _, idx, unit = move
        for i in range(n):
            work[i][idx] = (work[i][idx] * unit) % orders[i]


def moves_matrix(group: Group, moves) -> HomMatrix:
    """The product of the moves, the first applied first: each acts as a
    row operation on one integer matrix, validated once at the end."""
    work = identity_matrix(group.num_factors)
    for move in moves:
        _left_apply(group.orders, work, move)
    return HomMatrix(group, group, tuple(tuple(r) for r in work))


def random_automorphism(group: Group, rng, length: int | None = None) -> HomMatrix:
    """A random automorphism sampled as a product of random elementary
    moves (membership guaranteed by construction; not uniform)."""
    orders = group.orders
    n = group.num_factors
    length = length if length is not None else 6 * n
    moves = []
    for _ in range(length):
        if n == 1 or rng.random() < 0.3:
            idx = rng.randrange(n)
            q = orders[idx]
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            moves.append(("scale", idx, rng.choice(units)))
        else:
            dst = rng.randrange(n)
            src = rng.randrange(n)
            while src == dst:
                src = rng.randrange(n)
            step = orders[dst] // gcd(orders[dst], orders[src])
            coeff = step * rng.randrange(orders[dst] // step)
            moves.append(("transvect", dst, src, coeff))
    return moves_matrix(group, moves)
