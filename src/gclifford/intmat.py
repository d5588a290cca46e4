"""Exact integer matrix algorithms over Z: extended Euclid and the Smith
normal form.

Everything here works on plain lists of Python ints, so there is no
overflow; these routines back the automorphism tests, inverses and the
stabilizer lattice bookkeeping.
"""

from __future__ import annotations

from math import gcd


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd with a deterministic normalization.

    Returns (g, x, y) with x*a + y*b == g == gcd(a, b) and, for b != 0, the
    coefficient x normalized into [0, |b/g|).  Rejects (0, 0).
    """
    if a == 0 and b == 0:
        raise ValueError("bezout(0, 0) is undefined")
    g, x, y = ext_gcd(a, b)
    if b != 0:
        step = abs(b // g)
        x %= step
        y = (g - x * a) // b
    return g, x, y


def stab_multiplier(a: int, b: int, n: int) -> int:
    """Smallest t >= 0 with gcd(a + t*b, n) == gcd(a, b, n).

    The multiplier lets a single row/column combination concentrate the
    whole ideal (a, b) of Z/n into one entry.  Brute force is fine at the
    modulus sizes this package targets.
    """
    target = gcd(gcd(a, b), n)
    for t in range(max(n, 1)):
        if gcd(a + t * b, n) == target:
            return t
    raise ArithmeticError(f"no stabilizing multiplier for ({a}, {b}) mod {n}")


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def is_identity(a: list[list[int]]) -> bool:
    return all(a[i][j] == (1 if i == j else 0) for i in range(len(a)) for j in range(len(a[i])))


def smith_normal_form(mat: list[list[int]]):
    """Return (U, S, V) with U @ mat @ V == S in Smith normal form.

    U and V are unimodular; S is diagonal with s_0 | s_1 | ... and s_i >= 0.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    s = [row[:] for row in mat]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src
        srow, drow = s[src], s[dst]
        for j in range(cols):
            drow[j] += k * srow[j]
        surow, durow = u[src], u[dst]
        for j in range(rows):
            durow[j] += k * surow[j]

    def add_col(src, dst, k):
        for row in s:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # Locate the smallest nonzero entry of the trailing block.
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(s[i][j])
                    if val and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(pi, t)
            if pj != t:
                swap_cols(pj, t)
            if s[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j]:
                        dirty = True
            if dirty:
                continue
            # Enforce the divisibility chain.
            p = s[t][t]
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if s[t][t] < 0:
            negate_row(t)
    return u, s, v

