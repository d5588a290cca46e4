import random

from gclifford.intmat import (bezout, ext_gcd, is_identity,
                              mat_mul, smith_normal_form, stab_multiplier)
from math import gcd

import pytest


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def solve_linear(mat: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One integer solution x of mat @ x == rhs, or None if unsolvable,
    from the Smith normal form; the reference the program's solvers are
    checked against."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    u, s, v = smith_normal_form(mat)
    ub = mat_vec(u, rhs)
    y = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            if i < cols:
                y[i] = ub[i] // d
    return mat_vec(v, y)


def test_ext_gcd_identity():
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 and b == 0:
            continue
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


def test_bezout_examples():
    assert bezout(4, 6)[0] == 2
    assert bezout(1, 0) == (1, 1, 0)
    g, x, y = bezout(35, 15)
    assert g == 5 and 35 * x + 15 * y == 5
    assert 0 <= x < abs(15 // 5)


def test_bezout_rejects_zero_pair():
    with pytest.raises(ValueError):
        bezout(0, 0)


def test_bezout_normalization_range():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if a == 0 and b == 0:
            continue
        g, x, y = bezout(a, b)
        assert x * a + y * b == g == gcd(a, b)
        if b != 0:
            assert 0 <= x < abs(b // g)


def test_stab_multiplier():
    for n in range(2, 30):
        for a in range(n):
            for b in range(n):
                t = stab_multiplier(a, b, n)
                assert gcd(a + t * b, n) == gcd(gcd(a, b), n)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols)
        u, s, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        # diagonal, chain-divisible, nonnegative
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            if d2:
                assert d1 != 0 and d2 % d1 == 0


def test_solve_linear_roundtrip():
    rng = random.Random(4)
    hits = 0
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = _random_matrix(rng, rows, cols, -5, 5)
        x_true = [rng.randint(-4, 4) for _ in range(cols)]
        rhs = mat_vec(a, x_true)
        x = solve_linear(a, rhs)
        assert x is not None
        assert mat_vec(a, x) == rhs
        hits += 1
    assert hits == 200


def test_solve_linear_unsolvable():
    assert solve_linear([[2]], [1]) is None
    assert solve_linear([[2, 0], [0, 2]], [1, 2]) is None


def test_is_identity():
    assert is_identity([[1, 0], [0, 1]])
    assert not is_identity([[1, 1], [0, 1]])
