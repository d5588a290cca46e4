import random
from math import gcd

import pytest

from gclifford.elementary import (automorphism_elementary_factors,
                                  column_clear_moves, factor_swap,
                                  move_to_hom, random_automorphism,
                                  scaling, transvection)
from gclifford.errors import NotExtendableError
from gclifford.groups import HomMatrix, is_automorphism, make_group


def test_transvection_validity():
    g = make_group([4, 2])
    t = transvection(g, 0, 1, 2)
    assert is_automorphism(t)
    with pytest.raises(ValueError):
        transvection(g, 0, 1, 1)  # 1 * 2 != 0 mod 4


def test_factor_swap():
    g = make_group([2, 4, 2])
    s = factor_swap(g, 0, 2)
    assert is_automorphism(s)
    assert s.apply(g.element((1, 0, 0))).residues == (0, 0, 1)
    with pytest.raises(ValueError):
        factor_swap(g, 0, 1)


def test_column_clear_moves_simple():
    g = make_group([4, 2])
    vec = [1, 1]
    moves = column_clear_moves(g.orders, vec, 0, [0, 1])
    assert vec == [1, 0]
    # replay through matrices
    v = g.element((1, 1))
    for mv in moves:
        v = move_to_hom(g, mv).apply(v)
    assert v.residues == (1, 0)


def test_column_clear_moves_low_order_rejected():
    g = make_group([4, 2])
    vec = [2, 0]
    with pytest.raises(NotExtendableError):
        column_clear_moves(g.orders, vec, 0, [0, 1])


def test_column_clear_random():
    rng = random.Random(17)
    for orders in [(2,), (4,), (4, 2), (4, 4, 2), (6, 6, 3, 2), (8, 4, 2)]:
        g = make_group(orders)
        for _ in range(25):
            # build a guaranteed-extendable vector: image of e_0
            tau = random_automorphism(g, rng)
            v = tau.column(0)
            vec = list(v.residues)
            moves = column_clear_moves(g.orders, vec, 0, list(range(g.num_factors)))
            assert vec == [1] + [0] * (g.num_factors - 1)
            u = v
            for mv in moves:
                u = move_to_hom(g, mv).apply(u)
            assert u == g.generator(0)


def test_automorphism_elementary_factors_roundtrip():
    rng = random.Random(23)
    for orders in [(2,), (2, 2), (4, 2), (2, 4, 2, 4), (4, 2, 4, 2), (2, 2, 2)]:
        g = make_group(orders)
        for _ in range(20):
            m = random_automorphism(g, rng)
            factors = automorphism_elementary_factors(m)
            acc = HomMatrix.identity(g)
            for f in factors:
                acc = acc.compose(f)
            assert acc.entries == m.entries
            for f in factors:
                touched = set()
                for i in range(g.num_factors):
                    for j in range(g.num_factors):
                        if f.entries[i][j] != (1 if i == j else 0):
                            touched.update((i, j))
                assert len(touched) <= 2


def test_elementary_factors_reject_non_chain():
    g = make_group([2, 3])
    with pytest.raises(ValueError):
        automorphism_elementary_factors(HomMatrix.identity(g))


def test_random_automorphism_is_automorphism():
    rng = random.Random(29)
    for orders in [(2,), (4, 2), (2, 3), (6, 4)]:
        g = make_group(orders)
        for _ in range(10):
            assert is_automorphism(random_automorphism(g, rng))


def _compose_random_automorphism(group, rng, length=None):
    """The sampler as one validated ``HomMatrix`` composition per move."""
    orders = group.orders
    n = group.num_factors
    length = length if length is not None else 6 * n
    out = HomMatrix.identity(group)
    for _ in range(length):
        if n == 1 or rng.random() < 0.3:
            idx = rng.randrange(n)
            q = orders[idx]
            units = [u for u in range(1, q) if gcd(u, q) == 1]
            out = scaling(group, idx, rng.choice(units)).compose(out)
        else:
            dst = rng.randrange(n)
            src = rng.randrange(n)
            while src == dst:
                src = rng.randrange(n)
            step = orders[dst] // gcd(orders[dst], orders[src])
            coeff = step * rng.randrange(orders[dst] // step)
            out = transvection(group, dst, src, coeff).compose(out)
    return out


@pytest.mark.parametrize("orders", [(2,) * 6, (8, 4, 2, 2), (4, 4, 2), (3, 3),
                                    (2, 4) * 3])
def test_random_automorphism_matches_composed_moves(orders):
    """Same rng draws, same maps as composing one matrix per move."""
    g = make_group(orders)
    for seed in range(100):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for length in (None, 3):
            got = random_automorphism(g, rng, length)
            want = _compose_random_automorphism(g, ref_rng, length)
            assert got == want, (orders, seed, length)
            assert rng.getstate() == ref_rng.getstate(), (orders, seed, length)
