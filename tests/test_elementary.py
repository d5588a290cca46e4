import random
import time
from math import gcd

import pytest

from gclifford.clifford import AutomorphismGate, FourierGate, QuadraticGate
from gclifford.elementary import (automorphism_elementary_factors,
                                  column_clear_moves, moves_matrix,
                                  random_automorphism, random_form_diagonal,
                                  random_unit)
from gclifford.errors import NotExtendableError
from gclifford.forms import QuadraticForm
from gclifford.groups import Group, HomMatrix, is_automorphism, make_group
from gclifford.symplectic import random_symplectic, sequence_image
from gclifford.verify import random_clifford_circuit, random_quadratic_form


def test_transvection_validity():
    g = make_group([4, 2])
    t = moves_matrix(g, [("transvect", 0, 1, 2)])
    assert is_automorphism(t)
    with pytest.raises(ValueError):
        moves_matrix(g, [("transvect", 0, 1, 1)])  # 1 * 2 != 0 mod 4


def test_column_clear_moves_simple():
    g = make_group([4, 2])
    vec = [1, 1]
    moves = column_clear_moves(g.orders, vec, 0, [0, 1])
    assert vec == [1, 0]
    # replay through matrices
    v = g.element((1, 1))
    for mv in moves:
        v = moves_matrix(g, [mv]).apply(v)
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
                u = moves_matrix(g, [mv]).apply(u)
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


def _move_hom(group, i, j, value):
    """The identity with entry (i, j) set to ``value``: one elementary move
    written as its own validated ``HomMatrix``."""
    n = group.num_factors
    entries = [[int(r == c) for c in range(n)] for r in range(n)]
    entries[i][j] = value
    return HomMatrix(group, group, tuple(map(tuple, entries)))


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
            out = _move_hom(group, idx, idx, rng.choice(units)).compose(out)
        else:
            dst = rng.randrange(n)
            src = rng.randrange(n)
            while src == dst:
                src = rng.randrange(n)
            step = orders[dst] // gcd(orders[dst], orders[src])
            coeff = step * rng.randrange(orders[dst] // step)
            out = _move_hom(group, dst, src, coeff).compose(out)
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


def test_unit_and_diagonal_draws_match_the_listed_choice():
    """The helpers give the value of ``rng.choice`` over the listed units
    and form diagonals, and leave the generator in the same state."""
    for q in range(2, 200):
        for seed in range(5):
            fast, listed = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_unit(q, fast) == listed.choice(
                    [u for u in range(1, q) if gcd(u, q) == 1])
                assert random_form_diagonal(q, fast) == listed.choice(
                    [a for a in range(2 * q) if a * q % 2 == 0])
            assert fast.getstate() == listed.getstate()


def _reference_form_draws(group, rng):
    """Diagonal then cross coefficients, drawn inline as the samplers did
    before sharing ``random_form_coefficients``."""
    n, q = group.num_factors, group.orders
    diag = tuple(random_form_diagonal(q[i], rng) for i in range(n))
    cross = tuple(tuple(rng.randrange(gcd(q[i], q[j])) if i < j else 0
                        for j in range(n)) for i in range(n))
    return diag, cross


def _reference_quadratic_form(group, rng):
    diag, cross = _reference_form_draws(group, rng)
    linear = tuple(rng.randrange(q) for q in group.orders)
    return QuadraticForm(group, diag, cross, linear)


def _reference_symplectic(group, rng):
    gates = []
    for _ in range(20 * group.num_factors):
        kind = rng.randrange(3)
        if kind == 0:
            gates.append(AutomorphismGate(random_automorphism(group, rng)))
        elif kind == 1:
            diag, cross = _reference_form_draws(group, rng)
            zero = (0,) * group.num_factors
            gates.append(QuadraticGate(QuadraticForm(group, diag, cross, zero)))
        else:
            gates.append(FourierGate(random_automorphism(group, rng)))
    return sequence_image(gates, group)


@pytest.mark.parametrize("orders", [(2,) * 5, (8, 4, 2, 2), (4, 4, 2), (3, 3)])
def test_form_samplers_keep_their_draws(orders):
    """Both samplers of form coefficients give the same forms and maps as
    the inline draws, and leave the generator in the same state."""
    g = make_group(orders)
    for seed in range(5):
        for sample, reference in ((random_quadratic_form, _reference_quadratic_form),
                                  (random_symplectic, _reference_symplectic)):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert sample(g, rng) == reference(g, ref_rng), (orders, seed)
            assert rng.getstate() == ref_rng.getstate(), (orders, seed)


def test_sampling_over_a_large_modulus_lists_nothing():
    """Over Z_(2^40) a list of the units or of the form diagonals would
    hold 2^39 or 2^41 entries; the samplers return at once."""
    group = Group((2 ** 40,))
    samplers = [lambda rng: random_automorphism(group, rng),
                lambda rng: random_quadratic_form(group, rng),
                lambda rng: random_clifford_circuit(group, 2, rng)]
    for sample in samplers:
        start = time.perf_counter()
        sample(random.Random(0))
        assert time.perf_counter() - start < 1
