import itertools
import random

import pytest

from gclifford import groups
from gclifford.elementary import random_automorphism
from gclifford.errors import GroupMismatchError, NotInvertibleError
from gclifford.groups import (HomMatrix, _lifted_relation_matrix, canonicalize,
                              hom_is_valid, invert_automorphism, is_automorphism,
                              make_group, parse_group, product_group)

from test_intmat import solve_linear


def brute_force_bijective(m: HomMatrix) -> bool:
    seen = set()
    for a in m.source.elements():
        seen.add(m.apply(a).residues)
    return len(seen) == m.source.order


def test_make_group():
    g = make_group([4, 2])
    assert g.canonical and g.order == 8 and g.exponent == 4
    assert make_group([2]).canonical
    assert not make_group([2, 3]).canonical
    with pytest.raises(ValueError):
        make_group([4, 1])
    with pytest.raises(ValueError):
        make_group([])


def test_parse_group():
    assert parse_group("4,2") == make_group([4, 2])
    with pytest.raises(ValueError):
        parse_group("4,x")


def test_element_arithmetic():
    g = make_group([4, 2])
    a = g.element((3, 1))
    b = g.element((2, 1))
    assert (a + b).residues == (1, 0)
    assert (-a).residues == (1, 1)
    assert (a - a).is_zero()
    assert g.element((2, 0)).order == 2
    assert g.zero().order == 1
    assert g.element((1, 1)).order == 4
    with pytest.raises(GroupMismatchError):
        a + make_group([2]).zero()


def test_hom_validity():
    g = make_group([4, 2])
    assert not hom_is_valid(g, g, ((1, 1), (0, 1)))
    assert hom_is_valid(g, g, ((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        HomMatrix(g, g, ((1, 1), (0, 1)))


def test_hom_apply_additive():
    rng = random.Random(7)
    for orders in [(4, 2), (2, 3), (6,), (2, 2, 2), (8, 4)]:
        g = make_group(orders)
        if g.order > 64:
            continue
        n = g.num_factors
        # random valid matrices
        for _ in range(10):
            entries = []
            for i in range(n):
                qi = g.orders[i]
                row = []
                for j in range(n):
                    step = qi // __import__("math").gcd(qi, g.orders[j])
                    row.append(step * rng.randrange(qi // step))
                entries.append(tuple(row))
            m = HomMatrix(g, g, tuple(entries))
            for a in g.elements():
                for b in g.elements():
                    assert m.apply(a + b) == m.apply(a) + m.apply(b)


def test_hom_apply_embedded_worked_example():
    # 4x4 matrix over (Z4 x Z2) x dual, natural-residue translation of the
    # embedded convention where Z2 slots carry values in {0, 2} within Z4.
    gg = make_group([4, 2, 4, 2])
    embedded = [[2, 1, 3, 0], [2, 0, 2, 0], [1, 0, 0, 1], [0, 1, 0, 1]]
    natural = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            qi, qj = gg.orders[i], gg.orders[j]
            val = embedded[i][j] * qi
            assert val % qj == 0
            natural[i][j] = (val // qj) % qi
    m = HomMatrix(gg, gg, tuple(tuple(r) for r in natural))
    # embedded input (1,0,3,2) -> natural (1,0,3,1)
    out = m.apply(gg.element((1, 0, 3, 1)))
    # expected embedded (3,0,3,2) -> natural (3,0,3,1)
    assert out.residues == (3, 0, 3, 1)


def test_hom_identity_zero():
    g = make_group([4, 2])
    a = g.element((3, 1))
    assert HomMatrix.identity(g).apply(a) == a
    assert HomMatrix.zero(g, g).apply(a).is_zero()


def test_is_automorphism_matches_brute_force():
    rng = random.Random(11)
    for orders in [(2,), (4,), (4, 2), (2, 3), (2, 2), (6, 2), (8, 4, 2)]:
        g = make_group(orders)
        n = g.num_factors
        trials = 0
        while trials < 40:
            entries = []
            for i in range(n):
                qi = g.orders[i]
                row = []
                for j in range(n):
                    step = qi // __import__("math").gcd(qi, g.orders[j])
                    row.append(step * rng.randrange(qi // step))
                entries.append(tuple(row))
            m = HomMatrix(g, g, tuple(entries))
            assert is_automorphism(m) == brute_force_bijective(m)
            trials += 1


def test_spec_automorphism_example():
    g = make_group([4, 2])
    m = HomMatrix(g, g, ((1, 2), (1, 1)))
    assert is_automorphism(m)
    assert brute_force_bijective(m)
    assert is_automorphism(HomMatrix.identity(g))
    assert invert_automorphism(HomMatrix.identity(g)).is_identity()


def test_invert_automorphism():
    rng = random.Random(13)
    from gclifford.elementary import random_automorphism
    for orders in [(2,), (4, 2), (2, 3), (6, 2), (4, 4, 2)]:
        g = make_group(orders)
        for _ in range(15):
            m = random_automorphism(g, rng)
            inv = invert_automorphism(m)
            assert m.compose(inv).is_identity()
            assert inv.compose(m).is_identity()


def test_invert_non_automorphism_raises_with_witness():
    g = make_group([4, 2])
    m = HomMatrix(g, g, ((2, 0), (0, 1)))
    assert not is_automorphism(m)
    with pytest.raises(NotInvertibleError) as err:
        invert_automorphism(m)
    w = err.value.witness
    assert w is not None
    assert m.apply(g.element(w)).is_zero() and any(w)


def reference_inverse(m: HomMatrix) -> HomMatrix | None:
    """The inverse column by column, one ``solve_linear`` (and one Smith
    form) per column of the lifted relation matrix; None if some column
    has no solution."""
    n = m.source.num_factors
    lifted = _lifted_relation_matrix(m)
    cols = []
    for i in range(n):
        sol = solve_linear(lifted, [1 if k == i else 0 for k in range(n)])
        if sol is None:
            return None
        cols.append(sol[:n])
    return HomMatrix(m.source, m.source,
                     tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


def all_endomorphisms(g):
    n = g.num_factors
    rows = [list(itertools.product(range(q), repeat=n)) for q in g.orders]
    for entries in itertools.product(*rows):
        if hom_is_valid(g, g, entries):
            yield HomMatrix(g, g, entries)


@pytest.mark.parametrize("orders", [(2, 2), (4, 2), (3, 3), (6, 2)])
def test_invert_matches_reference_exhaustive(orders):
    g = make_group(orders)
    bijections = 0
    for m in all_endomorphisms(g):
        ref = reference_inverse(m)
        if ref is not None:
            assert invert_automorphism(m) == ref
            bijections += 1
            continue
        # a second call with an equal, distinct matrix raises again:
        # exceptions are not memoized
        for mat in (m, HomMatrix(g, g, m.entries)):
            with pytest.raises(NotInvertibleError, match="not surjective") as err:
                invert_automorphism(mat)
            w = g.element(err.value.witness)
            assert not w.is_zero() and m.apply(w).is_zero()
    assert bijections == sum(brute_force_bijective(m) for m in all_endomorphisms(g))


@pytest.mark.parametrize("orders", [(2,) * 6, (8, 4, 2, 2)])
def test_invert_matches_reference_random(orders):
    rng = random.Random(17)
    g = make_group(orders)
    for _ in range(50):
        m = random_automorphism(g, rng)
        assert invert_automorphism(m) == reference_inverse(m)


def test_invert_runs_one_smith_form_and_memoizes(monkeypatch):
    calls = []
    real = groups.smith_normal_form

    def counting(mat):
        calls.append(len(mat))
        return real(mat)

    monkeypatch.setattr(groups, "smith_normal_form", counting)
    invert_automorphism.cache_clear()
    try:
        g = make_group((8, 4, 2, 2, 2, 2))
        m = random_automorphism(g, random.Random(5))
        inv = invert_automorphism(m)
        assert calls == [6]
        assert invert_automorphism(HomMatrix(g, g, m.entries)) is inv
        assert calls == [6]
        info = invert_automorphism.cache_info()
        assert (info.hits, info.misses) == (1, 1)
    finally:
        invert_automorphism.cache_clear()


def test_dual_matrix():
    g = make_group([4, 2])
    m = HomMatrix(g, g, ((1, 2), (1, 1)))
    d = m.dual()
    # duality: chi(m(a)) == (dual chi)(a) for the canonical pairing
    from fractions import Fraction
    for a in g.elements():
        for chi in g.elements():
            lhs = sum(Fraction(c * x, q) for c, x, q in
                      zip(chi.residues, m.apply(a).residues, g.orders)) % 1
            dc = d.apply(chi)
            rhs = sum(Fraction(c * x, q) for c, x, q in
                      zip(dc.residues, a.residues, g.orders)) % 1
            assert lhs == rhs
    # involution
    assert d.dual().entries == m.entries


def test_canonicalize_crt():
    g = make_group([2, 3])
    canon, iso = canonicalize(g)
    assert canon.orders == (6,)
    seen = set()
    for a in g.elements():
        img = iso.forward.apply(a)
        seen.add(img.residues)
        assert iso.backward.apply(img) == a
        for b in g.elements():
            assert iso.forward.apply(a + b) == iso.forward.apply(a) + iso.forward.apply(b)
    assert len(seen) == 6


def test_canonicalize_already_canonical():
    g = make_group([4, 2])
    canon, iso = canonicalize(g)
    assert canon.orders == (4, 2)
    assert iso.forward.is_identity()


def test_canonicalize_reorder():
    g = make_group([2, 4])
    canon, iso = canonicalize(g)
    assert canon.orders == (4, 2)
    seen = {iso.forward.apply(a).residues for a in g.elements()}
    assert len(seen) == 8


def test_canonicalize_exhaustive_small():
    for orders in itertools.product([2, 3, 4, 6], repeat=2):
        g = make_group(orders)
        if g.order > 64:
            continue
        canon, iso = canonicalize(g)
        assert canon.canonical
        assert canon.order == g.order
        seen = {iso.forward.apply(a).residues for a in g.elements()}
        assert len(seen) == g.order


def test_product_group():
    g = make_group([4, 2])
    assert product_group(g, 3).orders == (4, 2) * 3


def test_is_automorphism_brute_force_larger_group():
    # a group of order 1024 keeps the SNF test honest at scale
    rng = random.Random(4096)
    g = make_group([16, 16, 4])
    n = g.num_factors
    from math import gcd as _gcd
    agree = 0
    for _ in range(10):
        entries = []
        for i in range(n):
            qi = g.orders[i]
            row = []
            for j in range(n):
                step = qi // _gcd(qi, g.orders[j])
                row.append(step * rng.randrange(qi // step))
            entries.append(tuple(row))
        m = HomMatrix(g, g, tuple(entries))
        assert is_automorphism(m) == brute_force_bijective(m)
        agree += 1
    from gclifford.elementary import random_automorphism
    for _ in range(5):
        m = random_automorphism(g, rng)
        assert is_automorphism(m) and brute_force_bijective(m)
