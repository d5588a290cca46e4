import itertools
import random
from fractions import Fraction

import pytest

from gclifford.errors import DegenerateFormError, IncompleteTableError
from gclifford.forms import (Character, QuadraticForm, SymmetricBilinearForm,
                             bilinear_from_hom, char_eval, fit_quadratic_table,
                             i_xi, i_xi_inverse, i_xi_matrix, induced_hom,
                             is_nondegenerate, is_quadratic_table,
                             lift_bilinear, polarize, quad_eval,
                             standard_nondegenerate_form)
from gclifford.groups import make_group
from gclifford.phases import Phase

SMALL_GROUPS = [(2,), (3,), (4,), (6,), (4, 2), (2, 2), (3, 3), (8, 2), (2, 2, 2)]


def all_bilinear_forms(group):
    """Enumerate every symmetric bilinear form on a small group."""
    from math import gcd
    n = group.num_factors
    q = group.orders
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    ranges = [range(gcd(q[i], q[j])) for (i, j) in slots]
    for combo in itertools.product(*ranges):
        coeffs = [[0] * n for _ in range(n)]
        for (i, j), c in zip(slots, combo):
            coeffs[i][j] = coeffs[j][i] = c
        yield SymmetricBilinearForm(group, tuple(tuple(r) for r in coeffs))


def some_quadratic_forms(group, rng, count=20):
    from math import gcd
    n = group.num_factors
    q = group.orders
    for _ in range(count):
        diag = []
        for i in range(n):
            cand = [a for a in range(2 * q[i]) if (a * q[i]) % 2 == 0]
            diag.append(rng.choice(cand))
        cross = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                cross[i][j] = rng.randrange(gcd(q[i], q[j]))
        linear = [rng.randrange(q[i]) for i in range(n)]
        yield QuadraticForm(group, tuple(diag), tuple(tuple(r) for r in cross),
                            tuple(linear))


def test_char_eval_examples():
    z4 = make_group([4])
    assert char_eval(Character(z4, (1,)), z4.element((2,))) == Phase(1, 2)
    assert char_eval(Character.trivial(z4), z4.element((3,))) == Phase()
    g42 = make_group([4, 2])
    assert char_eval(Character(g42, (1, 1)), g42.element((1, 1))) == Phase(3, 4)


def test_char_additivity():
    g = make_group([4, 2])
    for chi_el in g.elements():
        chi = Character(g, chi_el.residues)
        for a in g.elements():
            for b in g.elements():
                assert chi.eval(a + b) == chi.eval(a) + chi.eval(b)


def test_character_arithmetic_stays_on_the_dual_side():
    g = make_group([4, 2])
    chi, psi = Character(g, (1, 1)), Character.generator(g, 0)
    for value in (chi + psi, chi - psi, -chi):
        assert type(value) is Character
    assert chi + psi == Character(g, (2, 1)) and (-chi).residues == (3, 1)
    assert chi != g.element((1, 1)) and g.element((1, 1)) != chi
    assert (chi - chi).is_zero() and chi.order == 4


def test_quad_eval_examples():
    z2 = make_group([2])
    s_like = QuadraticForm.diagonal(z2, (1,))
    assert quad_eval(s_like, z2.element((1,))) == Phase(1, 4)
    assert quad_eval(s_like, z2.zero()) == Phase()
    z3 = make_group([3])
    xi = QuadraticForm.diagonal(z3, (2,))
    assert quad_eval(xi, z3.element((1,))) == Phase(1, 3)
    assert quad_eval(xi, z3.element((2,))) == Phase(1, 3)
    # homogeneous forms are even
    for g in z3.elements():
        assert xi.eval(g) == xi.eval(-g)


def test_quadratic_form_parity_invariant():
    z3 = make_group([3])
    with pytest.raises(ValueError):
        QuadraticForm.diagonal(z3, (1,))
    QuadraticForm.diagonal(z3, (2,))  # fine


def test_quad_eval_representative_independence():
    # the defining formula must not care which integer lift is used
    rng = random.Random(31)
    from math import gcd
    for orders in SMALL_GROUPS:
        group = make_group(orders)
        if group.order > 64:
            continue
        for xi in some_quadratic_forms(group, rng, 5):
            for g in group.elements():
                base = xi.eval(g)
                lift = [r + q * rng.randint(0, 3) for r, q in zip(g.residues, orders)]
                total = Fraction(0)
                for i, gi in enumerate(lift):
                    total += Fraction(xi.diag[i] * gi * gi, 2 * orders[i])
                    total += Fraction(xi.linear[i] * gi, orders[i])
                    for j in range(i + 1, len(orders)):
                        total += Fraction(xi.cross[i][j] * gi * lift[j],
                                          gcd(orders[i], orders[j]))
                assert Phase.from_fraction(total) == base


def test_polarize_examples():
    z2 = make_group([2])
    xi = QuadraticForm.diagonal(z2, (1,))
    b = polarize(xi)
    assert b.value(z2.element((1,)), z2.element((1,))) == Phase(1, 2)
    z4 = make_group([4])
    b4 = polarize(QuadraticForm.diagonal(z4, (2,)))
    assert b4.value(z4.element((1,)), z4.element((1,))) == Phase(1, 2)
    # linear-only forms polarize to nothing
    g42 = make_group([4, 2])
    lin = QuadraticForm(g42, (0, 0), ((0, 0), (0, 0)), (3, 1))
    assert polarize(lin).is_trivial()


def test_polarize_matches_difference_exhaustive():
    rng = random.Random(37)
    for orders in SMALL_GROUPS:
        group = make_group(orders)
        if group.order > 64:
            continue
        for xi in some_quadratic_forms(group, rng, 6):
            b = polarize(xi)
            for g in group.elements():
                for h in group.elements():
                    assert xi.eval(g + h) - xi.eval(g) - xi.eval(h) == b.value(g, h)


def test_polarize_is_bicharacter():
    rng = random.Random(41)
    for orders in [(4, 2), (3, 3), (6,)]:
        group = make_group(orders)
        for xi in some_quadratic_forms(group, rng, 4):
            b = polarize(xi)
            for g in group.elements():
                for h in group.elements():
                    for k in group.elements():
                        assert b.value(g + k, h) == b.value(g, h) + b.value(k, h)
                        assert b.value(g, h + k) == b.value(g, h) + b.value(g, k)


def test_lift_bilinear_round_trip_exhaustive():
    for orders in [(2,), (3,), (4,), (4, 2), (2, 2), (3, 3), (8, 4), (2, 2, 2)]:
        group = make_group(orders)
        for b in all_bilinear_forms(group):
            xi = lift_bilinear(b)
            assert all(v == 0 for v in xi.linear)
            back = polarize(xi)
            assert back.coeffs == b.coeffs


def test_lift_bilinear_examples():
    z3 = make_group([3])
    b = SymmetricBilinearForm(z3, ((1,),))
    xi = lift_bilinear(b)
    # even representative of 1 mod 3 inside [0, 6)
    assert xi.diag == (4,)
    assert polarize(xi).coeffs == b.coeffs

    g42 = make_group([4, 2])
    b2 = SymmetricBilinearForm(g42, ((0, 1), (1, 0)))
    xi2 = lift_bilinear(b2)
    assert xi2.diag == (0, 0)
    for g in g42.elements():
        expected = Phase(g.residues[0] * g.residues[1], 2)
        assert xi2.eval(g) == expected

    assert lift_bilinear(SymmetricBilinearForm.trivial(g42)).same_values(
        QuadraticForm.zero(g42))


def test_exactness_kernel_is_characters():
    # polarize(xi) trivial <=> xi has a character's value table
    group = make_group([4, 2])
    rng = random.Random(43)
    chars = {tuple(Character(group, c.residues).eval(g) for g in group.elements())
             for c in group.elements()}
    for xi in some_quadratic_forms(group, rng, 30):
        table = tuple(xi.eval(g) for g in group.elements())
        if polarize(xi).is_trivial():
            assert table in chars
        else:
            assert table not in chars
    for c in group.elements():
        lin = QuadraticForm(group, (0, 0), ((0, 0), (0, 0)), c.residues)
        assert polarize(lin).is_trivial()


def test_two_lifts_differ_by_character():
    group = make_group([4, 2])
    rng = random.Random(47)
    forms = list(some_quadratic_forms(group, rng, 25))
    for xi in forms:
        for eta in forms:
            if polarize(xi).coeffs != polarize(eta).coeffs:
                continue
            diff = {g: xi.eval(g) - eta.eval(g) for g in group.elements()}
            for a in group.elements():
                for b in group.elements():
                    assert diff[a + b] == diff[a] + diff[b]


def test_is_quadratic_table():
    rng = random.Random(53)
    for orders in [(2,), (3,), (4, 2)]:
        group = make_group(orders)
        for xi in some_quadratic_forms(group, rng, 4):
            assert is_quadratic_table(group, xi.value_table())
    z2 = make_group([2])
    t_like = {z2.zero(): Phase(), z2.element((1,)): Phase(1, 8)}
    assert not is_quadratic_table(z2, t_like)
    z3 = make_group([3])
    cubic = {z3.zero(): Phase(), z3.element((1,)): Phase(1, 9),
             z3.element((2,)): Phase(8, 9)}
    assert not is_quadratic_table(z3, cubic)
    with pytest.raises(IncompleteTableError):
        is_quadratic_table(z3, {z3.zero(): Phase()})


def test_fit_quadratic_table():
    rng = random.Random(59)
    for orders in [(2,), (3,), (4,), (4, 2)]:
        group = make_group(orders)
        for xi in some_quadratic_forms(group, rng, 6):
            fitted = fit_quadratic_table(group, xi.value_table())
            assert fitted.same_values(xi)
    z2 = make_group([2])
    with pytest.raises(ValueError):
        fit_quadratic_table(z2, {z2.zero(): Phase(), z2.element((1,)): Phase(1, 8)})


def test_is_nondegenerate_examples():
    z2 = make_group([2])
    assert is_nondegenerate(QuadraticForm.diagonal(z2, (1,)))
    assert not is_nondegenerate(QuadraticForm.zero(z2))
    z4 = make_group([4])
    assert is_nondegenerate(QuadraticForm.diagonal(z4, (1,)))
    for orders in [(2,), (3,), (4,), (4, 2), (6,)]:
        group = make_group(orders)
        assert is_nondegenerate(standard_nondegenerate_form(group))


def test_i_xi_examples_and_relation():
    z2 = make_group([2])
    xi = QuadraticForm.diagonal(z2, (1,))
    assert i_xi(xi, Character(z2, (1,))).residues == (1,)
    assert i_xi(xi, Character.trivial(z2)).is_zero()

    z3 = make_group([3])
    xi3 = QuadraticForm.diagonal(z3, (2,))
    chi = Character(z3, (1,))
    t = i_xi(xi3, chi)
    b = polarize(xi3)
    hits = [u for u in z3.elements()
            if all(-b.value(u, g) == chi.eval(g) for g in z3.elements())]
    assert hits == [t]


def test_i_xi_defining_relation_exhaustive():
    rng = random.Random(61)
    for orders in [(2,), (3,), (4,), (4, 2), (6,), (3, 3)]:
        group = make_group(orders)
        candidates = [standard_nondegenerate_form(group)]
        candidates += [x for x in some_quadratic_forms(group, rng, 8)
                       if is_nondegenerate(x)]
        for xi in candidates[:4]:
            b = polarize(xi)
            for chi_el in group.elements():
                chi = Character(group, chi_el.residues)
                t = i_xi(xi, chi)
                for g in group.elements():
                    # xi(g) + xi(t) - xi(g + t) == chi(g)
                    assert xi.eval(g) + xi.eval(t) - xi.eval(g + t) == chi.eval(g)
                assert i_xi_inverse(xi, t).residues == chi.residues


def test_i_xi_degenerate_rejected():
    z4 = make_group([4])
    degenerate = QuadraticForm.diagonal(z4, (2,))
    assert not is_nondegenerate(degenerate)
    with pytest.raises(DegenerateFormError):
        i_xi_matrix(degenerate)


def test_induced_hom_round_trip():
    rng = random.Random(67)
    for orders in [(4, 2), (3, 3), (6, 2)]:
        group = make_group(orders)
        for b in itertools.islice(all_bilinear_forms(group), 0, 50):
            hom = induced_hom(b)
            assert hom.dual().entries == hom.entries  # symmetry
            for g in group.elements():
                chi = Character(group, hom.apply(g).residues)
                for h in group.elements():
                    assert chi.eval(h) == b.value(g, h)
            assert bilinear_from_hom(hom).coeffs == b.coeffs
