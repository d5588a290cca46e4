import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from gclifford.clifford import (FourierGate, PauliGate, QuadraticGate,
                                gate_tableau, pairing_witness,
                                sequence_tableau)
from gclifford.dense import gate_matrix
from gclifford.elementary import random_automorphism
from gclifford.errors import (NotExtendableError, NotSymplecticError)
from gclifford.forms import standard_nondegenerate_form
from gclifford.groups import HomMatrix, make_group
from gclifford.phases import Phase
from gclifford.symplectic import (SymplecticMap, decompose, decompose_clifford,
                                  doubled_group, extend_to_automorphism,
                                  gate_image, is_symplectic, random_symplectic,
                                  sequence_image, split_fourier_gates,
                                  split_fourier_iso, tableau_image)

from test_clifford import random_gate, random_quadratic


def beta_residues(orders, u, v) -> Phase:
    """Pairing of two residue vectors over G x G^ (element part first), as
    a sum of ``Fraction`` terms: the reference for the integer pairing."""
    m = len(orders)
    total = Fraction(0)
    for i in range(m):
        total += Fraction(u[m + i] * v[i] - v[m + i] * u[i], orders[i])
    return Phase.from_fraction(total)


def test_identity_is_symplectic():
    for orders in [(2,), (4, 2), (2, 3)]:
        g = make_group(orders)
        assert is_symplectic(SymplecticMap.identity(g))


def test_z2_block_swap_is_symplectic():
    z2 = make_group([2])
    big = doubled_group(z2)
    swap = SymplecticMap(z2, HomMatrix(big, big, ((0, 1), (1, 0))))
    assert is_symplectic(swap)


def test_beta_violation_detected():
    z2 = make_group([2])
    big = doubled_group(z2)
    # X -> X+Z, Z -> Z: an automorphism that does not preserve the pairing
    bad = SymplecticMap(z2, HomMatrix(big, big, ((1, 0), (1, 1))))
    # this one IS symplectic (it is the S-gate image); build a real violation:
    assert is_symplectic(bad)
    worse = SymplecticMap(z2, HomMatrix(big, big, ((1, 1), (1, 0))))
    # swap with an extra shear: beta((1,1),(1,0)) = -1/2 - ... check directly
    assert is_symplectic(worse) == (_brute_symplectic(worse))


def _brute_pairing(sig):
    g = sig.group
    m = g.num_factors
    ok = True
    for a in range(2 * m):
        for b in range(2 * m):
            ea = [1 if r == a else 0 for r in range(2 * m)]
            eb = [1 if r == b else 0 for r in range(2 * m)]
            ca = [sig.matrix.entries[r][a] for r in range(2 * m)]
            cb = [sig.matrix.entries[r][b] for r in range(2 * m)]
            if beta_residues(g.orders, ca, cb) != beta_residues(g.orders, ea, eb):
                ok = False
    return ok


def _brute_witness(sig):
    """The first column pair, in row-major order, whose ``Fraction``
    pairing differs from that of the unit vectors."""
    g = sig.group
    n = 2 * g.num_factors
    cols = [[row[a] for row in sig.matrix.entries] for a in range(n)]
    units = [[int(r == a) for r in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if beta_residues(g.orders, cols[a], cols[b]) != \
                    beta_residues(g.orders, units[a], units[b]):
                return (a, b)
    return None


def _brute_symplectic(sig):
    from gclifford.groups import is_automorphism
    return _brute_pairing(sig) and is_automorphism(sig.matrix)


def _assert_matches_reference(sig):
    """The integer pairing check and ``is_symplectic`` against the
    ``Fraction`` pairing of every column pair; returns the verdict."""
    witness = pairing_witness(sig.group.orders, sig.matrix.entries)
    assert (witness is None) == _brute_pairing(sig), sig.matrix
    if witness is not None:
        assert witness == _brute_witness(sig), sig.matrix
    verdict = is_symplectic(sig)
    assert verdict == _brute_symplectic(sig), sig.matrix
    return verdict


@pytest.mark.parametrize("q", [2, 4])
def test_is_symplectic_matches_reference_on_every_2x2(q):
    zq = make_group([q])
    big = doubled_group(zq)
    verdicts = set()
    for e in itertools.product(range(q), repeat=4):
        sig = SymplecticMap(zq, HomMatrix(big, big, (e[:2], e[2:])))
        verdicts.add(_assert_matches_reference(sig))
    assert verdicts == {True, False}


@pytest.mark.parametrize("orders", [(4, 2), (3, 3)])
def test_is_symplectic_matches_reference_on_random_4x4(orders):
    rng = random.Random(str(orders))
    g = make_group(orders)
    big = doubled_group(g)
    q = big.orders
    verdicts = set()
    for k in range(200):
        if k % 2:
            sig = random_symplectic(g, rng, 4)
        else:
            # any homomorphism: entry (i, j) a multiple of q_i / gcd(q_i, q_j)
            sig = SymplecticMap(g, HomMatrix(big, big, tuple(
                tuple(q[i] // gcd(q[i], q[j]) * rng.randrange(gcd(q[i], q[j]))
                      for j in range(4)) for i in range(4))))
        verdicts.add(_assert_matches_reference(sig))
    assert verdicts == {True, False}


def test_gate_images_match_tableaux():
    rng = random.Random(3)
    for orders in [(2,), (3,), (4,), (4, 2), (2, 2)]:
        g = make_group(orders)
        for _ in range(8):
            gate = random_gate(g, rng)
            img = gate_image(gate, g)
            tab = tableau_image(gate_tableau(gate, g))
            assert img.entries == tab.matrix.entries
            assert is_symplectic(SymplecticMap(g, img))


def test_pauli_gate_image_is_identity():
    g = make_group([4, 2])
    rng = random.Random(5)
    from test_pauli import random_pauli
    img = gate_image(PauliGate(random_pauli(g, rng)), g)
    assert img.is_identity()


def test_fourier_image_is_block_swap_on_z2():
    z2 = make_group([2])
    img = gate_image(FourierGate(HomMatrix.identity(z2)), z2)
    assert img.entries == ((0, 1), (1, 0))


def test_sequence_image_inverse():
    rng = random.Random(7)
    for orders in [(2,), (4, 2)]:
        g = make_group(orders)
        gates = [random_gate(g, rng) for _ in range(5)]
        from gclifford.clifford import gate_inverse
        inv = [gate_inverse(x) for x in reversed(gates)]
        assert sequence_image(gates + inv, g).matrix.is_identity()


def test_extend_to_automorphism():
    g = make_group([4, 2])
    assert extend_to_automorphism(g.generator(0)).is_identity()
    tau = extend_to_automorphism(g.element((1, 1)))
    assert tau.apply(g.element((1, 1))) == g.generator(0)
    with pytest.raises(NotExtendableError):
        extend_to_automorphism(g.element((2, 0)))


def test_extend_random():
    rng = random.Random(11)
    for orders in [(2,), (4,), (4, 2), (6, 3), (8, 4, 2), (9, 3)]:
        g = make_group(orders)
        for _ in range(15):
            v = random_automorphism(g, rng).column(0)
            tau = extend_to_automorphism(v)
            assert tau.apply(v) == g.generator(0)


def test_split_fourier_image_blocks():
    for orders in [(4, 2), (2, 2), (6, 2), (4, 4, 2)]:
        g = make_group(orders)
        m = g.num_factors
        for pivot in range(m):
            xi = standard_nondegenerate_form(make_group(orders[pivot:]))
            gates = split_fourier_gates(g, xi, pivot)
            img = sequence_image(gates, g).matrix
            for i in range(pivot):
                for pos in (i, m + i):
                    col = [img.entries[r][pos] for r in range(2 * m)]
                    assert col == [1 if r == pos else 0 for r in range(2 * m)]
            for i in range(pivot, m):
                for j in range(pivot, m):
                    assert img.entries[i][j] == 0
                    assert img.entries[m + i][m + j] == 0


@pytest.mark.parametrize("orders", [(4, 2), (2, 2), (6, 2), (4, 4, 2), (3, 3), (2, 2, 2)])
def test_split_fourier_dense_layout(orders):
    """The compiler's layout, spectators first: the dense product of the
    circuit is I (x) F on the block, up to one phase."""
    g = make_group(orders)
    for t in range(1, g.num_factors):
        block = make_group(orders[t:])
        xi = standard_nondegenerate_form(block)
        u = np.eye(g.order, dtype=complex)
        for gate in split_fourier_gates(g, xi, t):
            u = gate_matrix(gate, g) @ u
        target = np.kron(np.eye(make_group(orders[:t]).order),
                         gate_matrix(FourierGate(split_fourier_iso(xi)), block))
        idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
        phase = u[idx] / target[idx]
        assert abs(abs(phase) - 1) < 1e-9, (orders, t)
        assert np.max(np.abs(u - phase * target)) < 1e-9, (orders, t)


def test_random_symplectic_is_symplectic():
    rng = random.Random(13)
    for orders in [(2,), (4,), (4, 2), (6,), (2, 2)]:
        g = make_group(orders)
        for _ in range(5):
            assert is_symplectic(random_symplectic(g, rng))


def test_decompose_identity_is_empty():
    g = make_group([4, 2])
    assert decompose(SymplecticMap.identity(g)) == []


def test_decompose_rejects_non_symplectic():
    z4 = make_group([4])
    big = doubled_group(z4)
    # diag(3, 1) is an automorphism of Z4 x Z4^ but scales the pairing by 3
    bad = SymplecticMap(z4, HomMatrix(big, big, ((3, 0), (0, 1))))
    assert not is_symplectic(bad)
    with pytest.raises(NotSymplecticError):
        decompose(bad)
    with pytest.raises(NotSymplecticError):
        decompose(SymplecticMap.identity(make_group([2, 4])))


def test_decompose_z2_exhaustive():
    z2 = make_group([2])
    big = doubled_group(z2)
    count = 0
    for entries in itertools.product(range(2), repeat=4):
        mat = ((entries[0], entries[1]), (entries[2], entries[3]))
        try:
            sig = SymplecticMap(z2, HomMatrix(big, big, mat))
        except ValueError:
            continue
        if not is_symplectic(sig):
            continue
        count += 1
        seq = decompose(sig)
        assert sequence_image(seq, z2).matrix.entries == sig.matrix.entries
    assert count == 6  # |Sp(Z2)| = |SL(2, Z/2)|


@pytest.mark.parametrize("orders", [(4,), (6,), (2, 2), (4, 2), (2, 3)])
def test_decompose_random_roundtrip(orders):
    rng = random.Random(sum(orders))
    from gclifford.groups import canonicalize
    g = make_group(orders)
    if not g.canonical:
        g, _ = canonicalize(g)
    for _ in range(25):
        sig = random_symplectic(g, rng)
        seq = decompose(sig)
        assert sequence_image(seq, g).matrix.entries == sig.matrix.entries
        d = g.num_factors
        assert len(seq) <= 64 * d * d


def test_decompose_block_swap():
    z2 = make_group([2])
    big = doubled_group(z2)
    swap = SymplecticMap(z2, HomMatrix(big, big, ((0, 1), (1, 0))))
    seq = decompose(swap)
    assert sequence_image(seq, z2).matrix.entries == swap.matrix.entries


def test_decompose_clifford_pure_pauli():
    g = make_group([4, 2])
    rng = random.Random(17)
    from test_pauli import random_pauli
    p = random_pauli(g, rng)
    from gclifford.clifford import gate_pauli
    tab = gate_pauli(p)
    seq = decompose_clifford(tab)
    assert isinstance(seq[-1], PauliGate)
    assert sequence_tableau(seq, g) == tab
    assert all(isinstance(x, PauliGate) for x in seq)


def test_decompose_clifford_roundtrip():
    rng = random.Random(19)
    for orders in [(2,), (4,), (4, 2)]:
        g = make_group(orders)
        for _ in range(8):
            gates = [random_gate(g, rng) for _ in range(10)]
            tab = sequence_tableau(gates, g)
            seq = decompose_clifford(tab)
            assert isinstance(seq[-1], PauliGate)
            assert sequence_tableau(seq, g) == tab


def test_decompose_quadratic_gate_roundtrip():
    rng = random.Random(23)
    g = make_group([4, 2])
    form = random_quadratic(g, rng)
    tab = gate_tableau(QuadraticGate(form), g)
    seq = decompose_clifford(tab)
    assert sequence_tableau(seq, g) == tab
