"""The memo of gate images (``clifford.image_array``) and the array
products of the symplectic reduction: memoized arrays equal the validated
images, cannot be written, are computed once per distinct gate, and take
the ``object`` path where int64 products would overflow."""

import random

import numpy as np
import pytest

from gclifford import clifford, symplectic
from gclifford.clifford import (AutomorphismGate, CXGate, FourierGate, PauliGate,
                                QuadraticGate, gate_image, image_array)
from gclifford.elementary import random_automorphism
from gclifford.forms import QuadraticForm
from gclifford.groups import HomMatrix, make_group, product_group
from gclifford.symplectic import decompose, random_symplectic, sequence_image

from test_clifford import random_iso_matrix, random_quadratic
from test_pauli import random_pauli


def _gates(group, rng):
    """One gate of every kind over ``group``, with the two-slot group CX
    acts on."""
    pair = product_group(group, 2)
    return [(AutomorphismGate(random_automorphism(group, rng)), group),
            (QuadraticGate(random_quadratic(group, rng)), group),
            (FourierGate(random_iso_matrix(group, rng)), group),
            (FourierGate(random_iso_matrix(group, rng), True), group),
            (PauliGate(random_pauli(group, rng)), group),
            (CXGate(), pair), (CXGate(True), pair)]


@pytest.mark.parametrize("orders", [(2, 2), (4, 2), (3, 3), (8, 4, 2, 2)])
def test_memoized_array_equals_gate_image(orders):
    group = make_group(orders)
    rng = random.Random(str(orders))
    for gate, over in _gates(group, rng):
        arr = image_array(gate, over)
        assert arr.dtype == np.int64
        assert arr.tolist() == [list(row) for row in gate_image(gate, over).entries]
        assert image_array(gate, over) is arr
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_each_distinct_gate_imaged_once(monkeypatch):
    group = make_group([2] * 6)
    sigma = random_symplectic(group, random.Random(11))
    image_array.cache_clear()
    calls, requests = [], []
    real_image, real_array = clifford.gate_image, image_array

    def counted_image(gate, over):
        calls.append((gate, over))
        return real_image(gate, over)

    def recorded_array(gate, over):
        requests.append((gate, over))
        return real_array(gate, over)

    monkeypatch.setattr(clifford, "gate_image", counted_image)
    monkeypatch.setattr("gclifford.symplectic.image_array", recorded_array)
    seq = decompose(sigma)
    assert sequence_image(seq, group) == sigma
    distinct = set(requests)
    assert len(distinct) < clifford._IMAGE_MEMO_SIZE
    assert len(calls) == len(set(calls)) and set(calls) == distinct
    assert len(distinct) < len(requests)


def test_round_fourier_move_built_once(monkeypatch):
    """A reduction round's partial Fourier move and its validated image
    depend only on (group, round), so decomposing two maps over one group
    builds each once; the maps still round-trip."""
    group = make_group([8, 4, 2, 2])
    symplectic._round_fourier.cache_clear()
    built = []
    real = symplectic.split_fourier_gates

    def counted(group, xi, start, *rest):
        built.append(start)
        return real(group, xi, start, *rest)

    monkeypatch.setattr(symplectic, "split_fourier_gates", counted)
    for seed in (0, 1):
        sigma = random_symplectic(group, random.Random(seed))
        assert sequence_image(decompose(sigma), group) == sigma
    info = symplectic._round_fourier.cache_info()
    assert built and len(built) == len(set(built))
    assert info.misses <= group.num_factors and info.hits >= info.misses


def _hom(group, rows):
    return HomMatrix(group, group, tuple(map(tuple, rows)))


def _form(group, diag, cross):
    return QuadraticGate(QuadraticForm(group, diag, cross, (0,) * group.num_factors))


def _big_cyclic_gates(q):
    """Automorphism, Fourier and quadratic gates over Z_q, q odd."""
    group = make_group([q])
    return group, [AutomorphismGate(_hom(group, [[2]])),
                   _form(group, (2 * 123456789123 % (2 * q),), ((0,),)),
                   FourierGate(_hom(group, [[5]])),
                   _form(group, (2 * 987654321 % (2 * q),), ((0,),)),
                   AutomorphismGate(_hom(group, [[q - 7]])),
                   FourierGate(_hom(group, [[1]]), True),
                   _form(group, (q - 1,), ((0,),))]


def _big_pair_gates():
    """Automorphism, Fourier and quadratic gates over Z_(3^30) x Z_(3^15)."""
    a, b = 3 ** 30, 3 ** 15
    group = make_group([a, b])
    tau = _hom(group, [[1, 5 * b], [7, 1]])
    shear = _hom(group, [[2, b], [b - 1, 1]])
    return group, [AutomorphismGate(tau),
                   _form(group, (2 * 31415926535, 2 * 2718281), ((0, 12345), (0, 0))),
                   FourierGate(shear),
                   _form(group, (a - 3, 2 * 17), ((0, b - 2), (0, 0))),
                   AutomorphismGate(shear),
                   FourierGate(tau, True),
                   _form(group, (2 * 99991, b - 1), ((0, 3), (0, 0)))]


@pytest.mark.parametrize("build", [lambda: _big_cyclic_gates(3 ** 30),
                                   _big_pair_gates,
                                   lambda: _big_cyclic_gates(10 ** 12 + 39)],
                         ids=["3^30", "3^30x3^15", "10^12+39"])
def test_object_path_round_trip(build):
    """Orders whose squares overflow int64: the memoized images and the
    reduction's products are Python integers, and the round trip is exact."""
    group, gates = build()
    assert all(image_array(g, group).dtype == object for g in gates)
    sigma = sequence_image(gates, group)
    assert not sigma.matrix.is_identity()
    seq = decompose(sigma)
    assert sequence_image(seq, group) == sigma
