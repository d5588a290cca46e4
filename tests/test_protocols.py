import cmath
import math

import pytest

from gclifford.errors import (DegenerateFormError, PreconditionFailedError,
                              ResourceCapError)
from gclifford.forms import QuadraticForm, standard_nondegenerate_form
from gclifford.groups import HomMatrix, make_group
from gclifford.phases import Phase
from gclifford.protocols import (build_cx_protocol, build_magic_injection,
                                 certificate_invariant,
                                 certificate_target, check_cx_protocol,
                                 check_magic_injection, check_split_fourier,
                                 check_triple_identity,
                                 cx_insufficiency_certificate)
from gclifford.stabilizer import enumerate_branches as tableau_branches


@pytest.mark.parametrize("orders", [(2,), (3,)])
def test_cx_protocol_small(orders):
    report = check_cx_protocol(make_group(orders))
    assert report.passed
    assert report.branch_count == len(list(make_group(orders).elements())) ** 2 \
        * make_group(orders).order ** 3


@pytest.mark.parametrize("orders", [(2,), (4,)])
def test_cx_protocol_one_phase_per_record(orders):
    base = make_group(orders)
    report = check_cx_protocol(base)
    assert report.passed
    records = {tuple(sorted(record.items()))
               for record, _, _ in tableau_branches(build_cx_protocol(base))}
    assert len(report.phases) == len(records) == base.order ** 3
    assert report.branch_count == base.order ** 2 * len(records)


def test_cx_protocol_runs_on_tableau_backend():
    base = make_group([2])
    circuit = build_cx_protocol(base)
    branches = tableau_branches(circuit)
    # 8 measurement branches, uniform
    assert len(branches) == 8
    assert all(p == branches[0][2] for _, _, p in branches)


def test_cx_protocol_trivial_branch_is_identity_like():
    base = make_group([2])
    circuit = build_cx_protocol(base)
    from gclifford.dense import enumerate_branches, basis_state, states_equal_up_to_phase
    from gclifford.groups import product_group
    big = product_group(base, 3)
    for record, state, prob in enumerate_branches(circuit):
        if all(v == 0 for v in record.values()):
            expected = basis_state(big, (0,) * big.num_factors)
            assert states_equal_up_to_phase(state.vector, expected)
            break
    else:
        raise AssertionError("trivial branch not found")


def test_magic_injection_qubit_t_gate():
    z2 = make_group([2])
    table = {z2.zero(): Phase(), z2.element((1,)): Phase(1, 8)}
    report = check_magic_injection(z2, table)
    assert report.passed
    assert report.branch_count == 4  # two inputs x two outcomes


def test_magic_injection_quadratic_table_still_works():
    z2 = make_group([2])
    xi = QuadraticForm.diagonal(z2, (1,))
    report = check_magic_injection(z2, xi.value_table())
    assert report.passed


def test_magic_injection_cubic_z3():
    z3 = make_group([3])
    table = {z3.element((r,)): Phase(r ** 3, 9) for r in range(3)}
    report = check_magic_injection(z3, table)
    assert report.passed
    assert report.branch_count == 9


def test_magic_injection_precondition_rejected():
    z4 = make_group([4])
    table = {z4.element((r,)): Phase(r ** 3, 16) for r in range(4)}
    with pytest.raises(PreconditionFailedError) as err:
        build_magic_injection(z4, table)
    assert err.value.detail is not None


def test_triple_identity_qubit_scalar():
    z2 = make_group([2])
    report = check_triple_identity(QuadraticForm.diagonal(z2, (1,)))
    assert report.passed
    expected = cmath.exp(1j * math.pi / 4)
    assert abs(report.phases[0] - expected) < 1e-9


def test_triple_identity_z3():
    z3 = make_group([3])
    xi = QuadraticForm.diagonal(z3, (2,))
    report = check_triple_identity(xi)
    assert report.passed
    # xi(n) = 2 n^2 / (2*3) = n^2/3; three-term sum evaluates to +i
    gauss = sum(xi.eval(g).to_complex() for g in z3.elements()) / math.sqrt(3)
    assert abs(report.phases[0] - gauss) < 1e-9
    assert abs(gauss - 1j) < 1e-9
    assert abs(abs(report.phases[0]) - 1.0) < 1e-9


def test_triple_identity_with_linear_part():
    g = make_group([4, 2])
    base = standard_nondegenerate_form(g)
    xi = QuadraticForm(g, base.diag, base.cross, (1, 1))
    report = check_triple_identity(xi)
    assert report.passed


def test_triple_identity_degenerate_rejected():
    z4 = make_group([4])
    with pytest.raises(DegenerateFormError):
        check_triple_identity(QuadraticForm.diagonal(z4, (2,)))


@pytest.mark.parametrize("gorders,horders", [((2,), (2,)), ((4,), (2,)),
                                             ((3,), (2,)), ((4, 2), (2,))])
def test_split_fourier(gorders, horders):
    xi = standard_nondegenerate_form(make_group(gorders))
    report = check_split_fourier(xi, make_group(horders))
    assert report.passed, report.failures


def test_split_fourier_iso_independent_on_spectator():
    z2 = make_group([2])
    z4 = make_group([4])
    xi = standard_nondegenerate_form(z2)
    for iso in ([[1]], ):
        report = check_split_fourier(xi, z2, HomMatrix(z2, z2, ((1,),)))
        assert report.passed
    # H = Z4 admits two isomorphism choices (1 and 3)
    for scalar in (1, 3):
        report = check_split_fourier(xi, z4, HomMatrix(z4, z4, ((scalar,),)))
        assert report.passed, report.failures


def test_certificate_invariant_and_target():
    base = make_group([2, 4])
    target = certificate_target(base)
    assert not certificate_invariant(target, base)
    from gclifford.groups import HomMatrix as HM, product_group
    big = product_group(base, 2)
    assert certificate_invariant(HM.identity(big), base)


def test_certificate_full():
    report = cx_insufficiency_certificate()
    assert report.passed
    assert report.details["one_slot_count"] == 8
    assert report.details["generator_count"] == 18


def test_certificate_bfs_small_cap_raises():
    with pytest.raises(ResourceCapError):
        cx_insufficiency_certificate(run_bfs=True, bfs_cap=64)


def test_certificate_bfs_full():
    report = cx_insufficiency_certificate(run_bfs=True)
    assert report.passed
    assert not report.details["bfs_capped"]
    assert report.details["bfs_closure_size"] == 24576


def test_cx_protocol_input_dependent_phase_fails(monkeypatch):
    import gclifford.protocols as protocols
    from gclifford.circuits import Circuit, GateOp
    from gclifford.clifford import QuadraticGate
    base = make_group([2])
    honest = protocols.build_cx_protocol

    def with_input_phase(group):
        # Z on the control after the protocol: a (-1)^g phase that depends
        # on the input, so no single phase per branch record exists
        circuit = honest(group)
        z = QuadraticGate(QuadraticForm(group, (0,), ((0,),), (1,)))
        return Circuit(group, 3, circuit.ops + (GateOp(z, (0,)),))

    monkeypatch.setattr(protocols, "build_cx_protocol", with_input_phase)
    report = protocols.check_cx_protocol(base)
    assert not report.passed
    assert all("differs" in f for f in report.failures)
    assert "'q0': 0" in report.failures[0] and "on input ((1),(0))" in report.failures[0]
