"""Per-group verification suites: the module invariants and protocol
checks bundled behind one driver, reused by the CLI and the tests.

Each check returns a dict {name, passed, detail}; a check that did not
run (over the dense cap, or with no reference) passes with
``"skipped": true`` and says why in its detail.  ``run_suite`` is fully
deterministic for a given (group, seed) pair so report files are
byte-identical across runs.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

import numpy as np

from .circuits import Circuit, GateOp, MeasureOp
from .clifford import (AutomorphismGate, CXGate, FourierGate, PauliGate,
                       QuadraticGate, gate_tableau, two_local_factorize)
from .dense import (DEFAULT_DENSE_CAP, enumerate_branches, pauli_apply,
                    tableau_faithful)
from .elementary import random_automorphism, random_form_coefficients
from .forms import (Character, QuadraticForm, i_xi, is_nondegenerate,
                    lift_bilinear, polarize, standard_nondegenerate_form)
from .groups import Group, HomMatrix, canonicalize, make_group, product_group
from .pauli import PauliOperator, beta
from .phases import Phase
from .protocols import (builtin_magic_table, check_cx_protocol,
                        check_magic_injection, check_split_fourier,
                        check_triple_identity)
from .stabilizer import enumerate_branches as tableau_branches
from .symplectic import decompose, random_symplectic, sequence_image

__all__ = ["random_clifford_circuit", "random_quadratic_form",
           "branch_distributions", "tv_distance", "stabilizers_fix_dense",
           "run_suite"]


def derived_rng(seed: int, label: str) -> random.Random:
    return random.Random((seed & 0xFFFFFFFF) ^ zlib.crc32(label.encode()))


def random_quadratic_form(group: Group, rng) -> QuadraticForm:
    diag, cross = random_form_coefficients(group.orders, rng)
    linear = tuple(rng.randrange(q) for q in group.orders)
    return QuadraticForm(group, diag, cross, linear)


def random_pauli_operator(group: Group, rng) -> PauliOperator:
    return PauliOperator(
        group, Phase(rng.randrange(8), 8), group.random_element(rng),
        Character(group, tuple(rng.randrange(q) for q in group.orders)))


def random_clifford_circuit(base: Group, n: int, rng, num_gates: int = 12,
                            num_measurements: int = 4) -> Circuit:
    """A random Clifford+measurement circuit used for backend equivalence."""
    ops = []
    for _ in range(num_gates):
        nslots = 1 if n == 1 else rng.choice([1, 1, 2])
        slots = tuple(rng.sample(range(n), nslots))
        local = product_group(base, nslots)
        kind = rng.randrange(5)
        if kind == 0:
            gate = AutomorphismGate(random_automorphism(local, rng))
        elif kind == 1:
            gate = QuadraticGate(random_quadratic_form(local, rng))
        elif kind == 2:
            gate = FourierGate(random_automorphism(local, rng),
                               rng.random() < 0.25)
        elif kind == 3 and nslots == 2:
            gate = CXGate(rng.random() < 0.5)
        else:
            gate = PauliGate(random_pauli_operator(local, rng))
        ops.append(GateOp(gate, slots))
    for m in range(num_measurements):
        nslots = 1 if n == 1 else rng.choice([1, 2])
        slots = tuple(rng.sample(range(n), nslots))
        local = product_group(base, nslots)
        while True:
            x = tuple(rng.randrange(q) for q in local.orders)
            z = tuple(rng.randrange(q) for q in local.orders)
            if any(x) or any(z):
                break
        pos = rng.randrange(len(ops) + 1)
        ops.insert(pos, MeasureOp(f"m{m}", slots, x, z))
    return Circuit(base, n, tuple(ops))


def _record_key(record: dict):
    return tuple(sorted(record.items()))


def branch_distributions(circuit: Circuit, cap: int = DEFAULT_DENSE_CAP):
    """(dense record->prob, tableau record->Fraction) distributions."""
    dense = {}
    for record, _state, prob in enumerate_branches(circuit, cap):
        key = _record_key(record)
        dense[key] = dense.get(key, 0.0) + prob
    tableau = {}
    for record, _state, prob in tableau_branches(circuit):
        key = _record_key(record)
        tableau[key] = tableau.get(key, Fraction(0)) + prob
    return dense, tableau


def tv_distance(dense: dict, tableau: dict) -> float:
    keys = set(dense) | set(tableau)
    return 0.5 * sum(abs(dense.get(k, 0.0) - float(tableau.get(k, 0))) for k in keys)


def stabilizers_fix_dense(circuit: Circuit, cap: int = DEFAULT_DENSE_CAP,
                          tol: float = 1e-9) -> bool:
    """Every post-measurement stabilizer generator must fix the dense state
    of the branch with the same record."""
    dense = {_record_key(r): st for r, st, _ in enumerate_branches(circuit, cap)}
    for record, stab_state, _prob in tableau_branches(circuit):
        key = _record_key(record)
        if key not in dense:
            return False
        vec = dense[key].vector
        for gen in stab_state.generator_operators():
            if np.linalg.norm(pauli_apply(gen, vec) - vec) > tol * len(vec) ** 0.5:
                return False
    return True


# ---------------------------------------------------------------------------
# suite checks

def _check(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _skip(name, why):
    return {"name": name, "passed": True, "detail": f"skipped: {why}", "skipped": True}


def _suite_pauli(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "pauli")
    failures = []
    for a in group.elements():
        for b in group.elements():
            xa, xb = PauliOperator.x_shift(a), PauliOperator.x_shift(b)
            if xa * xb != PauliOperator.x_shift(a + b):
                failures.append("X products")
            chi = Character(group, a.residues)
            z = PauliOperator.z_char(chi)
            lhs = z * xb
            rhs = (xb * z).times_phase(chi.eval(b))
            if lhs != rhs:
                failures.append("commutation phase")
    for _ in range(50):
        p, q, r = (random_pauli_operator(group, rng) for _ in range(3))
        if (p * q) * r != p * (q * r):
            failures.append("associativity")
        if (p * q).phase - (q * p).phase != beta(p.vector(), q.vector()):
            failures.append("beta mismatch")
    if group.order <= min(16, cap):
        from .dense import pauli_matrix
        for _ in range(10):
            p, q = random_pauli_operator(group, rng), random_pauli_operator(group, rng)
            if np.max(np.abs(pauli_matrix(p, cap) @ pauli_matrix(q, cap)
                             - pauli_matrix(p * q, cap))) > 1e-9:
                failures.append("dense product")
    return _check("pauli-algebra", not failures, ";".join(sorted(set(failures))))


def _suite_conjugation(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "conjugation")
    if group.order > cap:
        return _skip("conjugation-rules", "over dense cap")
    gates = [FourierGate(HomMatrix.identity(group)),
             QuadraticGate(standard_nondegenerate_form(group))]
    for _ in range(4):
        gates.append(AutomorphismGate(random_automorphism(group, rng)))
        gates.append(QuadraticGate(random_quadratic_form(group, rng)))
        gates.append(FourierGate(random_automorphism(group, rng),
                                 rng.random() < 0.3))
        gates.append(PauliGate(random_pauli_operator(group, rng)))
    bad = [repr(g) for g in gates
           if not tableau_faithful(gate_tableau(g, group), g, group, cap)]
    return _check("conjugation-rules", not bad, ";".join(bad[:2]))


def _suite_forms(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "forms")
    failures = []
    for _ in range(10):
        xi = random_quadratic_form(group, rng)
        b = polarize(xi)
        lifted = lift_bilinear(b)
        if polarize(lifted).coeffs != b.coeffs:
            failures.append("lift round trip")
        for g in group.elements():
            for h in group.elements():
                if xi.eval(g + h) - xi.eval(g) - xi.eval(h) != b.value(g, h):
                    failures.append("polarization value")
                    break
    xi = standard_nondegenerate_form(group)
    if not is_nondegenerate(xi):
        failures.append("standard form degenerate")
    else:
        for chi_el in group.elements():
            chi = Character(group, chi_el.residues)
            t = i_xi(xi, chi)
            for g in group.elements():
                if xi.eval(g) + xi.eval(t) - xi.eval(g + t) != chi.eval(g):
                    failures.append("i_xi relation")
                    break
    return _check("forms-exactness", not failures, ";".join(sorted(set(failures))))


def _suite_decompose(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "decompose")
    canon = group if group.canonical else canonicalize(group)[0]
    failures = []
    counts = []
    for _ in range(15):
        sigma = random_symplectic(canon, rng)
        seq = decompose(sigma)
        counts.append(len(seq))
        if sequence_image(seq, canon).matrix.entries != sigma.matrix.entries:
            failures.append("image mismatch")
    d = canon.num_factors
    detail = f"max gates {max(counts)} for (d+1)^2 = {d * d}"
    return _check("decompose-roundtrip", not failures,
                  detail if not failures else ";".join(failures))


def _suite_two_local(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "two-local")
    seq = sorted(group.orders, reverse=True)
    if any(a % b for a, b in zip(seq, seq[1:])):
        return _skip("two-local", "orders not a chain")
    big = product_group(group, 2)
    failures = []
    for _ in range(8):
        tau = random_automorphism(big, rng)
        factors = two_local_factorize(tau, group, 2)
        acc = HomMatrix.identity(big)
        for f in factors:
            acc = acc.compose(f)
        if acc.entries != tau.entries:
            failures.append("recomposition mismatch")
    return _check("two-local", not failures, ";".join(failures))


def _suite_backends(group: Group, seed: int, cap: int):
    rng = derived_rng(seed, "backends")
    if group.order ** 2 > cap:
        return _skip("backend-equivalence", "over dense cap")
    failures = []
    for i in range(8):
        circuit = random_clifford_circuit(group, 2, rng, num_gates=8,
                                          num_measurements=3)
        dense_dist, tab_dist = branch_distributions(circuit, cap)
        if tv_distance(dense_dist, tab_dist) > 1e-9:
            failures.append(f"distribution {i}")
        elif not stabilizers_fix_dense(circuit, cap):
            failures.append(f"stabilizers {i}")
    return _check("backend-equivalence", not failures, ";".join(failures))


def _suite_cx_protocol(group: Group, seed: int, cap: int):
    if group.order ** 3 > cap:
        return _skip("cx-protocol", "over dense cap")
    report = check_cx_protocol(group, cap)
    return _check("cx-protocol", report.passed,
                  f"{report.branch_count} branches")


def _suite_triple(group: Group, seed: int, cap: int):
    if group.order > cap:
        return _skip("triple-identity", "over dense cap")
    report = check_triple_identity(standard_nondegenerate_form(group), cap)
    return _check("triple-identity", report.passed,
                  ";".join(report.failures) or "scalar matches the phase sum")


def _suite_split_fourier(group: Group, seed: int, cap: int):
    if group.order * 2 > cap:
        return _skip("split-fourier", "over dense cap")
    report = check_split_fourier(standard_nondegenerate_form(group),
                                 make_group([2]), cap=cap)
    return _check("split-fourier", report.passed, ";".join(report.failures))


def _suite_injection(group: Group, seed: int, cap: int):
    table = builtin_magic_table(group)
    if table is None:
        return _skip("magic-injection", "no reference table for this group")
    if group.order ** 2 > cap:
        return _skip("magic-injection", "over dense cap")
    report = check_magic_injection(group, table, cap)
    return _check("magic-injection", report.passed,
                  f"{report.branch_count} branches")


SUITE_CHECKS = [
    _suite_pauli,
    _suite_conjugation,
    _suite_forms,
    _suite_decompose,
    _suite_two_local,
    _suite_backends,
    _suite_cx_protocol,
    _suite_triple,
    _suite_split_fourier,
    _suite_injection,
]


def run_suite(group: Group, seed: int = 0,
              dense_cap: int = DEFAULT_DENSE_CAP) -> dict:
    checks = [fn(group, seed, dense_cap) for fn in SUITE_CHECKS]
    return {
        "format_version": 1,
        "type": "verification_report",
        "group": group.literal(),
        "seed": seed,
        "dense_cap": dense_cap,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
