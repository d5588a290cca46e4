"""Executable versions of the named measurement/teleportation circuits and
identity checks, each verified exhaustively against the dense backend.

Conventions fixed here (all additive): the measurement-based controlled
shift uses slots (control, ancilla, target) = (0, 1, 2) with corrections
Z_chi on the control, X_{-q} on the ancilla and X_{p-q} on the target;
magic injection measures the bottom qudit in the Z basis and corrects the
top with the quadratic form fitted to minus the difference table of the
injected phase function.  The split-subgroup Fourier circuit is the
compiler's own ``symplectic.split_fourier_gates``, and the (F S)^3 gate
list is ``build_triple``, which the CLI writes out.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .circuits import (Circuit, CorrectionOp, GateOp, MagicPrepOp, MeasureOp,
                       encode_phase_table)
from .clifford import (AutomorphismGate, CXGate, FourierGate, PauliGate,
                       QuadraticGate, cx_matrix)
from .dense import (DEFAULT_DENSE_CAP, basis_state, element_index,
                    enumerate_branches, gate_matrix, states_equal_up_to_phase)
from .elementary import moves_matrix
from .errors import (DegenerateFormError, PreconditionFailedError,
                     ResourceCapError)
from .forms import QuadraticForm, fit_quadratic_table, i_xi_matrix, is_nondegenerate
from .groups import (Group, HomMatrix, invert_automorphism,
                     is_automorphism, make_group, product_group)
from .pauli import PauliOperator
from .phases import Phase
from .symplectic import split_fourier_gates, split_fourier_iso

__all__ = [
    "ProtocolReport", "build_cx_protocol", "check_cx_protocol",
    "builtin_magic_table", "build_magic_injection", "check_magic_injection",
    "build_triple", "check_triple_identity", "build_split_fourier",
    "check_split_fourier",
    "cx_insufficiency_certificate",
]


@dataclass
class ProtocolReport:
    protocol: str
    group: str
    branch_count: int = 0
    failures: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "type": "protocol_report",
            "protocol": self.protocol,
            "group": self.group,
            "branch_count": self.branch_count,
            "passed": self.passed,
            "failures": list(self.failures),
            "phases": [str(p) for p in self.phases],
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# measurement-based controlled shift

def build_cx_protocol(base: Group) -> Circuit:
    """Three-qudit circuit implementing |g,h> -> |g, g+h> on slots (0, 2)
    through an ancilla at slot 1, using only two-qudit Pauli measurements
    and one-qudit corrections."""
    k = base.num_factors
    ops: list = [GateOp(FourierGate(HomMatrix.identity(base)), (1,))]
    zero = (0,) * (2 * k)
    for j in range(k):
        z = [0] * (2 * k)
        z[j] = z[k + j] = 1
        ops.append(MeasureOp(f"p{j}", (0, 1), zero, tuple(z)))
    for j in range(k):
        x = [0] * (2 * k)
        x[j] = x[k + j] = 1
        ops.append(MeasureOp(f"chi{j}", (1, 2), tuple(x), zero))
    for j in range(k):
        z1 = [0] * k
        z1[j] = 1
        ops.append(MeasureOp(f"q{j}", (1,), (0,) * k, tuple(z1)))
    chi_regs = tuple(f"chi{j}" for j in range(k))
    p_regs = tuple(f"p{j}" for j in range(k))
    q_regs = tuple(f"q{j}" for j in range(k))
    ops.append(CorrectionOp("z-char", chi_regs, (0,)))
    ops.append(CorrectionOp("x-neg", q_regs, (1,)))
    ops.append(CorrectionOp("x-sub", p_regs + q_regs, (2,)))
    return Circuit(base, 3, tuple(ops))


def check_cx_protocol(base: Group, cap: int = DEFAULT_DENSE_CAP,
                      tol: float = 1e-9) -> ProtocolReport:
    """Exhaustive dense verification over all basis inputs and branches:
    each branch maps every basis input to its target with one phase per
    measurement record, the same for every input.  ``report.phases`` holds
    that phase once per record, in the order the records first occur."""
    report = ProtocolReport("measurement-based-cx", base.literal())
    protocol = build_cx_protocol(base)
    big = product_group(base, 3)
    branch_phase: dict[tuple, tuple[complex, str]] = {}
    for g in base.elements():
        for h in base.elements():
            prep = (
                GateOp(PauliGate(PauliOperator.x_shift(g)), (0,)),
                GateOp(PauliGate(PauliOperator.x_shift(h)), (2,)),
            )
            circuit = Circuit(base, 3, prep + protocol.ops)
            expected = basis_state(big, g.residues + (0,) * base.num_factors
                                   + (g + h).residues)
            for record, state, prob in enumerate_branches(circuit, cap):
                report.branch_count += 1
                if not states_equal_up_to_phase(state.vector, expected, tol):
                    report.failures.append(
                        f"input ({g},{h}) branch {record} missed the target")
                    continue
                phase = complex(np.vdot(expected, state.vector))
                key = tuple(sorted(record.items()))
                if key not in branch_phase:
                    branch_phase[key] = (phase, f"({g},{h})")
                    report.phases.append(phase)
                    continue
                first, first_input = branch_phase[key]
                if abs(phase - first) > math.sqrt(2 * tol):
                    report.failures.append(
                        f"branch {record}: phase {phase:.6f} on input ({g},{h}) "
                        f"differs from {first:.6f} on input {first_input}")
    return report


# ---------------------------------------------------------------------------
# magic state injection

def builtin_magic_table(base: Group):
    """The reference magic phase table of ``base``, or None: the T gate
    (phases 0 and 1/8) on Z2 and the r^3/9 phase gate on Z3."""
    if base.orders == (2,):
        return {base.zero(): Phase(), base.element((1,)): Phase(1, 8)}
    if base.orders == (3,):
        return {base.element((r,)): Phase(r ** 3, 9) for r in range(3)}
    return None


def check_injection_precondition(base: Group, table) -> None:
    """Every outcome's correction must be a quadratic form; raises
    PreconditionFailedError naming the first offending outcome."""
    for k in base.elements():
        corr = {g: -(table[k + g] - table[k] - table[g]) for g in base.elements()}
        try:
            fit_quadratic_table(base, corr)
        except ValueError as exc:
            raise PreconditionFailedError(
                f"correction for outcome {k} is not a quadratic form",
                detail=k.residues) from exc


def build_magic_injection(base: Group, table) -> tuple[Circuit, dict]:
    """Two-qudit circuit applying the diagonal gate of ``table`` to the top
    qudit by consuming one magic state on the bottom qudit.

    ``table`` maps every group element to a Phase; it does not need to be
    quadratic, but each correction b-slice must be (checked up front).
    Returns the circuit and the magic-state specification.
    """
    check_injection_precondition(base, table)
    k = base.num_factors
    encoded = tuple(tuple(e) for e in encode_phase_table(table))
    ops: list = [MagicPrepOp(1, encoded), GateOp(CXGate(dagger=True), (0, 1))]
    for j in range(k):
        z = [0] * k
        z[j] = 1
        ops.append(MeasureOp(f"k{j}", (1,), (0,) * k, tuple(z)))
    ops.append(CorrectionOp("magic-quadratic", tuple(f"k{j}" for j in range(k)),
                            (0,), table=encoded))
    spec = {"slot": 1, "amplitudes": encode_phase_table(table),
            "normalization": f"1/sqrt({base.order})"}
    return Circuit(base, 2, tuple(ops)), spec


def check_magic_injection(base: Group, table, cap: int = DEFAULT_DENSE_CAP,
                          tol: float = 1e-9) -> ProtocolReport:
    """For every basis input and branch the top qudit receives the
    diagonal phase gate of ``table`` up to a branch-global phase."""
    report = ProtocolReport("magic-injection", base.literal())
    circuit, _spec = build_magic_injection(base, table)
    big = product_group(base, 2)
    branch_phase: dict[tuple, complex] = {}
    for g in base.elements():
        prep = (GateOp(PauliGate(PauliOperator.x_shift(g)), (0,)),)
        run = Circuit(base, 2, (circuit.ops[0],) + prep + circuit.ops[1:])
        for record, state, prob in enumerate_branches(run, cap):
            report.branch_count += 1
            kres = tuple(record[f"k{j}"] for j in range(base.num_factors))
            amp = state.vector[element_index(big, g.residues + kres)]
            if abs(abs(amp) - 1.0) > tol:
                report.failures.append(
                    f"input {g} branch {record}: output is not |g,k>")
                continue
            gamma = amp / table[g].to_complex()
            key = kres
            if key not in branch_phase:
                branch_phase[key] = gamma
                report.phases.append(gamma)
            elif abs(gamma - branch_phase[key]) > math.sqrt(2 * tol):
                report.failures.append(
                    f"branch {key}: phase depends on the input ({g})")
    report.details["distinct_branches"] = len(branch_phase)
    return report


# ---------------------------------------------------------------------------
# Fourier / quadratic-phase identities

def build_triple(xi: QuadraticForm) -> list:
    """The gates of (F S)^3, applied first to last: S, F, S, F, S, F with
    S the quadratic gate of ``xi`` and F the Fourier gate of ``i_xi``."""
    return [QuadraticGate(xi), FourierGate(i_xi_matrix(xi))] * 3


def check_triple_identity(xi: QuadraticForm, cap: int = DEFAULT_DENSE_CAP,
                          tol: float = 1e-9) -> ProtocolReport:
    """(F S)^3 must be the scalar given by the normalized phase sum of the
    form, and F^2 must be the inversion permutation exactly."""
    group = xi.group
    report = ProtocolReport("fourier-quadratic-triple", group.literal())
    if not is_nondegenerate(xi):
        raise DegenerateFormError("the triple identity needs a non-degenerate form")
    # the six gates repeat (S, F); cubing F S rather than folding all six
    # keeps the floating-point rounding of the reported scalar
    smat, fmat = (gate_matrix(gate, group, cap) for gate in build_triple(xi)[:2])
    u = fmat @ smat
    u3 = u @ u @ u
    dim = group.order
    scalar = u3[0, 0]
    if np.max(np.abs(u3 - scalar * np.eye(dim))) > tol:
        report.failures.append("(FS)^3 is not a scalar matrix")
    gauss = sum(xi.eval(g).to_complex() for g in group.elements()) / math.sqrt(dim)
    if abs(scalar - gauss) > tol:
        report.failures.append(
            f"scalar {scalar:.6f} differs from the normalized phase sum {gauss:.6f}")
    if abs(abs(scalar) - 1.0) > tol:
        report.failures.append("scalar is not unimodular")
    neg = HomMatrix(group, group, tuple(
        tuple(-1 if i == j else 0 for j in range(group.num_factors))
        for i in range(group.num_factors)))
    negmat = gate_matrix(AutomorphismGate(neg), group, cap)
    if np.max(np.abs(fmat @ fmat - negmat)) > tol:
        report.failures.append("F^2 is not the inversion gate")
    report.phases.append(complex(scalar))
    report.details["gauss_sum"] = [gauss.real, gauss.imag]
    report.branch_count = 1
    return report


def build_split_fourier(xi: QuadraticForm, h_group: Group,
                        i_h: HomMatrix | None = None) -> Circuit:
    """One-register circuit over G x H acting as a Fourier transform on
    the G factors and the identity on H: the compiler's split-subgroup
    circuit ``split_fourier_gates`` with the block G first and ``i_h``
    (the identity by default) as the spectator isomorphism.
    """
    if not is_nondegenerate(xi):
        raise DegenerateFormError("split Fourier needs a non-degenerate form")
    combined = Group(xi.group.orders + h_group.orders)
    gates = split_fourier_gates(combined, xi, 0, i_h)
    return Circuit(combined, 1, tuple(GateOp(g, (0,)) for g in gates))


def check_split_fourier(xi: QuadraticForm, h_group: Group,
                        i_h: HomMatrix | None = None,
                        cap: int = DEFAULT_DENSE_CAP,
                        tol: float = 1e-9) -> ProtocolReport:
    g_group = xi.group
    report = ProtocolReport("split-fourier",
                            f"{g_group.literal()}|{h_group.literal()}")
    circuit = build_split_fourier(xi, h_group, i_h)
    combined = circuit.base
    u = np.eye(combined.order, dtype=complex)
    for op in circuit.ops:
        u = gate_matrix(op.gate, combined, cap) @ u
    target = np.kron(gate_matrix(FourierGate(split_fourier_iso(xi)), g_group, cap),
                     np.eye(h_group.order))
    # compare up to one global phase
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    if abs(u[idx]) < tol:
        report.failures.append("circuit unitary has a wrong zero pattern")
        return report
    phase = u[idx] / target[idx]
    if abs(abs(phase) - 1.0) > tol:
        report.failures.append("relative factor is not a phase")
    if np.max(np.abs(u - phase * target)) > tol:
        report.failures.append("circuit does not equal F (x) I up to phase")
    report.phases.append(complex(phase))
    report.branch_count = 1
    return report


# ---------------------------------------------------------------------------
# the two-qudit insufficiency certificate

_CERT_BASE = (2, 4)


def _one_slot_automorphisms(base: Group):
    """All automorphisms of the base group, by brute force."""
    import itertools
    n = base.num_factors
    q = base.orders
    rows = []
    for i in range(n):
        choices = []
        for j in range(n):
            step = q[i] // math.gcd(q[i], q[j])
            choices.append([step * v for v in range(q[i] // step)])
        rows.append(list(itertools.product(*choices)))
    out = []
    for combo in itertools.product(*rows):
        m = HomMatrix(base, base, tuple(combo))
        if is_automorphism(m):
            out.append(m)
    return out


def _embed_one_slot(base: Group, tau: HomMatrix, slot: int) -> HomMatrix:
    big = product_group(base, 2)
    k = base.num_factors
    entries = [[1 if i == j else 0 for j in range(2 * k)] for i in range(2 * k)]
    for i in range(k):
        for j in range(k):
            entries[slot * k + i][slot * k + j] = tau.entries[i][j]
    return HomMatrix(big, big, tuple(tuple(r) for r in entries))


def certificate_invariant(psi: HomMatrix, base: Group) -> bool:
    """The mod-2 compatibility: the block on the order-2 coordinates must
    equal the block on the order-4 coordinates modulo 2."""
    k = base.num_factors
    a_idx = [i for i in range(2 * k) if psi.source.orders[i] == 2]
    b_idx = [i for i in range(2 * k) if psi.source.orders[i] == 4]
    for r in range(2):
        for c in range(2):
            if (psi.entries[a_idx[r]][a_idx[c]] - psi.entries[b_idx[r]][b_idx[c]]) % 2:
                return False
    return True


def certificate_target(base: Group) -> HomMatrix:
    """((a0,b0),(a1,b1)) -> ((a0,b0),(a0+a1,b1)): a controlled shift on the
    order-2 coordinates only."""
    big = product_group(base, 2)
    a_positions = [i for i, q in enumerate(big.orders) if q == 2]
    return moves_matrix(big, [("transvect", a_positions[1], a_positions[0], 1)])


def cx_insufficiency_certificate(run_bfs: bool = False,
                                 bfs_cap: int = 1 << 20,
                                 rng=None) -> ProtocolReport:
    """Certificate that one-slot automorphisms plus the two controlled
    shifts do not generate all of Aut(G^2) for G = Z2 x Z4: every generator
    satisfies a mod-2 block congruence, the congruence survives composition
    and inversion, and the target controlled shift violates it.  With
    ``run_bfs`` the generated subgroup is enumerated outright (subject to
    the cap) and the target is confirmed absent.
    """
    base = make_group(_CERT_BASE)
    report = ProtocolReport("cx-insufficiency", base.literal())
    one_slot = _one_slot_automorphisms(base)
    report.details["one_slot_count"] = len(one_slot)
    gens = [_embed_one_slot(base, tau, s) for tau in one_slot for s in (0, 1)]
    gens.append(cx_matrix(base))
    big = product_group(base, 2)
    k = base.num_factors
    gens.append(moves_matrix(big, [("transvect", i, k + i, 1) for i in range(k)]))
    report.details["generator_count"] = len(gens)

    for idx, gen in enumerate(gens):
        if not certificate_invariant(gen, base):
            report.failures.append(f"generator {idx} violates the invariant")
        if not certificate_invariant(invert_automorphism(gen), base):
            report.failures.append(f"inverse of generator {idx} violates it")

    # closure under composition: structural reason is that cross entries
    # from order-2 into order-4 coordinates are forced even, so the two
    # diagonal blocks multiply independently mod 2; spot-check products.
    import random as _random
    rng = rng or _random.Random(2024)
    for _ in range(200):
        a = rng.choice(gens)
        b = rng.choice(gens)
        prod = a.compose(b)
        if certificate_invariant(a, base) and certificate_invariant(b, base):
            if not certificate_invariant(prod, base):
                report.failures.append("invariant broke under composition")
    target = certificate_target(base)
    if not is_automorphism(target):
        report.failures.append("target map is not an automorphism")
    if certificate_invariant(target, base):
        report.failures.append("target map unexpectedly satisfies the invariant")

    if run_bfs:
        orders = big.orders
        dim = len(orders)
        gen_mats = [tuple(tuple(r) for r in g.entries) for g in gens]

        def mat_mult(a, b):
            return tuple(
                tuple(sum(a[i][l] * b[l][j] for l in range(dim)) % orders[i]
                      for j in range(dim))
                for i in range(dim))

        start = tuple(tuple(1 if i == j else 0 for j in range(dim))
                      for i in range(dim))
        target_key = target.entries
        seen = {start}
        frontier = deque([start])
        target_hit = False
        capped = False
        while frontier:
            current = frontier.popleft()
            for gen in gen_mats:
                key = mat_mult(gen, current)
                if key in seen:
                    continue
                if len(seen) >= bfs_cap:
                    capped = True
                    frontier.clear()
                    break
                seen.add(key)
                frontier.append(key)
                if key == target_key:
                    target_hit = True
        report.details["bfs_closure_size"] = len(seen)
        report.details["bfs_capped"] = capped
        if capped:
            raise ResourceCapError(
                f"BFS closure exceeded the cap ({bfs_cap}); "
                f"partial size {len(seen)}")
        if target_hit:
            report.failures.append("BFS produced the target map")
    report.branch_count = len(gens)
    return report
