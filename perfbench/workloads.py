"""The four benchmark workloads.

Each workload class generates all of its inputs from the seed in its
constructor (the set-up the benchmark times) and then answers ``item(k)``:
run the k-th user-level job on the generated inputs and return whether
its output passed the workload's correctness check.  Items cycle through
a fixed schedule of item kinds, so every seed runs the same mix and only
the drawn inputs differ.  ``item(k)`` may also return ``REJECTED``:
the program refused the input with its documented error for a known
limitation, so the item is neither passed nor failed.  ``finish()`` runs
the checks that only make sense after the timed loop and returns
human-readable result lines.

The program is called through module attributes (``symplectic.decompose``
rather than a name bound at import), so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from fractions import Fraction

import numpy as np

from gclifford import (circuits, cli, clifford, dense, groups, protocols,
                       stabilizer, symplectic)
from gclifford.elementary import random_automorphism
from gclifford.errors import NotSymplecticError
from gclifford.forms import Character, standard_nondegenerate_form
from gclifford.pauli import PauliVector
from gclifford.phases import Phase
from gclifford.verify import (random_clifford_circuit, random_pauli_operator,
                              random_quadratic_form)

Z2xZ4 = (2, 4)
REJECTED = "rejected"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


class _Pool:
    """Inputs per item kind, ``make(kind)`` returning the list for a kind;
    the j-th use of a kind takes its input j mod the list's length."""

    def __init__(self, schedule, make):
        self.schedule = schedule
        self.inputs = {kind: make(kind) for kind in dict.fromkeys(schedule)}
        self._uses = {kind: 0 for kind in self.inputs}

    def next(self, k: int):
        kind = self.schedule[k % len(self.schedule)]
        j = self._uses[kind]
        self._uses[kind] = j + 1
        options = self.inputs[kind]
        return kind, options[j % len(options)]


def _stride(n: int) -> int:
    """A step coprime to n near n over the golden ratio: the multiples of
    it modulo n visit 0..n-1 with every prefix spread evenly."""
    step = max(1, round(0.618 * n))
    while math.gcd(step, n) != 1:
        step += 1
    return step


class Workload:
    def finish(self):
        """(passed, lines): checks that run after the timed loop."""
        return True, []

    def close(self) -> None:
        """Remove what the set-up wrote to disk."""


# ---------------------------------------------------------------------------
# compile: the compiler layers, no backend

class Compile(Workload):
    """Symplectic maps, tableaux and automorphisms compiled into gates.

    ``register`` items are maps over the two-qudit register (Z4xZ2)^2,
    whose orders (4,2,4,2) are not in divisibility-chain form.  The
    compiler rejects them today ("decompose requires a canonical group");
    such an item is ``REJECTED``, and counts as passed once the compiler
    returns a sequence with an exact round trip.
    """

    DEEP = ((2,) * 5, (2,) * 6)
    # deep Z2^5/Z2^6 maps are two thirds of the passing items, so the median
    # item is one of them rather than a point between two item classes
    SCHEDULE = (("map", (2,) * 5), ("map", (2,) * 6), ("map", (8, 4, 2, 2)),
                ("map", (2,) * 5), ("map", (2,) * 6), ("tableau", (4, 2, 2)),
                ("map", (2,) * 5), ("map", (2,) * 6), ("map", (4, 4, 2)),
                ("map", (2,) * 5), ("map", (2,) * 6), ("two_local", Z2xZ4),
                ("register", (4, 2, 4, 2)))
    # products of 6 random generator images per factor: the compiler emits
    # as many gates as for the sampler's default of 20, at a third of the
    # set-up cost, so the set-up can draw more distinct maps
    MAP_LENGTH = 6
    TWO_LOCAL_QUDITS = 3

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng("compile", seed)
        schedule = self.SCHEDULE
        if tiny:
            schedule = tuple(k for k in schedule if k[1] not in self.DEEP)
        self.pool = _Pool(schedule, lambda kind: [
            self._make(kind, rng)
            for _ in range(1 if tiny else 12 if kind[1] in self.DEEP else 3)])

    def _make(self, kind, rng):
        what, orders = kind
        group = groups.make_group(orders)
        if what in ("map", "register"):
            return symplectic.random_symplectic(group, rng,
                                                self.MAP_LENGTH * group.num_factors)
        if what == "tableau":
            gates = [clifford.AutomorphismGate(random_automorphism(group, rng)),
                     clifford.QuadraticGate(random_quadratic_form(group, rng)),
                     clifford.FourierGate(random_automorphism(group, rng)),
                     clifford.QuadraticGate(random_quadratic_form(group, rng)),
                     clifford.PauliGate(random_pauli_operator(group, rng))]
            return clifford.sequence_tableau(gates, group)
        big = groups.product_group(group, self.TWO_LOCAL_QUDITS)
        return random_automorphism(big, rng)

    def item(self, k: int) -> bool:
        (what, orders), data = self.pool.next(k)
        if what in ("map", "register"):
            try:
                seq = symplectic.decompose(data)
            except NotSymplecticError:
                if what == "register" and not data.group.canonical:
                    return REJECTED
                raise
            return symplectic.sequence_image(seq, data.group) == data
        if what == "tableau":
            seq = symplectic.decompose_clifford(data)
            return clifford.sequence_tableau(seq, data.group) == data
        base = groups.make_group(orders)
        factors = clifford.two_local_factorize(data, base, self.TWO_LOCAL_QUDITS)
        acc = groups.HomMatrix.identity(data.source)
        for factor in factors:
            if len(_touched_qudits(factor, base.num_factors)) > 2:
                return False
            acc = acc.compose(factor)
        return acc.entries == data.entries


def _touched_qudits(hom, k: int) -> set[int]:
    n = hom.source.num_factors
    touched = set()
    for i in range(n):
        for j in range(n):
            if hom.entries[i][j] != (1 if i == j else 0):
                touched.update((i // k, j // k))
    return touched


# ---------------------------------------------------------------------------
# stabilizer_scale: one long-lived large state, no dense code

class StabilizerScale(Workload):
    """Rounds of n random gates and one Pauli measurement on a long-lived
    StabilizerState over (Z2xZ4)^n.  Every round holds the same mix of a
    fixed gate set (CX, CX^dagger, F, F^dagger, S, S^dagger, two shears
    and the four generator Paulis, each about n/12 times); the seed sets
    their order, their slots and the measured observables, so seeds differ in
    what the rounds do but not in how much work they are.

    Set-up scrambles the state first: from a product state the rounds
    start about twenty times cheaper than once the generators are dense,
    and timing that ramp would make the item latency depend on how far a
    run gets.
    """

    QUDITS = 32
    ROUNDS = 256  # generated rounds; later items reuse them on the evolved state

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng("stabilizer_scale", seed)
        base = groups.make_group(Z2xZ4)
        self.n = n = 6 if tiny else self.QUDITS
        one = groups.product_group(base, 1)
        xi = standard_nondegenerate_form(one)
        # the two shears of Z2xZ4: x1 += 2 x0 and x0 += x1 mod 2
        shears = [groups.HomMatrix(one, one, ((1, 0), (2, 1))),
                  groups.HomMatrix(one, one, ((1, 1), (0, 1)))]
        pool = [(clifford.CXGate(False), 2), (clifford.CXGate(True), 2),
                (clifford.FourierGate.canonical(one), 1),
                (clifford.FourierGate.canonical(one, True), 1),
                (clifford.QuadraticGate(xi), 1), (clifford.QuadraticGate(-xi), 1),
                (clifford.AutomorphismGate(shears[0]), 1),
                (clifford.AutomorphismGate(shears[1]), 1)]
        for f in range(base.num_factors):
            pool.append((clifford.PauliGate(
                clifford.PauliOperator.x_shift(one.generator(f))), 1))
            pool.append((clifford.PauliGate(
                clifford.PauliOperator.z_char(Character.generator(one, f))), 1))
        self.big = big = groups.product_group(base, n)
        self.rounds = []
        for _ in range(8 if tiny else self.ROUNDS):
            mix = [pool[i % len(pool)] for i in range(n)]
            rng.shuffle(mix)
            gates = [(gate, tuple(rng.sample(range(n), width))) for gate, width in mix]
            self.rounds.append((gates, self._observable(rng, base, n)))
        self.state = stabilizer.StabilizerState(base, n)
        # butterfly scramble: F and S on every qudit, then CX across
        # distance 2^j, for each j; afterwards every generator spans all qudits
        fourier, phase, cx = pool[2][0], pool[4][0], pool[0][0]
        span = 1
        while span < n:
            for q in range(n):
                self.state.apply_gate(fourier, (q,))
                self.state.apply_gate(phase, (q,))
            for q in range(n):
                if q ^ span < n and q < q ^ span:
                    self.state.apply_gate(cx, (q, q ^ span))
            span *= 2
        self.outcome_rng = random.Random(rng.getrandbits(64))
        self.outcomes = []

    @staticmethod
    def _observable(rng, base, n):
        slots = rng.sample(range(n), rng.choice([1, 2]))
        k = base.num_factors
        x = [0] * (n * k)
        z = [0] * (n * k)
        while not any(x) and not any(z):
            for s in slots:
                for f in range(k):
                    x[s * k + f] = rng.randrange(base.orders[f])
                    z[s * k + f] = rng.randrange(base.orders[f])
        return tuple(x), tuple(z)

    def item(self, k: int) -> bool:
        gates, (x, z) = self.rounds[k % len(self.rounds)]
        for gate, slots in gates:
            self.state.apply_gate(gate, slots)
        vec = PauliVector(self.big, groups.GroupElement(self.big, x),
                          Character(self.big, z))
        outcome, prob = self.state.measure(vec, rng=self.outcome_rng)
        self.outcomes.append(outcome)
        return 0 < prob <= 1

    def finish(self):
        digest = hashlib.sha256(json.dumps(self.outcomes).encode()).hexdigest()[:16]
        lines = [f"measurement_record {len(self.outcomes)} outcomes sha256:{digest}"]
        try:
            self.state.validate()
        except AssertionError as exc:
            return False, lines + [f"validate failed: {exc}"]
        return True, lines + ["validate passed"]


# ---------------------------------------------------------------------------
# oracle_check: the dense oracle against the stabilizer backend

# Dense work bound of one circuit: summed over gate applications in every
# branch, local dimension squared for a Fourier gate (a full matrix built
# element by element) and the local dimension otherwise.  Each circuit kind
# draws its circuits with the same number in each octave of this bound,
# from 2^lo to 2^hi inclusive, so every seed gets the same cost profile.
# A random circuit's bound is heavy-tailed: drawn freely, a few Z2xZ4
# circuits of 10 s and more made items/s differ by tens of percent from
# one seed to the next.  The upper octave holds half of the Z2xZ4
# circuits; those items, with the CX protocol checks, set item_tail_ms.
_CIRCUIT_KINDS = {
    # name: (base orders, qudits, gates, measurements, (lo, hi))
    "z2": ((2,), 3, 8, 3, (5, 8)),
    "z3": ((3,), 3, 8, 2, (6, 10)),
    "z2xz4": (Z2xZ4, 2, 6, 2, (11, 13)),
}
CIRCUITS_PER_KIND = 64
_PROTOCOL_GROUPS = ((2,), (3,), (4,), (4, 2), (2, 4), (8,))


def _magic_table(group):
    if group.orders == (2,):
        return {group.zero(): Phase(), group.element((1,)): Phase(1, 8)}
    return {group.element((r,)): Phase(r ** 3, 9) for r in range(3)}


class OracleCheck(Workload):
    """Random Clifford+measurement circuits enumerated once on each
    backend, plus the exhaustive dense protocol checks."""

    # Z2 circuits, the cheapest, are the first third of the items by
    # latency and Z3 circuits the second, so the median item is a middling
    # Z3 circuit rather than a point between two item classes
    SCHEDULE = ("z2", "z3", "z2xz4", "z2", "z3", "z2xz4", "protocol",
                "z2", "z3", "z2xz4", "z2", "z3")
    PROTOCOLS = (("cx", (2,)), ("triple", None), ("cx", (3,)), ("magic", (2,)),
                 ("split", None), ("cx", (4,)), ("magic", (3,)))

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng("oracle_check", seed)
        schedule = self.SCHEDULE
        if tiny:
            schedule = tuple(k for k in schedule if k != "z2xz4")
        self.pool = _Pool(schedule, lambda kind: [None] if kind == "protocol" else
                          _circuits(kind, 1 if tiny else CIRCUITS_PER_KIND, rng))
        self.protocols = [self._protocol(name, orders, rng)
                          for name, orders in self.PROTOCOLS]
        self._protocol_uses = 0

    @staticmethod
    def _protocol(name, orders, rng):
        if orders is None:
            orders = _PROTOCOL_GROUPS[rng.randrange(len(_PROTOCOL_GROUPS))]
        return name, groups.make_group(orders)

    def item(self, k: int) -> bool:
        kind, circuit = self.pool.next(k)
        if kind == "protocol":
            name, group = self.protocols[self._protocol_uses % len(self.protocols)]
            self._protocol_uses += 1
            if name == "cx":
                report = protocols.check_cx_protocol(group)
            elif name == "magic":
                report = protocols.check_magic_injection(group, _magic_table(group))
            elif name == "triple":
                report = protocols.check_triple_identity(
                    standard_nondegenerate_form(group))
            else:
                report = protocols.check_split_fourier(
                    standard_nondegenerate_form(group), groups.make_group((2,)))
            return report.passed
        return _backends_agree(circuit)


def _circuits(kind: str, count: int, rng) -> list:
    """About ``count`` random circuits of the kind, as many from each
    octave of its dense work bound, in an order that spreads every prefix
    of uses over the octaves."""
    orders, qudits, gates, measurements, (lo, hi) = _CIRCUIT_KINDS[kind]
    group = groups.make_group(orders)
    per_octave = max(1, count // (hi - lo))
    octaves = [[] for _ in range(lo, hi)]
    while any(len(octave) < per_octave for octave in octaves):
        circuit = random_clifford_circuit(group, qudits, rng, num_gates=gates,
                                          num_measurements=measurements)
        work = _dense_work(circuit)
        if 2 ** lo <= work <= 2 ** hi:
            octave = octaves[min(work.bit_length() - 1, hi - 1) - lo]
            if len(octave) < per_octave:
                octave.append(circuit)
    drawn = [circuit for octave in octaves for circuit in octave]
    n = len(drawn)
    return [drawn[j * _stride(n) % n] for j in range(n)]


def _dense_work(circuit) -> int:
    work, branches = 0, 1
    for op in circuit.ops:
        if isinstance(op, circuits.GateOp):
            dim = circuit.base.order ** len(op.slots)
            work += branches * (dim * dim if isinstance(op.gate, clifford.FourierGate)
                                else dim)
        else:
            branches *= op.observable(circuit.base).order
    return work


def _record_key(record):
    return tuple(sorted(record.items()))


def _backends_agree(circuit, tol: float = 1e-9) -> bool:
    """TV distance below ``tol`` and every stabilizer generator of each
    tableau branch fixing the dense state of the same record."""
    dense_prob, dense_vec = {}, {}
    for record, state, prob in dense.enumerate_branches(circuit):
        key = _record_key(record)
        dense_prob[key] = dense_prob.get(key, 0.0) + prob
        dense_vec[key] = state.vector
    tab_prob = {}
    for record, stab, prob in stabilizer.enumerate_branches(circuit):
        key = _record_key(record)
        tab_prob[key] = tab_prob.get(key, Fraction(0)) + prob
        vec = dense_vec.get(key)
        if vec is None:
            return False
        for gen in stab.generator_operators():
            if np.linalg.norm(dense.pauli_apply(gen, vec) - vec) > tol * len(vec) ** 0.5:
                return False
    keys = set(dense_prob) | set(tab_prob)
    tv = 0.5 * sum(abs(dense_prob.get(key, 0.0) - float(tab_prob.get(key, 0)))
                   for key in keys)
    return tv < tol


# ---------------------------------------------------------------------------
# shots: the CLI sampling path over many tiny states

class Shots(Workload):
    """In-process ``simulate --backend tableau --shots K`` on circuit files
    written at set-up: the measurement-based CX protocol with a basis-state
    preparation, and measurement-heavy random circuits."""

    SCHEDULE = (("cx", (2,)), ("random", (3,)), ("cx", (4,)),
                ("random", Z2xZ4), ("cx", Z2xZ4), ("random", (2,)))
    # random circuits: (qudits, measurements); sized so that the exact
    # branch enumeration at set-up stays near a second in total
    RANDOM_SHAPE = {(3,): (3, 4), Z2xZ4: (3, 3), (2,): (3, 6)}
    SHOTS = 24

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng("shots", seed)
        self.shots = 4 if tiny else self.SHOTS
        self.dir = tempfile.mkdtemp(prefix=".perfbench-shots-", dir=".")
        self._files = 0
        self.exact_branches = 0  # summed over items: what a branch trie must visit
        try:
            self.pool = _Pool(self.SCHEDULE, lambda kind: [
                self._make(kind, rng) for _ in range(
                    5 if kind[0] == "random" else 1 if kind[1] == Z2xZ4 else 2)])
        except BaseException:
            self.close()
            raise
        self.seeds = [rng.randrange(1 << 30) for _ in range(64)]

    def _make(self, kind, rng):
        what, orders = kind
        base = groups.make_group(orders)
        if what == "cx":
            g, h = base.random_element(rng), base.random_element(rng)
            prep = (circuits.GateOp(clifford.PauliGate(
                        clifford.PauliOperator.x_shift(g)), (0,)),
                    circuits.GateOp(clifford.PauliGate(
                        clifford.PauliOperator.x_shift(h)), (2,)))
            circuit = circuits.Circuit(
                base, 3, prep + protocols.build_cx_protocol(base).ops)
        else:
            qudits, measurements = self.RANDOM_SHAPE[orders]
            circuit = random_clifford_circuit(base, qudits, rng, num_gates=6,
                                              num_measurements=measurements)
        path = os.path.join(self.dir, f"circuit{self._files}.json")
        self._files += 1
        circuits.dump_document(circuits.circuit_to_json(circuit), path)
        support: dict[str, set] = {}
        branches = stabilizer.enumerate_branches(circuit)
        for record, _state, _prob in branches:
            for reg, val in record.items():
                support.setdefault(reg, set()).add(val)
        return path, support, len(branches)

    def item(self, k: int) -> bool:
        _kind, (path, support, branches) = self.pool.next(k)
        self.exact_branches += branches
        out = io.StringIO()
        code = cli.main(["simulate", "--in", path, "--backend", "tableau",
                         "--shots", str(self.shots),
                         "--seed", str(self.seeds[k % len(self.seeds)])],
                        stdout=out)
        if code != 0:
            return False
        freqs = json.loads(out.getvalue())["frequencies"]
        if set(freqs) != set(support):
            return False
        for reg, counts in freqs.items():
            if sum(counts.values()) != self.shots:
                return False
            if not {int(v) for v in counts} <= support[reg]:
                return False
        return True

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "compile": Compile,
    "stabilizer_scale": StabilizerScale,
    "oracle_check": OracleCheck,
    "shots": Shots,
}
