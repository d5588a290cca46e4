"""Circuits shared by both backends, the one interpreter that runs them,
and the JSON file formats for circuits, gate sequences and symplectic
matrices.

A circuit is a list of operations over ``n`` qudits, each qudit a copy of
one base group.  Measurements observe a Pauli vector on selected slots and
write an exponent outcome to a named register; classically controlled
corrections reference registers by name and a built-in correction function
(the measurement-based CX and magic-injection fix-ups are built-ins).

:func:`interpret` is the only loop over a circuit's operations.  It drives
either backend through three calls (apply a gate, list the outcomes of an
observable with their probabilities, project onto one) and states the
sampling rule once: a measurement draws a random number only when it has
more than one outcome.

All documents are JSON with integers only; phases are "num/den" strings.
Matrices over groups can be written in the natural residue convention
(default) or the embedded one, where a factor of order q is carried as the
multiples of q0/q inside the leading factor; the convention is an explicit
top-level field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .clifford import (AutomorphismGate, CXGate, FourierGate, Gate, PauliGate,
                       QuadraticGate)
from .errors import (GroupMismatchError, IncompleteTableError,
                     PreconditionFailedError)
from .forms import Character, QuadraticForm, fit_quadratic_table
from .groups import Group, GroupElement, HomMatrix, parse_group, product_group
from .pauli import PauliOperator, PauliVector
from .phases import Phase

FORMAT_VERSION = 1


@dataclass(frozen=True)
class GateOp:
    gate: Gate
    slots: tuple[int, ...]


@dataclass(frozen=True)
class MeasureOp:
    register: str
    slots: tuple[int, ...]
    x: tuple[int, ...]
    z: tuple[int, ...]

    def observable(self, base: Group) -> PauliVector:
        local = product_group(base, len(self.slots))
        return PauliVector(local, GroupElement(local, self.x),
                           Character(local, self.z))


@dataclass(frozen=True)
class CorrectionOp:
    builtin: str
    args: tuple[str, ...]
    slots: tuple[int, ...]
    table: tuple | None = None  # phase table parameter for magic fix-ups


@dataclass(frozen=True)
class MagicPrepOp:
    slot: int
    table: tuple  # ((residues, Phase), ...) covering the base group


Op = GateOp | MeasureOp | CorrectionOp | MagicPrepOp


@dataclass(frozen=True)
class Circuit:
    base: Group
    n: int
    ops: tuple[Op, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a circuit needs at least one qudit")
        written: set[str] = set()
        prepared: set[int] = set()
        touched: set[int] = set()
        for op in self.ops:
            if isinstance(op, GateOp):
                self._check_slots(op.slots)
                if isinstance(op.gate, CXGate):
                    if len(op.slots) != 2:
                        raise ValueError(f"a cx gate acts on 2 slots, not {len(op.slots)}")
                elif op.gate.group.orders != self.base.orders * len(op.slots):
                    raise GroupMismatchError(
                        f"a gate over {op.gate.group!r} does not act on "
                        f"{len(op.slots)} slot(s) of {self.base!r}")
                touched.update(op.slots)
            elif isinstance(op, MeasureOp):
                self._check_slots(op.slots)
                touched.update(op.slots)
                if op.register in written:
                    raise ValueError(f"register {op.register!r} written twice")
                written.add(op.register)
            elif isinstance(op, CorrectionOp):
                self._check_slots(op.slots)
                if len(op.slots) != 1:
                    raise ValueError(f"a correction acts on 1 slot, not {len(op.slots)}")
                touched.update(op.slots)
                missing = [a for a in op.args if a not in written]
                if missing:
                    raise ValueError(f"correction reads unwritten registers {missing}")
            elif isinstance(op, MagicPrepOp):
                self._check_slots((op.slot,))
                if op.slot in touched or op.slot in prepared:
                    raise ValueError("magic preparation must come first on its slot")
                prepared.add(op.slot)
            else:
                raise TypeError(f"unknown op {op!r}")

    def _check_slots(self, slots) -> None:
        for s in slots:
            if not 0 <= s < self.n:
                raise ValueError(f"slot {s} out of range")
        if len(set(slots)) != len(slots):
            raise ValueError("repeated slot in one operation")

    @property
    def group(self) -> Group:
        return product_group(self.base, self.n)


# ---------------------------------------------------------------------------
# correction built-ins

def _group_element_from_registers(base: Group, values) -> GroupElement:
    if len(values) != base.num_factors:
        raise ValueError("register count does not match the base group")
    return GroupElement(base, tuple(values))


def _corr_z_char(base: Group, values, table) -> Gate:
    return PauliGate(PauliOperator.z_char(Character(base, tuple(values))))


def _corr_x_neg(base: Group, values, table) -> Gate:
    return PauliGate(PauliOperator.x_shift(-_group_element_from_registers(base, values)))


def _corr_x_sub(base: Group, values, table) -> Gate:
    k = base.num_factors
    p = _group_element_from_registers(base, values[:k])
    q = _group_element_from_registers(base, values[k:])
    return PauliGate(PauliOperator.x_shift(p - q))


def _corr_magic_quadratic(base: Group, values, table) -> Gate:
    if table is None:
        raise ValueError("magic correction needs its phase table parameter")
    phases = decode_phase_table(base, table)
    k = _group_element_from_registers(base, values)
    residual = {g: phases[k + g] - phases[k] - phases[g] for g in base.elements()}
    corr = {g: -residual[g] for g in base.elements()}
    try:
        form = fit_quadratic_table(base, corr)
    except ValueError as exc:
        raise PreconditionFailedError(
            f"correction for outcome {k} is not a quadratic form",
            detail=k.residues) from exc
    return QuadraticGate(form)


CORRECTION_BUILTINS = {
    "z-char": _corr_z_char,
    "x-neg": _corr_x_neg,
    "x-sub": _corr_x_sub,
    "magic-quadratic": _corr_magic_quadratic,
}


def resolve_correction(op: CorrectionOp, base: Group, record: dict) -> Gate:
    fn = CORRECTION_BUILTINS.get(op.builtin)
    if fn is None:
        raise ValueError(f"unknown correction builtin {op.builtin!r}")
    values = [record[a] for a in op.args]
    return fn(base, values, op.table)


# ---------------------------------------------------------------------------
# the interpreter

def embed_vector(local: PauliVector, slots, base: Group, n: int) -> PauliVector:
    """Place a slot-local Pauli vector into the full n-qudit group."""
    k = base.num_factors
    big = product_group(base, n)
    xres = [0] * (n * k)
    zres = [0] * (n * k)
    for pos, s in enumerate(slots):
        xres[s * k:(s + 1) * k] = local.x.residues[pos * k:(pos + 1) * k]
        zres[s * k:(s + 1) * k] = local.z.residues[pos * k:(pos + 1) * k]
    return PauliVector(big, GroupElement(big, tuple(xres)),
                       Character(big, tuple(zres)))


def sample_outcome(rng, pairs):
    """The (outcome, probability) pair drawn from ``pairs``, which are in
    ascending outcome order: a single pair draws nothing, otherwise one
    ``rng.random()`` picks by cumulative scan."""
    if len(pairs) == 1:
        return pairs[0]
    r = rng.random()
    acc = 0.0
    for pair in pairs:
        acc += float(pair[1])
        if r < acc:
            return pair
    return pairs[-1]


def interpret(circuit: Circuit, backend, state, rng=None) -> list:
    """Run the circuit's operations from ``state``; returns its branches as
    (record, final state, probability) in ascending record order.

    Without ``rng`` every outcome is followed; with it each measurement
    keeps one, drawn by :func:`sample_outcome`.  The backend provides
    ``apply(state, gate, slots) -> state``, ``outcomes(state, observable)
    -> (pairs, support)`` with the (outcome, probability) pairs of nonzero
    probability in ascending order, ``project(state, support, outcome,
    last) -> state`` (``last``: no other branch needs ``state``) and
    ``unit``, the probability of the empty record.  Magic preparations
    belong to the initial state.
    """
    base, n, ops = circuit.base, circuit.n, circuit.ops
    # observables by op index; corrections by (op index, registers read),
    # which many branches share
    memo: dict = {}
    branches = []

    def walk(state, start: int, record: dict, prob):
        for i in range(start, len(ops)):
            op = ops[i]
            if isinstance(op, GateOp):
                state = backend.apply(state, op.gate, op.slots)
            elif isinstance(op, CorrectionOp):
                key = (i, tuple(record[a] for a in op.args))
                if key not in memo:
                    memo[key] = resolve_correction(op, base, record)
                state = backend.apply(state, memo[key], op.slots)
            elif isinstance(op, MeasureOp):
                if i not in memo:
                    memo[i] = embed_vector(op.observable(base), op.slots, base, n)
                pairs, support = backend.outcomes(state, memo[i])
                if rng is not None:
                    pairs = [sample_outcome(rng, pairs)]
                for s, p in pairs[:-1]:
                    walk(backend.project(state, support, s, False), i + 1,
                         {**record, op.register: s}, prob * p)
                # the last outcome continues here and may reuse the state
                s, p = pairs[-1]
                state = backend.project(state, support, s, True)
                record[op.register] = s
                prob = prob * p
        branches.append((record, state, prob))

    walk(state, 0, {}, backend.unit)
    return branches


def sample_trajectory(circuit: Circuit, backend, state, rng=None, seed=None):
    """One sampled trajectory: (final state, record)."""
    if rng is None:
        rng = random.Random(seed)
    [(record, state, _prob)] = interpret(circuit, backend, state, rng)
    return state, record


# ---------------------------------------------------------------------------
# phase tables

def encode_phase_table(table: dict) -> list:
    items = sorted(table.items(), key=lambda kv: kv[0].residues)
    return [[list(g.residues), ph.as_string()] for g, ph in items]


def decode_phase_table(base: Group, data) -> dict:
    out = {}
    for entry in _list(data, "phase table"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"phase table entry {entry!r} is not a [residues, phase] pair")
        residues, text = entry
        out[base.element(_ints(residues, "phase table residues"))] = \
            _phase(text, "phase table phase")
    return out


# ---------------------------------------------------------------------------
# matrix conventions

def matrix_embedded_to_natural(orders, entries):
    """Convert matrix entries from the embedded convention (all slots seen
    inside Z_{q0} as multiples of q0/q) to natural residues."""
    out = []
    for i, row in enumerate(entries):
        qi = orders[i]
        new_row = []
        for j, v in enumerate(row):
            qj = orders[j]
            val = v * qi
            if val % qj:
                raise ValueError(
                    f"embedded entry {v} at ({i},{j}) is not convertible")
            new_row.append((val // qj) % qi)
        out.append(new_row)
    return out


def matrix_natural_to_embedded(orders, entries):
    out = []
    for i, row in enumerate(entries):
        qi = orders[i]
        new_row = []
        for j, v in enumerate(row):
            qj = orders[j]
            val = v * qj
            if val % qi:
                raise ValueError(f"entry {v} at ({i},{j}) is not a valid residue")
            new_row.append(val // qi)
        out.append(new_row)
    return out


# ---------------------------------------------------------------------------
# gate (de)serialization

def gate_to_json(gate: Gate) -> dict:
    if isinstance(gate, AutomorphismGate):
        return {"kind": "automorphism",
                "matrix": [list(r) for r in gate.tau.entries]}
    if isinstance(gate, QuadraticGate):
        form = gate.form
        cross = [[i, j, form.cross[i][j]]
                 for i in range(len(form.diag)) for j in range(i + 1, len(form.diag))
                 if form.cross[i][j]]
        return {"kind": "quadratic", "diag": list(form.diag), "cross": cross,
                "linear": list(form.linear)}
    if isinstance(gate, FourierGate):
        return {"kind": "fourier", "matrix": [list(r) for r in gate.matrix.entries],
                "dagger": gate.dagger}
    if isinstance(gate, PauliGate):
        return {"kind": "pauli", "x": list(gate.op.x.residues),
                "z": list(gate.op.z.residues),
                "phase": gate.op.phase.as_string()}
    if isinstance(gate, CXGate):
        return {"kind": "cx", "dagger": gate.dagger}
    raise TypeError(f"unknown gate {gate!r}")


def gate_from_json(data: dict, group: Group) -> Gate:
    kind = _object(data, "gate").get("kind")
    if kind == "automorphism":
        return AutomorphismGate(HomMatrix(group, group, _int_rows(data["matrix"], "matrix")))
    if kind == "quadratic":
        n = group.num_factors
        cross = [[0] * n for _ in range(n)]
        for entry in _int_rows(data.get("cross", []), "cross"):
            if len(entry) != 3 or not 0 <= entry[0] < entry[1] < n:
                raise ValueError(f"cross entry {list(entry)} is not [i, j, c] "
                                 f"with 0 <= i < j < {n}")
            i, j, c = entry
            cross[i][j] = c
        return QuadraticGate(QuadraticForm(group, _ints(data["diag"], "diag"),
                                           tuple(tuple(r) for r in cross),
                                           _ints(data["linear"], "linear")))
    if kind == "fourier":
        return FourierGate(HomMatrix(group, group, _int_rows(data["matrix"], "matrix")),
                           bool(data.get("dagger", False)))
    if kind == "pauli":
        return PauliGate(PauliOperator(group, _phase(data["phase"], "phase"),
                                       GroupElement(group, _ints(data["x"], "x")),
                                       Character(group, _ints(data["z"], "z"))))
    if kind == "cx":
        return CXGate(bool(data.get("dagger", False)))
    raise ValueError(f"unknown gate kind {kind!r}")


def op_to_json(op: Op) -> dict:
    if isinstance(op, GateOp):
        return {"op": "gate", "slots": list(op.slots), "gate": gate_to_json(op.gate)}
    if isinstance(op, MeasureOp):
        return {"op": "measure", "register": op.register, "slots": list(op.slots),
                "x": list(op.x), "z": list(op.z)}
    if isinstance(op, CorrectionOp):
        out = {"op": "correct", "builtin": op.builtin, "args": list(op.args),
               "slots": list(op.slots)}
        if op.table is not None:
            out["table"] = [list(entry) if not isinstance(entry, list) else entry
                            for entry in op.table]
        return out
    if isinstance(op, MagicPrepOp):
        return {"op": "prepare_magic", "slot": op.slot,
                "table": [list(entry) if not isinstance(entry, list) else entry
                          for entry in op.table]}
    raise TypeError(f"unknown op {op!r}")


def _table_from_json(data, base: Group) -> tuple:
    if len(decode_phase_table(base, data)) != base.order:
        raise IncompleteTableError("a phase table must cover the base group")
    return tuple(tuple(e) for e in data)


def op_from_json(data: dict, base: Group) -> Op:
    kind = _object(data, "operation").get("op")
    if kind == "gate":
        slots = _ints(data["slots"], "slots")
        return GateOp(gate_from_json(data["gate"], product_group(base, len(slots))), slots)
    if kind == "measure":
        return MeasureOp(_str(data["register"], "register"), _ints(data["slots"], "slots"),
                         _ints(data["x"], "x"), _ints(data["z"], "z"))
    if kind == "correct":
        table = data.get("table")
        return CorrectionOp(_str(data["builtin"], "builtin"),
                            tuple(_str(a, "args") for a in _list(data["args"], "args")),
                            _ints(data["slots"], "slots"),
                            _table_from_json(table, base) if table is not None else None)
    if kind == "prepare_magic":
        return MagicPrepOp(_int(data["slot"], "slot"), _table_from_json(data["table"], base))
    raise ValueError(f"unknown op {kind!r}")


# ---------------------------------------------------------------------------
# documents

def circuit_to_json(circuit: Circuit) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "circuit",
        "group": circuit.base.literal(),
        "qudits": circuit.n,
        "operations": [op_to_json(op) for op in circuit.ops],
    }


def circuit_from_json(data: dict) -> Circuit:
    _expect(data, "circuit")
    base = _group(data)
    n = _int(data["qudits"], "qudits")
    ops = tuple(op_from_json(o, base) for o in _list(data["operations"], "operations"))
    return Circuit(base, n, ops)


def sequence_to_json(gates, group: Group) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "gate_sequence",
        "group": group.literal(),
        "gates": [gate_to_json(g) for g in gates],
    }


def sequence_from_json(data: dict):
    _expect(data, "gate_sequence")
    group = _group(data)
    return [gate_from_json(g, group) for g in _list(data["gates"], "gates")], group


def symplectic_to_json(group: Group, entries, convention: str = "natural") -> dict:
    orders = group.orders + group.orders
    mat = [list(r) for r in entries]
    if convention == "embedded":
        mat = matrix_natural_to_embedded(orders, mat)
    elif convention != "natural":
        raise ValueError(f"unknown convention {convention!r}")
    return {
        "format_version": FORMAT_VERSION,
        "type": "symplectic_map",
        "group": group.literal(),
        "convention": convention,
        "matrix": mat,
    }


def symplectic_from_json(data: dict):
    from .symplectic import SymplecticMap
    from .clifford import doubled_group
    _expect(data, "symplectic_map")
    group = _group(data)
    orders = group.orders + group.orders
    mat = [list(r) for r in _int_rows(data["matrix"], "matrix")]
    if len(mat) != len(orders) or any(len(r) != len(orders) for r in mat):
        raise ValueError(f"a symplectic map over {group.literal()} is a "
                         f"{len(orders)}x{len(orders)} matrix")
    convention = data.get("convention", "natural")
    if convention == "embedded":
        mat = matrix_embedded_to_natural(orders, mat)
    elif convention != "natural":
        raise ValueError(f"unknown convention {convention!r}")
    big = doubled_group(group)
    return SymplecticMap(group, HomMatrix(big, big, tuple(tuple(r) for r in mat)))


def tableau_to_json(tableau) -> dict:
    def pauli_json(p):
        return {"x": list(p.x.residues), "z": list(p.z.residues),
                "phase": p.phase.as_string()}
    return {
        "format_version": FORMAT_VERSION,
        "type": "clifford_tableau",
        "group": tableau.group.literal(),
        "x_images": [pauli_json(p) for p in tableau.x_images],
        "z_images": [pauli_json(p) for p in tableau.z_images],
    }


def tableau_from_json(data: dict):
    from .clifford import CliffordTableau
    _expect(data, "clifford_tableau")
    group = _group(data)

    def pauli(d):
        d = _object(d, "Pauli image")
        return PauliOperator(group, _phase(d["phase"], "phase"),
                             GroupElement(group, _ints(d["x"], "x")),
                             Character(group, _ints(d["z"], "z")))

    return CliffordTableau(group,
                           tuple(pauli(d) for d in _list(data["x_images"], "x_images")),
                           tuple(pauli(d) for d in _list(data["z_images"], "z_images")))


# ---------------------------------------------------------------------------
# payload checks: a malformed document raises ValueError, never TypeError

def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def _list(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} entries must be integers, not {value!r}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_int(v, what) for v in _list(value, what))


def _int_rows(value, what: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(row, what) for row in _list(value, what))


def _str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {value!r}")
    return value


def _phase(value, what: str) -> Phase:
    try:
        return Phase.parse(_str(value, what))
    except ZeroDivisionError as exc:
        raise ValueError(f"{what} {value!r} has a zero denominator") from exc


def _group(data: dict) -> Group:
    return parse_group(_str(data["group"], "group"))


def _expect(data: dict, typ: str) -> None:
    if _object(data, "document").get("type") != typ:
        raise ValueError(f"document is not a {typ!r}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported format_version")


def dump_document(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_document(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
