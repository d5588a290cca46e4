import copy
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gclifford.circuits import (circuit_to_json, dump_document,
                                sequence_from_json, symplectic_to_json)
from gclifford.cli import main
from gclifford.clifford import doubled_group
from gclifford.groups import HomMatrix, make_group
from gclifford.symplectic import SymplecticMap, random_symplectic, sequence_image


def run_cli(args):
    out = io.StringIO()
    code = main(args, stdout=out)
    return code, out.getvalue()


def test_decompose_identity(tmp_path):
    g = make_group([4, 2])
    path = tmp_path / "id.json"
    dump_document(symplectic_to_json(g, SymplecticMap.identity(g).matrix.entries),
                  path)
    out_path = tmp_path / "seq.json"
    code, text = run_cli(["decompose", "--in", str(path), "--out", str(out_path),
                          "--verify"])
    assert code == 0, text
    seq, group = sequence_from_json(json.loads(out_path.read_text()))
    assert seq == [] and group == g
    assert "verified" in text


def test_decompose_roundtrip_and_verify(tmp_path):
    g = make_group([4, 2])
    rng = random.Random(3)
    sigma = random_symplectic(g, rng)
    path = tmp_path / "sig.json"
    dump_document(symplectic_to_json(g, sigma.matrix.entries), path)
    out_path = tmp_path / "seq.json"
    code, text = run_cli(["decompose", "--in", str(path), "--out", str(out_path),
                          "--verify", "--group", "4,2"])
    assert code == 0, text
    seq, group = sequence_from_json(json.loads(out_path.read_text()))
    assert sequence_image(seq, group).matrix.entries == sigma.matrix.entries


def test_decompose_block_swap(tmp_path):
    z2 = make_group([2])
    big = doubled_group(z2)
    path = tmp_path / "swap.json"
    dump_document(symplectic_to_json(
        z2, HomMatrix(big, big, ((0, 1), (1, 0))).entries), path)
    code, text = run_cli(["decompose", "--in", str(path), "--verify"])
    assert code == 0, text


def test_decompose_non_symplectic_exit_2(tmp_path):
    z4 = make_group([4])
    big = doubled_group(z4)
    path = tmp_path / "bad.json"
    dump_document(symplectic_to_json(
        z4, HomMatrix(big, big, ((3, 0), (0, 1))).entries), path)
    code, text = run_cli(["decompose", "--in", str(path)])
    assert code == 2
    assert "NotSymplectic" in text


def test_decompose_group_mismatch_checked_before_compiling(tmp_path, monkeypatch):
    from gclifford import cli
    from gclifford.circuits import tableau_to_json
    from gclifford.clifford import CliffordTableau

    def never(*_args):
        raise AssertionError("compiled before the --group check")

    monkeypatch.setattr(cli, "decompose", never)
    monkeypatch.setattr(cli, "decompose_clifford", never)
    g = make_group([4, 2])
    sig_path = tmp_path / "sig.json"
    dump_document(symplectic_to_json(g, random_symplectic(g, random.Random(3)).matrix.entries),
                  sig_path)
    tab_path = tmp_path / "tab.json"
    dump_document(tableau_to_json(CliffordTableau.identity(g)), tab_path)
    for path in (sig_path, tab_path):
        code, text = run_cli(["decompose", "--in", str(path), "--verify",
                              "--group", "2,4"])
        assert code == 2, text
        assert "--group does not match" in text


def test_decompose_missing_file_exit_2(tmp_path):
    code, text = run_cli(["decompose", "--in", str(tmp_path / "nope.json")])
    assert code == 2


def test_simulate_deterministic_zero_state(tmp_path):
    z2 = make_group([2])
    from gclifford.circuits import Circuit, MeasureOp
    circ = Circuit(z2, 1, (MeasureOp("m", (0,), (0,), (1,)),))
    path = tmp_path / "c.json"
    dump_document(circuit_to_json(circ), path)
    for backend in ("tableau", "dense"):
        code, text = run_cli(["simulate", "--in", str(path), "--backend", backend,
                              "--shots", "20", "--seed", "5"])
        assert code == 0
        doc = json.loads(text)
        assert doc["frequencies"]["m"] == {"0": 20}


def test_simulate_needs_seed(tmp_path):
    z2 = make_group([2])
    from gclifford.circuits import Circuit, MeasureOp
    circ = Circuit(z2, 1, (MeasureOp("m", (0,), (1,), (0,)),))
    path = tmp_path / "c.json"
    dump_document(circuit_to_json(circ), path)
    code, text = run_cli(["simulate", "--in", str(path)])
    assert code == 2 and "seed" in text


def test_simulate_fourier_frequencies_and_branches(tmp_path):
    z2 = make_group([2])
    from gclifford.circuits import Circuit, GateOp, MeasureOp
    from gclifford.clifford import FourierGate
    circ = Circuit(z2, 1, (
        GateOp(FourierGate(HomMatrix.identity(z2)), (0,)),
        MeasureOp("m", (0,), (0,), (1,)),
    ))
    path = tmp_path / "c.json"
    dump_document(circuit_to_json(circ), path)
    code, text = run_cli(["simulate", "--in", str(path), "--shots", "10000",
                          "--seed", "7", "--backend", "tableau"])
    assert code == 0
    freqs = json.loads(text)["frequencies"]["m"]
    assert abs(freqs["0"] - 5000) < 300
    # identical seeds give byte-identical reports
    code2, text2 = run_cli(["simulate", "--in", str(path), "--shots", "10000",
                            "--seed", "7", "--backend", "tableau"])
    assert text2 == text
    # exact branch table from the dense backend
    code3, text3 = run_cli(["simulate", "--in", str(path), "--backend", "dense",
                            "--branches"])
    assert code3 == 0
    table = json.loads(text3)["branches"]
    assert len(table) == 2
    assert all(abs(b["probability"] - 0.5) < 1e-9 for b in table)
    # branch table requires the dense backend
    code4, _ = run_cli(["simulate", "--in", str(path), "--branches"])
    assert code4 == 2


def test_simulate_magic_on_tableau_rejected(tmp_path):
    z2 = make_group([2])
    from gclifford.protocols import build_magic_injection
    from gclifford.phases import Phase
    table = {z2.zero(): Phase(), z2.element((1,)): Phase(1, 8)}
    circ, _ = build_magic_injection(z2, table)
    path = tmp_path / "magic.json"
    dump_document(circuit_to_json(circ), path)
    code, text = run_cli(["simulate", "--in", str(path), "--backend", "tableau",
                          "--seed", "3"])
    assert code == 2 and "stabilizer" in text
    code2, _ = run_cli(["simulate", "--in", str(path), "--backend", "dense",
                        "--seed", "3"])
    assert code2 == 0


def test_verify_z2(tmp_path):
    out_path = tmp_path / "report.json"
    code, text = run_cli(["verify", "--group", "2", "--seed", "1",
                          "--dense-cap", "256", "--out", str(out_path)])
    assert code == 0, text
    assert "pass" in text and "FAIL" not in text
    report = json.loads(out_path.read_text())
    assert report["passed"]
    # byte-identical reruns
    out2 = tmp_path / "report2.json"
    run_cli(["verify", "--group", "2", "--seed", "1",
             "--dense-cap", "256", "--out", str(out2)])
    assert out2.read_bytes() == out_path.read_bytes()


def test_verify_reports_skipped_checks(tmp_path):
    # Z2xZ3 is not a divisibility chain, and there is no magic table for it
    out_path = tmp_path / "report.json"
    code, text = run_cli(["verify", "--group", "2,3", "--seed", "0",
                          "--out", str(out_path)])
    assert code == 0, text
    assert "skip  two-local (skipped: orders not a chain)\n" in text
    assert "pass  two-local" not in text and "pass  decompose-roundtrip" in text
    checks = {c["name"]: c for c in json.loads(out_path.read_text())["checks"]}
    skipped = {name for name, c in checks.items() if c.get("skipped")}
    assert skipped == {"two-local", "magic-injection"}
    assert all(checks[name]["passed"] for name in skipped)


@pytest.mark.parametrize("group,cap", [("3", "8"), ("2", "3")])
def test_verify_honours_dense_cap(tmp_path, group, cap, monkeypatch):
    import gclifford.dense as dense
    dims = []
    real = dense.pauli_matrix

    def recording(p, cap=dense.DEFAULT_DENSE_CAP):
        dims.append((p.group.order, cap))
        return real(p, cap)

    monkeypatch.setattr(dense, "pauli_matrix", recording)
    out_path = tmp_path / "report.json"
    code, text = run_cli(["verify", "--group", group, "--seed", "0",
                          "--dense-cap", cap, "--out", str(out_path)])
    assert code == 0, text
    assert "skip  magic-injection (skipped: over dense cap)\n" in text
    checks = {c["name"]: c for c in json.loads(out_path.read_text())["checks"]}
    assert checks["magic-injection"]["skipped"] is True
    assert dims and all(dim <= int(cap) == c for dim, c in dims)
    # below the group order the Pauli check builds no dense matrix at all
    dims.clear()
    code, text = run_cli(["verify", "--group", group, "--seed", "0",
                          "--dense-cap", "1"])
    assert code == 0, text
    assert dims == []


def test_counterexample(tmp_path):
    code, text = run_cli(["counterexample", "--group", "2,4"])
    assert code == 0
    assert "not in the generated subgroup" in text
    code2, text2 = run_cli(["counterexample", "--group", "3,3"])
    assert code2 == 2
    code3, text3 = run_cli(["counterexample", "--group", "2,4", "--bfs",
                            "--bfs-cap", "32"])
    assert code3 == 3


def test_canonicalize():
    code, text = run_cli(["canonicalize", "--group", "2,3"])
    assert code == 0
    doc = json.loads(text)
    assert doc["canonical"] == "6"


def test_bad_group_literal():
    code, _ = run_cli(["canonicalize", "--group", "2,x"])
    assert code == 2


def test_protocol_cx(tmp_path):
    out_path = tmp_path / "cx.json"
    rep_path = tmp_path / "cxrep.json"
    code, text = run_cli(["protocol", "--name", "cx", "--group", "2",
                          "--check", "--out", str(out_path),
                          "--report", str(rep_path)])
    assert code == 0, text
    circ_doc = json.loads(out_path.read_text())
    assert circ_doc["type"] == "circuit" and circ_doc["qudits"] == 3
    rep = json.loads(rep_path.read_text())
    assert rep["passed"] and rep["protocol"] == "measurement-based-cx"


def test_protocol_magic_builtin_and_table(tmp_path):
    code, text = run_cli(["protocol", "--name", "magic", "--group", "2",
                          "--check"])
    assert code == 0, text
    assert json.loads(text)["passed"]
    # custom table document
    table_doc = {"format_version": 1, "type": "phase_table", "group": "3",
                 "table": [[[0], "0/1"], [[1], "1/9"], [[2], "8/9"]]}
    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps(table_doc))
    code2, text2 = run_cli(["protocol", "--name", "magic", "--group", "3",
                            "--table", str(tpath), "--check"])
    assert code2 == 0, text2
    # non-quadratic correction is an input error
    bad_doc = {"format_version": 1, "type": "phase_table", "group": "4",
               "table": [[[0], "0/1"], [[1], "1/16"], [[2], "8/16"],
                         [[3], "11/16"]]}
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps(bad_doc))
    code3, text3 = run_cli(["protocol", "--name", "magic", "--group", "4",
                            "--table", str(bpath)])
    assert code3 == 2 and "quadratic" in text3


def test_protocol_triple_and_split(tmp_path):
    seq_path = tmp_path / "triple.json"
    code, text = run_cli(["protocol", "--name", "triple", "--group", "4,2",
                          "--out", str(seq_path)])
    assert code == 0, text
    assert json.loads(text)["passed"]
    doc = json.loads(seq_path.read_text())
    assert doc["type"] == "gate_sequence" and len(doc["gates"]) == 6
    code2, text2 = run_cli(["protocol", "--name", "split-fourier", "--group",
                            "4", "--spectator", "2", "--check"])
    assert code2 == 0, text2
    assert json.loads(text2)["passed"]


def test_dense_rejects_non_invertible_automorphism(tmp_path):
    doc = {"format_version": 1, "type": "circuit", "group": "4", "qudits": 1,
           "operations": [{"op": "gate", "slots": [0],
                           "gate": {"kind": "automorphism", "matrix": [[2]]}},
                          {"op": "measure", "register": "m", "slots": [0],
                           "x": [0], "z": [1]}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for backend in ("tableau", "dense"):
        code, text = run_cli(["simulate", "--in", str(path), "--backend", backend,
                              "--seed", "1"])
        assert code == 2 and "NotInvertibleError" in text, (backend, text)


def test_non_object_document_exit_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for args in (["simulate", "--seed", "1"], ["decompose"]):
        code, text = run_cli([*args, "--in", str(path)])
        assert code == 2 and "list" in text, (args, text)


@pytest.mark.parametrize("gate, message", [
    ({"kind": "automorphism", "matrix": [["1", 0], [0, 1]]}, "integers"),
    # a lower-triangle cross term used to be dropped without a word
    ({"kind": "quadratic", "diag": [0, 0], "cross": [[1, 0, 1]],
      "linear": [0, 0]}, "0 <= i < j"),
])
def test_malformed_gate_payload_exit_2(tmp_path, gate, message):
    doc = {"format_version": 1, "type": "circuit", "group": "2,2", "qudits": 1,
           "operations": [{"op": "gate", "slots": [0], "gate": gate}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["simulate", "--in", str(path), "--seed", "1"])
    assert code == 2 and message in text, text


def _set(images, index, **changes):
    return lambda doc: doc[images][index].update(changes)


@pytest.mark.parametrize("edit, message", [
    # X_0 -> i X_0 squares to -1
    (_set("x_images", 0, phase="1/4"), "X image 0 does not have order dividing 2"),
    (_set("x_images", 0, phase="1/3"), "X image 0 phase 1/3 is not a multiple of 1/4"),
    # X_0 -> X_0 Z_0 keeps the pairing, but (X Z)^2 = -1
    (_set("x_images", 0, z=[1, 0]), "X image 0 does not have order dividing 2"),
    (lambda doc: doc["z_images"].pop(), "has 2 z_images, not 1"),
    (_set("z_images", 1, x=[0]), "Z image 1 has 1 x and 2 z residues"),
    # X_1 -> X_0 pairs with Z_0, which X_1 does not
    (_set("x_images", 1, x=[1, 0]),
     "does not preserve the pairing: X image 1 and Z image 0 do not pair"),
], ids=["square-minus-one", "phase-off-grid", "xz-square", "image-count",
        "residue-count", "pairing"])
def test_malformed_tableau_document_exit_2(tmp_path, edit, message):
    from gclifford.circuits import tableau_to_json
    from gclifford.clifford import CliffordTableau
    doc = tableau_to_json(CliffordTableau.identity(make_group([2, 2])))
    edit(doc)
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["decompose", "--verify", "--in", str(path)])
    assert code == 2 and message in text, text


def test_one_slot_cx_exit_2(tmp_path):
    doc = {"format_version": 1, "type": "circuit", "group": "2", "qudits": 2,
           "operations": [{"op": "gate", "slots": [1],
                           "gate": {"kind": "cx", "dagger": False}}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["simulate", "--in", str(path), "--seed", "1"])
    assert code == 2 and "cx gate acts on 2 slots" in text, text


@pytest.mark.parametrize("op, message", [
    # a correction builds a gate over the base group, so it takes one slot
    ({"op": "correct", "builtin": "x-neg", "args": ["m"], "slots": [0, 1]},
     "correction acts on 1 slot"),
    # a gate is read over its slots' group: a Z2xZ2 matrix on one Z2 slot
    ({"op": "gate", "slots": [1], "gate": {"kind": "fourier", "dagger": False,
                                           "matrix": [[1, 0], [0, 1]]}},
     "matrix shape does not match"),
])
@pytest.mark.parametrize("backend", ["tableau", "dense"])
def test_op_over_wrong_group_exit_2(tmp_path, op, message, backend):
    doc = {"format_version": 1, "type": "circuit", "group": "2", "qudits": 2,
           "operations": [{"op": "measure", "register": "m", "slots": [0],
                           "x": [0], "z": [1]}, op]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli(["simulate", "--in", str(path), "--backend", backend,
                          "--seed", "1"])
    assert code == 2 and message in text, text


def _fuzz_corpus():
    """(document, command lines) pairs; every document is valid as built,
    and each command line ends with the option that names its file."""
    from gclifford.circuits import (Circuit, GateOp, MeasureOp,
                                    sequence_to_json, tableau_to_json)
    from gclifford.clifford import (AutomorphismGate, CXGate, FourierGate,
                                    PauliGate, QuadraticGate, gate_tableau)
    from gclifford.forms import Character, QuadraticForm
    from gclifford.groups import GroupElement
    from gclifford.pauli import PauliOperator
    from gclifford.phases import Phase
    from gclifford.protocols import build_cx_protocol, build_magic_injection
    z2, z4x2 = make_group([2]), make_group([4, 2])
    pair = make_group([2, 2])
    gates = [
        AutomorphismGate(HomMatrix(pair, pair, ((1, 0), (1, 1)))),
        QuadraticGate(QuadraticForm(pair, (1, 2), ((0, 1), (0, 0)), (1, 0))),
        FourierGate(HomMatrix.identity(pair), True),
        PauliGate(PauliOperator(pair, Phase(1, 4), GroupElement(pair, (1, 0)),
                                Character(pair, (0, 1)))),
    ]
    mixed = Circuit(z2, 2, tuple(GateOp(g, (1, 0)) for g in gates)
                    + (GateOp(CXGate(), (0, 1)),
                       MeasureOp("m", (0, 1), (1, 0), (0, 1))))
    magic, _ = build_magic_injection(z2, {z2.zero(): Phase(),
                                          z2.element((1,)): Phase(1, 8)})
    shots = ["--seed", "1", "--shots", "2", "--in"]
    sim = [["simulate", "--backend", "tableau", *shots],
           ["simulate", "--backend", "dense", *shots],
           ["simulate", "--backend", "dense", "--branches", "--in"]]
    sigma = random_symplectic(z4x2, random.Random(5))
    table = {"format_version": 1, "type": "phase_table", "group": "2",
             "table": [[[0], "0/1"], [[1], "1/8"]]}
    return [
        (circuit_to_json(build_cx_protocol(z2)), sim),
        (circuit_to_json(mixed), sim),
        (circuit_to_json(magic), sim[1:]),
        (sequence_to_json(gates, pair), [["decompose", "--in"], sim[0]]),
        (symplectic_to_json(z4x2, sigma.matrix.entries, "embedded"),
         [["decompose", "--verify", "--in"]]),
        (tableau_to_json(gate_tableau(gates[1])), [["decompose", "--verify", "--in"]]),
        (table, [["protocol", "--name", "magic", "--group", "2", "--check",
                  "--table"]]),
    ]


FUZZ_CORPUS = _fuzz_corpus()

# Replacement values stay small: a mutated qudit count or group order is
# meant to be malformed, not a legitimately huge job.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.just(1.5)
    | st.text(alphabet="0123456789,/-x", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "op", "type", "x", "z", "matrix"]),
                      inner, max_size=2),
    max_leaves=5)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_case(draw):
    doc, commands = draw(st.sampled_from(FUZZ_CORPUS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return doc, draw(st.sampled_from(commands))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_case())
def test_mutated_documents_keep_exit_code_contract(tmp_path_factory, case):
    doc, command = case
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    code, text = run_cli([*command, str(path)])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in text
