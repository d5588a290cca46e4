"""The stabilizer engine's n-curve: wall time of gates and measurements
against the register size.

    python3 tools/ncurve.py

Run from the root of a checkout; the program is imported from ./src.  For
each n in SIZES, one (Z2xZ4)^n ``StabilizerState`` from |0...0> takes
10 n random gates (CX on a random ordered pair of qudits, or the
canonical Fourier gate or the standard quadratic phase on a random qudit),
then measures Z (the character (1, 1)) on 4 distinct random qudits.  The
draws come from ``random.Random(f"ncurve:{n}")``, so every checkout runs
the same circuits, and the outcome record and a digest of the final
generators show that two versions computed the same thing.  Writes
``BENCH_ncurve.json`` with the seconds per n and the machine: CPU model,
``nproc``, and the Python and numpy versions.  Each n runs once in this
process; n = 1000 holds a 2000 x 4000 int64 generator matrix (64 MB) and
its echelon copy.
"""

import hashlib
import json
import os
import platform
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from gclifford.clifford import CXGate, FourierGate, QuadraticGate  # noqa: E402
from gclifford.forms import Character, standard_nondegenerate_form  # noqa: E402
from gclifford.groups import Group, product_group  # noqa: E402
from gclifford.pauli import PauliVector  # noqa: E402
from gclifford.stabilizer import StabilizerState  # noqa: E402

BASE = (2, 4)
SIZES = (50, 100, 200, 400, 1000)
GATES_PER_QUDIT = 10
MEASUREMENTS = 4


def run(n: int) -> dict:
    base = Group(BASE)
    rng = random.Random(f"ncurve:{n}")
    gates = [CXGate(), FourierGate.canonical(base),
             QuadraticGate(standard_nondegenerate_form(base))]
    circuit = []
    for _ in range(GATES_PER_QUDIT * n):
        gate = gates[rng.randrange(3)]
        circuit.append((gate, tuple(rng.sample(range(n), 2 if gate is gates[0] else 1))))
    big = product_group(base, n)
    k = len(BASE)
    observables = []
    for slot in rng.sample(range(n), MEASUREMENTS):
        z = [0] * (n * k)
        z[slot * k:(slot + 1) * k] = [1] * k
        observables.append(PauliVector(big, big.zero(), Character(big, tuple(z))))
    outcome_rng = random.Random(rng.getrandbits(64))

    state = StabilizerState(base, n)
    start = time.perf_counter()
    for gate, slots in circuit:
        state.apply_gate(gate, slots)
    gates_s = time.perf_counter() - start
    start = time.perf_counter()
    record = [state.measure(vec, outcome_rng)[0] for vec in observables]
    measure_s = time.perf_counter() - start
    digest = hashlib.sha256(state.V.astype(np.int64).tobytes()
                            + state.P.astype(np.int64).tobytes()).hexdigest()[:16]
    return {"n": n, "gates": len(circuit), "gates_s": round(gates_s, 3),
            "measurements": MEASUREMENTS, "measure_s": round(measure_s, 3),
            "record": record, "generators_sha256": digest}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    rows = []
    for n in SIZES:
        rows.append(run(n))
        print(json.dumps(rows[-1]), flush=True)
    out = {"recipe": f"(Z2xZ4)^n, {GATES_PER_QUDIT} n random CX/F/S gates, then "
                     f"{MEASUREMENTS} Z measurements",
           "machine": {"cpu": _cpu_model(), "nproc": os.cpu_count(),
                       "python": platform.python_version(), "numpy": np.__version__},
           "rows": rows}
    with open(os.path.join(os.getcwd(), "BENCH_ncurve.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
