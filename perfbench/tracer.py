"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the program's public entry points with
wrappers that belong to the benchmark.  Spanned functions record a span
(name, start, end, parent span, item id) in memory; hot arithmetic
functions are only counted, because a large stabilizer run makes millions
of ``Phase`` additions and a span each would swamp the measurement.  A
module-level function is replaced at every binding that holds it, since
``from .x import y`` copies the function into the importing module.
``clifford.gate_tableau`` is the exception: it is wrapped only where
``stabilizer`` binds it, so its call count is the tableau-cache miss count.

Self time is a span's duration minus the durations of its direct child
spans (single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

TIMES = ("calls", "self_s", "total_s")


def _result_len(stat):
    return lambda result, args: ((stat, len(result)),)


def _decompose_out(result, args):
    return (("gates_out", len(result)), ("d2", args[0].group.num_factors ** 2))


def _report_branches(result, args):
    return (("branches_out", result.branch_count),)


# (module, attribute, stats to emit, extra-stat function, bindings)
# bindings None: every gclifford module that holds the function.
SPANNED = (
    ("clifford", "gate_tableau", TIMES, None, ("stabilizer",)),
    ("clifford", "CliffordTableau.conjugate", TIMES, None, None),
    ("clifford", "CliffordTableau.compose", TIMES, None, None),
    ("clifford", "CliffordTableau.inverse", TIMES, None, None),
    ("clifford", "sequence_tableau", TIMES, None, None),
    ("clifford", "two_local_factorize", TIMES + ("factors_out",),
     _result_len("factors_out"), None),
    ("symplectic", "decompose", TIMES + ("gates_out", "gates_per_d2", "raised"),
     _decompose_out, None),
    ("symplectic", "decompose_clifford", TIMES, None, None),
    ("symplectic", "sequence_image", TIMES, None, None),
    ("symplectic", "is_symplectic", TIMES, None, None),
    ("stabilizer", "StabilizerState.apply_gate", TIMES, None, None),
    ("stabilizer", "StabilizerState.measure", TIMES, None, None),
    ("stabilizer", "StabilizerState.outcome_support", TIMES, None, None),
    ("stabilizer", "StabilizerState.validate", ("self_s",), None, None),
    ("stabilizer", "enumerate_branches", TIMES + ("branches_out",),
     _result_len("branches_out"), None),
    ("stabilizer", "run_circuit", TIMES + ("calls_per_branch",), None, None),
    ("dense", "gate_matrix", TIMES + ("dim_sum",),
     lambda result, args: (("dim_sum", result.shape[0]),), None),
    ("dense", "apply_gate", TIMES, None, None),
    ("dense", "measurement_projections", TIMES, None, None),
    ("dense", "pauli_apply", TIMES, None, None),
    ("dense", "enumerate_branches", TIMES + ("branches_out",),
     _result_len("branches_out"), None),
    ("protocols", "check_cx_protocol", TIMES + ("branches_out",), _report_branches, None),
    ("protocols", "check_magic_injection", TIMES + ("branches_out",), _report_branches, None),
    ("protocols", "check_triple_identity", TIMES + ("branches_out",), _report_branches, None),
    ("protocols", "check_split_fourier", TIMES + ("branches_out",), _report_branches, None),
    ("circuits", "circuit_from_json", TIMES, None, None),
    ("cli", "main", TIMES, None, None),
)

# (module, attribute, metric name): counted, not spanned
COUNTED = (
    ("phases", "Phase.__add__", "phases.Phase.add"),
    ("phases", "Phase.from_fraction", "phases.Phase.from_fraction"),
    ("pauli", "PauliOperator.__mul__", "pauli.PauliOperator.mul"),
    ("pauli", "PauliOperator.pow", "pauli.PauliOperator.pow"),
    ("forms", "Character.eval", "forms.Character.eval"),
    ("groups", "HomMatrix.compose", "groups.HomMatrix.compose"),
    ("symplectic", "gate_image", "symplectic.gate_image"),
    ("stabilizer", "StabilizerState.clone", "stabilizer.StabilizerState.clone"),
    ("circuits", "resolve_correction", "circuits.resolve_correction"),
)

# read from the caches after the run
CACHE_METRICS = ("stabilizer.tableau_cache.hit_ratio",
                 "stabilizer.tableau_cache.entries",
                 "stabilizer.conj_cache.entries",
                 "dense.group_tables.entries")

OVERHEAD = "trace.overhead_frac"


def units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "frac", "per_d2", "per_branch")):
        return "ratio"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run emits, in a fixed order."""
    names = []
    for module, attr, stats, _extra, _bindings in SPANNED:
        names += [f"{module}.{attr}.{stat}" for stat in stats]
    names += [f"{name}.calls" for _m, _a, name in COUNTED]
    names += list(CACHE_METRICS) + [OVERHEAD]
    return names


def _owner_and_name(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, item id)
        self._stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace(self, module, attr, make, bindings) -> None:
        owner, name = _owner_and_name(module, attr)
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(make(raw.__func__)))
            return
        wrapper = make(raw)
        if owner is not module:
            self._set(owner, name, wrapper)
            return
        targets = [sys.modules[f"gclifford.{b}"] for b in bindings] if bindings else \
            [m for key, m in list(sys.modules.items())
             if key == "gclifford" or key.startswith("gclifford.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is raw:
                    self._set(target, key, wrapper)

    def install(self) -> None:
        for module_name, attr, _stats, extra, bindings in SPANNED:
            module = importlib.import_module(f"gclifford.{module_name}")
            name = f"{module_name}.{attr}"
            self._replace(module, attr,
                          lambda fn, name=name, extra=extra: self._span(name, fn, extra),
                          bindings)
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(f"gclifford.{module_name}")
            self._replace(module, attr,
                          lambda fn, name=name: self._count(name, fn), None)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, extra):
        spans, stack, counts, totals = self.spans, self._stack, self.counts, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.item)
                stack.pop()
            if extra is not None:
                for stat, value in extra(result, args):
                    totals[f"{name}.{stat}"] += value
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict[str, list]:
        """name -> [calls, self seconds, total seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _parent, _item) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start - child[idx]
            row[2] += end - start
        return out

    def metrics(self, exact_branches: int, overhead_frac: float) -> dict[str, float]:
        from gclifford import dense, stabilizer
        times = self.layer_times()
        values: dict[str, float] = {}
        for module_name, attr, stats, _extra, _bindings in SPANNED:
            name = f"{module_name}.{attr}"
            calls, self_s, total_s = times.get(name, (0, 0.0, 0.0))
            derived = {
                "calls": calls, "self_s": self_s, "total_s": total_s,
                "raised": self.counts.get(name + ".raised", 0),
                "gates_per_d2": (self.extra[name + ".gates_out"] / self.extra[name + ".d2"]
                                 if self.extra.get(name + ".d2") else 0.0),
                "calls_per_branch": calls / exact_branches if exact_branches else 0.0,
            }
            for stat in stats:
                value = derived[stat] if stat in derived else self.extra.get(f"{name}.{stat}", 0)
                values[f"{name}.{stat}"] = value
        for _m, _a, name in COUNTED:
            values[f"{name}.calls"] = self.counts.get(name + ".calls", 0)
        applied = values["stabilizer.StabilizerState.apply_gate.calls"]
        misses = values["clifford.gate_tableau.calls"]
        values["stabilizer.tableau_cache.hit_ratio"] = 1 - misses / applied if applied else 0.0
        values["stabilizer.tableau_cache.entries"] = len(stabilizer._TABLEAU_CACHE)
        values["stabilizer.conj_cache.entries"] = sum(
            len(memo) for memo in stabilizer._CONJ_CACHE.values())
        values["dense.group_tables.entries"] = len(dense._GROUP_TABLES)
        values[OVERHEAD] = overhead_frac
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\titem\n")
            for name, start, end, parent, item in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")
