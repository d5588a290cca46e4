"""gclifford benchmark runner.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With ``--trace 0`` it times a closed loop (one client, items back to back)
for ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of items twice, each time in a fresh
process: once untraced (a child process) and once with every public entry
point wrapped (this process), and reports the per-layer metrics plus the
tracing overhead.  ``--workload all`` runs every workload in its own
process and prints all of their metrics.

Default seed: 1.  Holdout seed: 7919 -- keep it unused while developing a
change, and re-check a claimed gain on it.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS thread: every workload is a single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("compile", "stabilizer_scale", "oracle_check", "shots")
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
SETUP_REPEATS = 3
SETUP_SAMPLES = 5
# items of the traced run, sized to take 15 to 20 scaled seconds untraced;
# fixed so that per-layer counts repeat exactly
TRACE_ITEMS = {"compile": 104, "stabilizer_scale": 40, "oracle_check": 288,
               "shots": 150}
TINY_TRACE_ITEMS = 6
# calibration (see Speed): a sample about every CAL_EVERY_S seconds; the
# reference speed is the one at which the load takes CAL_REF_S, a round
# figure near its time on the 2-core Xeon machine where the bounds were set
CAL_EVERY_S = 0.1
CAL_REF_S = 0.002


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gclifford", "__init__.py")):
        sys.stderr.write(f"error: no program sources under {src}; "
                         "run from the root of a gclifford checkout\n")
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import gclifford
    if not os.path.abspath(gclifford.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: imported gclifford from {gclifford.__file__}\n")
        sys.exit(2)
    import workloads
    return workloads


def _environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed}


class Speed:
    """Host speed, sampled with a fixed calibration load between items.

    On a shared machine the same item can run 1.7 times slower for a few
    seconds and then fast again (measured on a 2-core Xeon virtual
    machine), and a run cannot tell that drift from a change in the
    program.  Every run therefore times the load below
    about every CAL_EVERY_S seconds, between items, and scales each time
    it reports by CAL_REF_S over the median load time of the nearest
    samples: times are reported at the speed at which the load takes
    CAL_REF_S.  The load uses no gclifford code, so a change in the
    program moves the scaled times as it moves the raw ones.
    """

    NEAREST = 5

    def __init__(self):
        self.at: list[float] = []       # when each sample was taken
        self.took: list[float] = []     # how long its load ran
        self._due = 0.0

    def sample(self) -> None:
        gc.disable()  # a collection would time the workload's heap, not the host
        t = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 7, 8)
            key = tuple(i * j % 5 for j in range(6))
            seen[key] = seen.get(key, 0) + 1
        done = time.perf_counter()
        gc.enable()
        self.at.append(t)
        self.took.append(done - t)
        self._due = done + CAL_EVERY_S

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self, when: float | None = None) -> float:
        """Reference seconds per second measured on this host, near the
        moment ``when`` (over all samples when None)."""
        if when is None:
            return CAL_REF_S / statistics.median(self.took)
        i = bisect.bisect(self.at, when)
        lo = max(0, min(i - self.NEAREST // 2, len(self.at) - self.NEAREST))
        return CAL_REF_S / statistics.median(self.took[lo:lo + self.NEAREST])


def _setup(workloads, name: str, seed: int, tiny: bool, speed: Speed):
    """Build the workload SETUP_REPEATS times; keep the last build.
    Returns it and the median build time, unscaled.  A few calibration
    samples go around each build, since one sample is noisy."""
    cls = workloads.WORKLOADS[name]
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        t = time.perf_counter()
        wl = cls(seed, tiny)
        times.append(time.perf_counter() - t)
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return wl, statistics.median(times)


class Tally:
    """Outcomes of the timed items of one run."""

    def __init__(self):
        self.timed: list[tuple] = []   # (start, seconds, passed) of each item
        self.attempted = self.failed = self.wrong = self.rejected = 0
        self.errors: dict[str, int] = {}

    @property
    def busy(self) -> float:
        """Unscaled seconds spent in items."""
        return sum(seconds for _start, seconds, _passed in self.timed)

    def scaled(self, speed: Speed) -> tuple[list[float], float]:
        """Latencies of the passed items and the time spent in all items,
        in reference seconds."""
        latencies, busy = [], 0.0
        for start, seconds, passed in self.timed:
            seconds *= speed.scale(start)
            busy += seconds
            if passed:
                latencies.append(seconds)
        return latencies, busy


def _loop(wl, seconds: float, items, speed: Speed, tracer=None) -> Tally:
    """Closed loop: one item after another, for ``seconds`` or for exactly
    ``items`` items; calibration samples fall between items."""
    from workloads import REJECTED
    tally = Tally()
    start = time.perf_counter()
    k = 0
    while (k < items) if items is not None else (time.perf_counter() - start < seconds):
        speed.sample_if_due()
        if tracer is not None:
            tracer.item = k
        t = time.perf_counter()
        try:
            ok = wl.item(k)
        except Exception as exc:  # a raising item is a failed item
            ok = None
            key = f"{type(exc).__name__}: {exc}"
            tally.errors[key] = tally.errors.get(key, 0) + 1
        dt = time.perf_counter() - t
        tally.attempted += 1
        if ok == REJECTED:
            tally.rejected += 1
        elif not ok:
            tally.failed += 1
            tally.wrong += ok is False
        tally.timed.append((t, dt, ok != REJECTED and bool(ok)))
        k += 1
    speed.sample()
    return tally


def _tail(latencies):
    """(value, percentile): the highest percentile with at least ten passed
    items beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _report(workload: str, tally: Tally, lines) -> None:
    for line in lines:
        print(line)
    for err, count in sorted(tally.errors.items()):
        print(f"raised {count}x {err}")
    if tally.rejected:
        print(f"rejected {tally.rejected} of {tally.attempted} items "
              f"({tally.rejected / tally.attempted:.4f}): a known limitation "
              "of the program, neither passed nor failed")


def _result(tally: Tally, metrics: dict) -> str:
    return json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run_workload(args) -> int:
    workloads = _import_program()
    import_s = time.perf_counter() - T_START
    print("environment " + json.dumps(_environment(args.seed), sort_keys=True))
    if args.trace:
        return _run_traced(args, workloads)
    setup_speed, speed = Speed(), Speed()
    wl, gen_s = _setup(workloads, args.workload, args.seed, args.tiny, setup_speed)
    try:
        tally = _loop(wl, args.seconds, args.items, speed)
        final_ok, lines = wl.finish()
    finally:
        wl.close()
    if not final_ok:
        tally.failed = tally.wrong = tally.attempted
    _report(args.workload, tally, lines)
    latencies, busy = tally.scaled(speed)
    if not final_ok or not latencies:
        print(f"error: no item of {args.workload} passed")
        print(_result(tally, {}))
        return 1
    tail, pct = _tail(latencies)
    metrics = {
        "setup_s": (setup_speed.scale() * (import_s + gen_s), "s"),
        "items_per_s": (len(latencies) / busy, "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    print(f"metric {args.workload} failed_frac {tally.failed / tally.attempted:.6g} ratio")
    print(f"info {args.workload} item_tail_ms is p{pct:.2f} of {len(latencies)} passed "
          f"items; attempted {tally.attempted}; failed {tally.failed}; rejected "
          f"{tally.rejected}; scaled_busy_s {busy!r}; busy_s {tally.busy:.4f} unscaled; "
          f"speed scale {speed.scale():.4f} median of {len(speed.took)} samples; "
          f"setup unscaled: import_s {import_s:.4f}, median generation_s {gen_s:.4f} "
          f"of {SETUP_REPEATS}, speed scale {setup_speed.scale():.4f}")
    print(_result(tally, metrics))
    return 0


def _child_busy(args, items: int) -> float:
    """Scaled busy seconds of ``items`` untraced items in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--items", str(items), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError("untraced baseline run failed")
    for line in proc.stdout.splitlines():
        if line.startswith("info ") and "scaled_busy_s " in line:
            return float(line.split("scaled_busy_s ", 1)[1].split(";", 1)[0])
    raise RuntimeError("untraced baseline run printed no busy time")


def _run_traced(args, workloads) -> int:
    from tracer import Tracer, metric_names, units
    items = TINY_TRACE_ITEMS if args.tiny else TRACE_ITEMS[args.workload]
    if args.items is not None:
        items = args.items
    untraced_busy = _child_busy(args, items)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    speed = Speed()
    tracer = Tracer()
    tracer.install()
    try:
        tally = _loop(wl, None, items, speed, tracer)
        tracer.item = -1
        final_ok, lines = wl.finish()
    finally:
        tracer.uninstall()
        wl.close()
    if not final_ok:
        tally.failed = tally.wrong = tally.attempted
    _report(args.workload, tally, lines)
    _latencies, traced_busy = tally.scaled(speed)
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
    tracer.write_spans(spans_path)
    values = tracer.metrics(getattr(wl, "exact_branches", 0),
                            traced_busy / untraced_busy - 1)
    names = metric_names()
    for name in names:
        print(f"layer {args.workload} {name} {values[name]:.6g} {units(name)}")
    print(f"info {args.workload} traced {tally.attempted} items: scaled busy "
          f"{traced_busy:.3f}s traced, {untraced_busy:.3f}s untraced; "
          f"{len(tracer.spans)} spans in {spans_path}")
    for check, share in _shares(args.workload, values, tally.busy):
        print(f"share {args.workload} {check} {share:.3f}")
    print(_result(tally, {name: (values[name], units(name)) for name in names}))
    return 0


def _shares(workload: str, values: dict, busy: float):
    """Shares of the traced item time that the design predicts per workload."""
    if workload == "compile":
        yield "symplectic.decompose.total_s/busy", values["symplectic.decompose.total_s"] / busy
    elif workload == "stabilizer_scale":
        yield ("(measure+apply_gate).total_s/busy",
               (values["stabilizer.StabilizerState.measure.total_s"]
                + values["stabilizer.StabilizerState.apply_gate.total_s"]) / busy)
    elif workload == "oracle_check":
        yield "dense.gate_matrix.self_s/busy", values["dense.gate_matrix.self_s"] / busy


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()
                                 if not line.startswith("{")))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"holdout {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int,
                        help="run exactly this many items instead of --seconds")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
