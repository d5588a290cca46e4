"""Steadiness check: run each workload repeatedly, each run with another
seed, and report per end-to-end metric the median, the quartiles and the
spread (interquartile distance over the median) against its bound in
BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --first-seed 100
    python3 perfbench/steady.py --workload shots --runs 5

Run from the root of a checkout.  Runs go one at a time, so they do not
compete for the cores.  Raw results are written to
.perfbench-out/steady-<first seed>.json.  With ``--sets 2`` the same seeds
run twice and the second set's median is compared with the first's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output")
    return result


def summarize(spec: dict, workload: str, runs: list, base: list | None = None) -> bool:
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if name == "setup_s" or spread < bound / 3 else \
            "WIDE" if spread < bound else "FAIL"
        line = (f"{workload:17s} {name:13s} median {med:10.4f} q1 {q1:10.4f} "
                f"q3 {q3:10.4f} spread {spread:6.3f} bound {bound:5.2f} {verdict}")
        if base is not None:
            first = statistics.median(r["metrics"][name]["value"] for r in base)
            change = (med - first) / first
            worse = change if metric["better"] == "lower" else -change
            line += f"  vs first set {change:+.3f}" + (" FAIL" if worse > bound else "")
            steady &= worse <= bound
        steady &= verdict != "FAIL"
        print(line, flush=True)
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    raw: dict = {}
    steady = True
    for workload in names:
        sets = []
        for _ in range(args.sets):
            sets.append([one_run(spec, workload, seed) for seed in seeds])
            steady &= summarize(spec, workload, sets[-1], sets[0] if len(sets) > 1 else None)
        raw[workload] = sets
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"steady-{args.first_seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
