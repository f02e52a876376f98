#!/usr/bin/env python3
"""Steadiness self-test of the benchmark.

    python3 perfbench/steady.py                   # about 45 min
    python3 perfbench/steady.py --write-baseline  # also rewrite baseline.json

Runs the command of BENCHMARK.json untraced on seeds 1..10 for every
workload, in two sets, interleaving workloads.  For each end-to-end metric it
reports the spread of each set (distance between the first and third
quartile as a share of the median) and how far the second set's median moved
from the first, in either direction.  A metric passes when both spreads and
the size of the median move stay within the metric's bound; the target for a
spread is a third of the bound.  It then runs every workload traced twice on
seed 1 and requires the deterministic counts to repeat exactly.  The exit
code is 0 only when everything passes.  A summary goes to results/steady.json;
--write-baseline also records the environment and the medians in
baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import DETERMINISTIC  # noqa: E402

SEEDS = list(range(1, 11))
SETS = 2


def run_bench(bench, workload, seed, trace) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: failed (exit {proc.returncode})")
    print(f"  {workload:12s} seed {seed:4d} trace {trace}: {elapsed:6.1f} s  "
          + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                      if trace == 0), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    sets = []
    for s in range(SETS):
        print(f"set {s + 1}: seeds {SEEDS[0]}..{SEEDS[-1]}", flush=True)
        runs = {name: [] for name in names}
        for seed in SEEDS:
            for name in names:
                runs[name].append(run_bench(bench, name, seed, 0))
        sets.append(runs)

    ok = True
    report = {}
    for name in names:
        report[name] = {}
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            entry = {"bound": bound}
            for i, runs in enumerate(sets):
                vals = [r[metric] for r in runs[name]]
                entry[f"set{i + 1}"] = {"median": statistics.median(vals),
                                        "spread": spread(vals)}
            worst = max(entry[f"set{i + 1}"]["spread"] for i in range(SETS))
            entry["spread_ok"] = worst <= bound
            entry["spread_under_third"] = worst <= bound / 3.0
            a, b = entry["set1"]["median"], entry["set2"]["median"]
            entry["median_move"] = (b - a) / a  # signed; + is larger in set 2
            entry["move_ok"] = abs(entry["median_move"]) <= bound
            passed = entry["spread_ok"] and entry["move_ok"]
            ok = ok and passed
            print(f"{name:12s} {metric:13s} bound {bound:.2f}  spread "
                  + " / ".join(f"{entry[f'set{i + 1}']['spread']:.4f}" for i in range(SETS))
                  + f"  median move {entry['median_move']:+.4f}"
                  + ("" if entry["spread_under_third"] else "  (spread above a third of the bound)")
                  + ("" if passed else "  FAIL"))
            report[name][metric] = entry

    traced = {}
    counts_ok = True
    for name in names:
        first, second = (run_bench(bench, name, SEEDS[0], 1) for _ in range(2))
        same = {k: first[k] == second[k] for k in DETERMINISTIC}
        counts_ok = counts_ok and all(same.values())
        print(f"{name:12s} deterministic counts repeat: "
              + ", ".join(f"{k}={first[k]}{'' if same[k] else ' vs ' + str(second[k])}"
                          for k in DETERMINISTIC))
        traced[name] = first
    report["deterministic_counts_repeat"] = counts_ok
    ok = ok and counts_ok

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w") as fh:
        json.dump({"seeds": SEEDS, "report": report, "sets": sets, "traced": traced},
                  fh, indent=2)
    if args.write_baseline:
        write_baseline(bench, names, sets[0], traced)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def write_baseline(bench, names, runs, traced):
    import numpy
    import scipy

    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True)
        except OSError:
            return None
        return out.stdout.strip() or None

    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    from run import THREAD_CAPS
    baseline = {
        "environment": {
            "commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "thread_caps": THREAD_CAPS,
            "run_seconds": bench["run_seconds"], "seeds": SEEDS,
        },
        "end_to_end": {name: {m["name"]: {"median": statistics.median(r[m["name"]] for r in runs[name]),
                                          "spread": spread([r[m["name"]] for r in runs[name]]),
                                          "unit": m["unit"]}
                              for m in bench["end_to_end"]} for name in names},
        "per_layer": {name: {"seed": SEEDS[0], **traced[name]} for name in names},
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
