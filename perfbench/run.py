#!/usr/bin/env python3
"""nlfront benchmark.

    python3 perfbench/run.py --workload stepping --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py                    # every workload, one process each

One workload runs in this process: its inputs come from --seed, it repeats
its cycle of calls into nlfront (closed loop, one client) until --seconds
have passed, checks every output, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
Without --workload every workload runs in its own fresh interpreter.

The package is imported from `src/` next to this directory; no install is
needed and nothing is built.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread, set before numpy loads (see README)
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; omit to run all, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 is nominal")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long to repeat the workload's cycle")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlfront", "cli.py")):
        print(f"error: no nlfront sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_one(args)


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import nlfront.cli  # noqa: F401  (import cost is setup_s, not wall_s)
    from nlfront import __file__ as pkg_file
    if not os.path.abspath(pkg_file).startswith(SRC + os.sep):
        print(f"error: nlfront was imported from {pkg_file}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import make_inputs

    inputs = make_inputs(args.workload, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for part, inp in inputs.items():
            if "config" in inp:
                inp["config_path"] = os.path.join(workdir, f"{part}.json")
                with open(inp["config_path"], "w") as fh:
                    json.dump(inp["config"], fh)
        tracer = tracing.Tracer() if args.trace else None
        cycles, setup = measure(inputs, workdir, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    # bench-level checks: every cycle reproduces cycle 0's outputs byte for
    # byte (traced or not), and traced cycles repeat the deterministic counts
    checks = [(c["digest"] == cycles[0]["digest"],
               f"cycle {k}: {'traced' if c['traced'] else 'repeated'} outputs differ "
               "from cycle 0's") for k, c in enumerate(cycles) if k]
    if tracer is not None:
        checks += count_checks([c["layers"] for c in cycles if c["traced"]])
    failures = [f for c in cycles for f in c["failures"]] + [m for ok, m in checks if not ok]
    attempted = sum(c["attempted"] for c in cycles) + len(checks)
    failed = sum(c["failed"] for c in cycles) + sum(not ok for ok, _ in checks)

    untraced = [c for c in cycles if not c["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(cycles)} cycles in "
          f"{sum(c['wall_s'] for c in cycles):.1f} s, {attempted} operations, {failed} failed")
    for f in failures:
        print(f"FAILED {f}")
    if tracer is None:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {"wall_s": [c["wall_s"] for c in untraced],
                   "setup_s": setup,
                   "cpu_s": [c["cpu_s"] for c in untraced],
                   "peak_rss_mib": [rss_mib]}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(describe(name, unit, samples[name]))
        print("cycle wall_s: " + " ".join(f"{v:.3f}" for v in samples["wall_s"]))
        print(f"error_rate = {failed / attempted:.4g} ({failed} of {attempted} operations)")
    else:
        traced = [c for c in cycles if c["traced"]]
        overhead = (statistics.median(c["wall_s"] for c in traced)
                    - statistics.median(c["wall_s"] for c in untraced))
        values = tracing.summarize([c["layers"] for c in traced], overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        for name, unit, _ in tracing.PER_LAYER:
            note = "" if values[name] else "   (reads 0 on this workload)"
            print(f"{name:40s} {values[name]:>14.6g} {unit}{note}")
        print(f"median over {len(traced)} traced cycles; overhead against "
              f"{len(untraced)} untraced cycles")
        write_spans(args, tracer)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def measure(inputs, workdir, args, tracer) -> tuple[list[dict], list[float]]:
    """Closed loop: one cycle at a time until the time is up.

    An untraced run times one fresh-interpreter import (setup_s) before each
    cycle, so its setup samples span the run as its cycles do and see the
    same mix of host speeds.  Another round starts only while at least half
    of the last round's duration remains, so a run overshoots --seconds by at
    most about half a round.  A traced run takes no setup samples; it
    alternates untraced and traced cycles, so the overhead and the
    byte-identity of outputs are measured within the same process.
    """
    from workloads import Ops, run_cycle

    cycles, setup = [], []
    deadline = perf_counter() + args.seconds
    min_cycles = 2 if tracer is not None else 1
    last_round = 0.0
    while len(cycles) < min_cycles or perf_counter() + 0.5 * last_round < deadline:
        round_start = perf_counter()
        if tracer is None:
            setup.append(time_setup())
        k = len(cycles)
        traced = tracer is not None and k % 2 == 1
        ops = Ops(workdir, args.seed)
        if traced:
            tracer.install()
            tracer.begin_cycle()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        try:
            run_cycle(args.workload, inputs, ops, k)
        finally:
            t1 = perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if traced:
                tracer.uninstall()
        cycles.append({
            "traced": traced, "wall_s": t1 - t0,
            "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
            "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
            "digest": ops.digest(),
            "layers": tracer.cycle_metrics(ops.artifact_bytes) if traced else None,
        })
        for name in os.listdir(workdir):
            if os.path.isdir(os.path.join(workdir, name)):
                shutil.rmtree(os.path.join(workdir, name))
        last_round = perf_counter() - round_start
    return cycles, setup


def time_setup() -> float:
    """Seconds for a fresh interpreter to import nlfront.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import nlfront.cli"], env=env, cwd=ROOT,
                   check=True)
    return perf_counter() - t0


def count_checks(layer_cycles) -> list[tuple[bool, str]]:
    from tracing import DETERMINISTIC
    return [(len({c[name] for c in layer_cycles}) == 1,
             f"traced count {name} differs between cycles: "
             f"{sorted({c[name] for c in layer_cycles})}") for name in DETERMINISTIC]


def describe(name, unit, values) -> str:
    """Median, maximum (the only percentile a run's few samples support) and n."""
    return (f"{name:14s} median {statistics.median(values):.6g} {unit}, "
            f"max {max(values):.6g} {unit} (n = {len(values)})")


def write_spans(args, tracer):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.span_records()}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


# ---------------------------------------------------------------------------
# every workload, one fresh interpreter each
# ---------------------------------------------------------------------------


def run_all(args, names) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    codes = []
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        codes.append(proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED workload {name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(merged))
    return 0 if merged["correct"] and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())
