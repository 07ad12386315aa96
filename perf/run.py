#!/usr/bin/env python3
"""Repository benchmark for the BlobCR simulator.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1] [--repeat N]

Builds perf/ (an optimized copy of the library plus the blobcr_perf driver)
into build-perf/, then runs each workload as a series of single-threaded
iterations, one process each, for --seconds per workload (at least two
iterations; the default is run_seconds from BENCHMARK.json). Every iteration
builds a fresh Cloud from the same seed, so every simulated metric must
repeat exactly; host metrics are medians.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced iterations, reports the per-layer metrics,
writes a Chrome trace-event file per workload to build-perf/ and reports the
tracing overhead on host_wall_s. Human-readable tables go first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when a self-check, a restore verification, the stage
timestamp check or the determinism check fails, and 2 when the benchmark
cannot be built or run at all (then nothing is printed on standard output).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "blobcr_perf"

# One measured run (one workload, or one workload of --repeat) must end
# within 180 s: one iteration has to end well inside that, and no iteration
# is added, even below the minimum, once the run would pass RUN_CAP_S.
ITERATION_TIMEOUT_S = 170
RUN_CAP_S = 150
MIN_ITERATIONS = 2


class BenchError(Exception):
    """The benchmark could not be built or run (not a wrong result)."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    if not (ROOT / "src" / "core" / "cloud.h").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "blobcr_perf"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def run_iteration(workload, seed, trace_file):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: iteration exceeded {ITERATION_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: driver exited {proc.returncode} "
                         "without a result")
    if proc.returncode != 0 and not result.get("error"):
        result["error"] = f"driver exited {proc.returncode}"
    return result


def measure(workload, seed, seconds, trace):
    """Runs iterations of one workload; returns the list of results."""
    results = []
    start = time.monotonic()
    while True:
        traced = trace and len(results) % 2 == 1
        trace_file = BUILD / f"trace_{workload}_seed{seed}.json" if traced else None
        results.append(run_iteration(workload, seed, trace_file))
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(results)
        if next_end > RUN_CAP_S and len(results) >= 2:
            break
        if len(results) >= MIN_ITERATIONS and next_end > seconds:
            break
    return results


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload, seed, results, spec):
    """Aggregates one workload's iterations into reported metrics."""
    problems = []
    for i, r in enumerate(results):
        if r.get("error"):
            problems.append(f"iteration {i}: {r['error']}")
        for check, ok in r["checks"].items():
            if not ok:
                problems.append(f"iteration {i}: self-check {check} failed")
    # An iteration that threw has no metrics: leave it out of every value.
    good = [r for r in results if not r.get("error")]
    ref = good[0] if good else results[0]
    for i, r in enumerate(good[1:], 1):
        for group in ("sim", "layers_sim"):
            if r[group] != ref[group]:
                problems.append(f"iteration {i}: simulated metrics differ from "
                                "the first iteration of the same seed")
                break

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    host = {k: median([r["host"][k] for r in untraced])
            for k in ("setup_s", "host_wall_s", "peak_rss_mb")}
    e2e = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in host:
            e2e[name] = (host[name], "host")
        elif name in ref["sim"]:
            e2e[name] = (ref["sim"][name], "sim")
        else:
            problems.append(f"metric {name} not produced")
    layers = {}
    if traced:
        for k, v in ref["layers_sim"].items():
            layers[k] = (v, "sim")
        for k in traced[0]["layers_host"]:
            values = [r["layers_host"][k] for r in traced if k in r["layers_host"]]
            layers[k] = (median(values), "host")
        wall_traced = median([r["host"]["host_wall_s"] for r in traced])
        if untraced:
            layers["trace.overhead_pct"] = (
                (wall_traced / host["host_wall_s"] - 1.0) * 100.0, "host")
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                problems.append(f"metric {m['name']} not produced")

    return {
        "workload": workload,
        "seed": seed,
        "iterations": len(results),
        "traced_iterations": len(traced),
        "build": ref["build"],
        "sim_details": ref["sim"],
        "checks": ref["checks"],
        "e2e": e2e,
        "layers": layers,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "problems": problems,
    }


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_summary(s, spec, trace):
    b = s["build"]
    print(f"== {s['workload']}  seed {s['seed']}  iterations {s['iterations']}"
          f" ({s['traced_iterations']} traced)  nproc {os.cpu_count()}")
    print(f"   build {b['type']} [{b['cxx_flags'].strip()}] {b['compiler']}")
    u = units(spec)
    rows = [(m["name"],) + s["e2e"][m["name"]] for m in spec["end_to_end"]
            if m["name"] in s["e2e"]]
    if trace:
        rows += [(m["name"],) + s["layers"][m["name"]] for m in spec["per_layer"]
                 if m["name"] in s["layers"]]
    for name, value, clock in rows:
        print(f"   {name:34s} {value:16.6f} {u[name]:6s} {clock}")
    details = s["sim_details"]
    extra = sorted(k for k in details if k not in s["e2e"])
    print("   details: " + ", ".join(f"{k}={details[k]:.6g}" for k in extra))
    if trace:
        others = sorted(k for k in s["layers"] if k not in u)
        print("   layers: " + ", ".join(
            f"{k}={s['layers'][k][0]:.6g}" for k in others))
    print("   self-checks: " + ", ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in s["checks"].items()))
    print(f"   ops: {s['attempted']} attempted, {s['failed']} failed")
    for p in s["problems"]:
        print(f"   PROBLEM: {p}")


def combine_repeats(workload, summaries, spec):
    """--repeat: medians and quartiles across repeats; simulated metrics
    must not differ at all, host spreads are flagged against the bounds."""
    out = dict(summaries[0])
    out["problems"] = [p for s in summaries for p in s["problems"]]
    out["attempted"] = sum(s["attempted"] for s in summaries)
    out["failed"] = sum(s["failed"] for s in summaries)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for group in ("e2e", "layers"):
        merged = {}
        for name, (_, clock) in summaries[0][group].items():
            values = [s[group][name][0] for s in summaries if name in s[group]]
            if len(values) < len(summaries):
                continue  # already reported as "not produced"
            if clock == "sim" and len(set(values)) > 1:
                out["problems"].append(
                    f"{name} differs between repeats: {values}")
            q = statistics.quantiles(values, n=4)
            med = median(values)
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"   {workload} {name:34s} median {med:.6g}  "
                  f"quartiles {q[0]:.6g} .. {q[2]:.6g}  spread {spread:.2%}")
            bound = bounds.get(name)
            if clock == "host" and bound is not None and spread > bound:
                print(f"   FLAG: {workload} {name} spread {spread:.2%} exceeds "
                      f"its bound {bound:.0%}")
            merged[name] = (med, clock)
        out[group] = merged
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; "
                             f"choose from {', '.join(names)}")
        build()
        summaries = []
        for workload in [args.workload] if args.workload else names:
            runs = []
            for _ in range(max(1, args.repeat)):
                results = measure(workload, args.seed, seconds, args.trace)
                runs.append(summarize(workload, args.seed, results, spec))
                print_summary(runs[-1], spec, args.trace)
            summaries.append(runs[0] if len(runs) == 1 else
                             combine_repeats(workload, runs, spec))
    except BenchError as e:
        print(f"perf/run.py: {e}", file=sys.stderr)
        return 2

    group = "layers" if args.trace else "e2e"
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for s in summaries:
        prefix = "" if args.workload else s["workload"] + "/"
        for m in wanted:
            if m["name"] in s[group]:
                metrics[prefix + m["name"]] = {"value": s[group][m["name"]][0],
                                               "unit": m["unit"]}
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and not any(s["problems"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
