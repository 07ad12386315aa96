#!/usr/bin/env python3
"""Checks that the working tree's simulated output equals a base revision's.

    python3 scripts/sim_identity.py --base REV [--seeds 1-7]
    python3 scripts/sim_identity.py --base REV --benches

Exports REV with `git archive` into a temporary directory and builds perf/
(the optimized library copy plus the blobcr_perf driver) there and for the
working tree (into build-perf/, the directory perf/run.py uses). Then runs
every workload of BENCHMARK.json once per seed on both builds, traced:

    blobcr_perf --workload W --seed N --trace-file F

and compares the `sim`, `layers_sim`, `checks`, `attempted` and `failed`
fields of each run's final JSON line. Host-time fields are not compared.
--seeds takes ranges and lists ("1-7", "1,4,9", "1-3,9").

Prints one line per (workload, seed), then one drift line per field that
differs in any pair (the field, the number of pairs it differs in and the
least and greatest numeric change, head minus base, e.g.
"layers_sim.sim.events: 21/28 pairs, -509..-139"), then a summary line.
Exit code 0: every pair is identical; 1: some pair differs; 2: a build or a
run failed.

--benches compares the bench/ suite instead: both trees run their own
scripts/run_benches.sh in fast mode (BLOBCR_BENCH_FAST=1), each with its
build and output directories in the temporary directory, concurrently.
Every user counter of every row of every BENCH_*.json is compared, and so
is real_time on a row whose name ends in "/manual_time": such a bench
reports the simulated duration it passed to SetIterationTime there. The
host-dependent cpu_time, iterations and time_unit fields, real_time of any
other row and the JSON context are not compared. A row present on one side
only counts all of its counters as differing. Prints each difference and
the summary "N counters, M differ"; exit code 1 when M > 0, 2 on a
build/run failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARED = ("sim", "layers_sim", "checks", "attempted", "failed")
RUN_TIMEOUT_S = 600
BENCH_TIMEOUT_S = 3600
# Bench row fields that depend on the host, not on the simulation; real_time
# is simulated time on a manual-time row (MANUAL_TIME), so it is compared
# there.
HOST_FIELDS = {"real_time", "cpu_time", "iterations", "time_unit"}
MANUAL_TIME = "/manual_time"
# google-benchmark's own row bookkeeping: it names a row, it is no result.
ROW_FIELDS = {"name", "family_index", "per_family_instance_index", "run_name",
              "run_type", "repetitions", "repetition_index", "threads",
              "aggregate_name", "aggregate_unit"}
ABSENT = "<absent>"


class RunError(Exception):
    """A build or a driver run failed (not a difference in output)."""


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export_tree(rev, dest):
    """Writes the tree of git revision `rev` into the directory `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def build(tree, build_dir):
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(tree / "perf"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", jobs,
                 "--target", "blobcr_perf"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RunError("build failed: " + " ".join(cmd))
    return build_dir / "blobcr_perf"


def start(binary, workload, seed, trace_file):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace-file", str(trace_file)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def result_of(proc, label):
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{label}: exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(err)
        raise RunError(f"{label}: driver exited {proc.returncode} "
                       "without a result")
    if proc.returncode != 0 or result.get("error"):
        raise RunError(f"{label}: " + (result.get("error")
                                       or f"driver exited {proc.returncode}"))
    return result


def changes(base, head):
    """(name, base value, head value) of every compared field (or key of a
    compared map) that differs."""
    out = []
    for field in COMPARED:
        a, b = base.get(field), head.get(field)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            keys = sorted(k for k in a.keys() | b.keys()
                          if a.get(k) != b.get(k))
            out += [(f"{field}.{k}", a.get(k), b.get(k)) for k in keys]
        else:
            out.append((field, a, b))
    return out


def differences(base, head):
    """Names of the compared fields (or their keys) that differ."""
    return [f"{name}: {a} -> {b}" for name, a, b in changes(base, head)]


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _signed(x):
    return f"{x:+d}" if isinstance(x, int) else f"{x:+.6g}"


def drift_summary(pair_changes, pairs):
    """One line per field that differs in any pair: the pairs it differs in
    out of `pairs`, and the least and greatest change (head - base) over the
    pairs where both values are numbers. `pair_changes` holds one changes()
    list per differing pair."""
    by_field = {}
    for pair in pair_changes:
        for name, a, b in pair:
            by_field.setdefault(name, []).append((a, b))
    lines = []
    for name in sorted(by_field):
        values = by_field[name]
        deltas = [b - a for a, b in values if _number(a) and _number(b)]
        line = f"{name}: {len(values)}/{pairs} pairs"
        if deltas:
            line += f", {_signed(min(deltas))}..{_signed(max(deltas))}"
        if len(deltas) < len(values):
            line += f" ({len(values) - len(deltas)} not numeric)"
        lines.append(line)
    return lines


def compare_workloads(rev, seeds, base_tree, tmp):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    base_bin = build(base_tree, base_tree / "build-perf")
    head_bin = build(ROOT, ROOT / "build-perf")

    sides = (("base", base_bin), ("head", head_bin))
    pair_changes = []
    for workload in workloads:
        for seed in seeds:
            label = f"{workload} seed {seed}"
            # Both sides run at once: simulated output does not depend on
            # host timing.
            procs = [start(b, workload, seed,
                           tmp / f"{side}_{workload}_{seed}.json")
                     for side, b in sides]
            try:
                base, head = (result_of(p, f"{label} ({side})")
                              for p, (side, _) in zip(procs, sides))
            except RunError:
                for p in procs:
                    p.kill()
                    p.wait()
                raise
            diffs = changes(base, head)
            events = base["layers_sim"].get("sim.events", 0)
            print(f"{label}: {'DIFFERS' if diffs else 'identical'} "
                  f"(sim.events {events:.0f})")
            for name, a, b in diffs:
                print(f"    {name}: {a} -> {b}")
            if diffs:
                pair_changes.append(diffs)

    pairs = len(workloads) * len(seeds)
    differing = len(pair_changes)
    for line in drift_summary(pair_changes, pairs):
        print(f"drift: {line}")
    print(f"sim_identity: {pairs - differing}/{pairs} (workload, seed) pairs "
          f"identical to {rev} on {', '.join(COMPARED)}")
    return 1 if differing else 0


def counters_of(row):
    """The simulated values of a bench row: its user counters, plus
    real_time on a manual-time row."""
    manual = row["name"].endswith(MANUAL_TIME)
    return {k: v for k, v in row.items()
            if k not in ROW_FIELDS
            and (k not in HOST_FIELDS or (manual and k == "real_time"))}


def bench_rows(out_dir):
    """{(file name, row name): row} over every BENCH_*.json in out_dir."""
    rows = {}
    for path in sorted(Path(out_dir).glob("BENCH_*.json")):
        for row in json.loads(path.read_text()).get("benchmarks", []):
            rows[(path.name, row["name"])] = row
    return rows


def bench_differences(base, head):
    """Compares two bench_rows() maps counter by counter.

    Returns (counters compared, counters differing, one line per
    difference). A row on one side only differs in every counter it has
    (at least one).
    """
    compared = differing = 0
    lines = []
    for key in sorted(base.keys() | head.keys()):
        label = " ".join(key)
        if key not in base or key not in head:
            side = "base" if key in base else "head"
            n = max(1, len(counters_of(base.get(key) or head[key])))
            compared += n
            differing += n
            lines.append(f"{label}: row only in {side} ({n} counters)")
            continue
        a, b = counters_of(base[key]), counters_of(head[key])
        for field in sorted(a.keys() | b.keys()):
            compared += 1
            va, vb = a.get(field, ABSENT), b.get(field, ABSENT)
            if va != vb:
                differing += 1
                lines.append(f"{label} {field}: {va} -> {vb}")
    return compared, differing, lines


def start_benches(tree, work):
    """Starts tree's run_benches.sh in fast mode with its build and output
    directories under `work`."""
    work.mkdir()
    env = dict(os.environ, BLOBCR_BENCH_FAST="1",
               BUILD_DIR=str(work / "build"), OUT_DIR=str(work / "out"))
    log = open(work / "run.log", "w")
    proc = subprocess.Popen(["bash", str(tree / "scripts" / "run_benches.sh")],
                            env=env, stdout=log, stderr=subprocess.STDOUT)
    log.close()
    return proc


def compare_benches(rev, base_tree, tmp):
    sides = {"base": base_tree, "head": ROOT}
    procs = {side: start_benches(tree, tmp / side)
             for side, tree in sides.items()}
    failed = []
    for side, proc in procs.items():
        try:
            code = proc.wait(timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        if code != 0:
            failed.append(side)
            log = (tmp / side / "run.log").read_text().splitlines()
            sys.stderr.write("\n".join(log[-30:]) + "\n")
    if failed:
        raise RunError("run_benches.sh failed for " + ", ".join(failed))

    base_rows = bench_rows(tmp / "base" / "out")
    head_rows = bench_rows(tmp / "head" / "out")
    if not base_rows or not head_rows:
        raise RunError("run_benches.sh wrote no bench rows")
    compared, differing, lines = bench_differences(base_rows, head_rows)
    for line in lines:
        print(f"    {line}")
    files = len({name for name, _ in head_rows})
    manual = sum(row.endswith(MANUAL_TIME) for _, row in head_rows)
    print(f"sim_identity: {compared} counters, {differing} differ "
          f"({len(head_rows)} rows of {files} fast-mode benches, real_time "
          f"of {manual} manual-time rows included, vs {rev})")
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--seeds", default="1-7",
                        help="seed ranges/list (default 1-7)")
    parser.add_argument("--benches", action="store_true",
                        help="compare every counter of the fast-mode "
                             "bench/ suite instead of the perf/ workloads")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="sim_identity_") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base_tree"
        base_tree.mkdir()
        try:
            export_tree(args.base, base_tree)
            if args.benches:
                return compare_benches(args.base, base_tree, tmp)
            return compare_workloads(args.base, parse_seeds(args.seeds),
                                     base_tree, tmp)
        except (subprocess.CalledProcessError, RunError) as e:
            print(f"sim_identity: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
