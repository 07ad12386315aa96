#!/usr/bin/env python3
"""Checks that the working tree's simulated output equals a base revision's.

    python3 scripts/sim_identity.py --base REV [--seeds 1-7]

Exports REV with `git archive` into a temporary directory and builds perf/
(the optimized library copy plus the blobcr_perf driver) there and for the
working tree (into build-perf/, the directory perf/run.py uses). Then runs
every workload of BENCHMARK.json once per seed on both builds, traced:

    blobcr_perf --workload W --seed N --trace-file F

and compares the `sim`, `layers_sim`, `checks`, `attempted` and `failed`
fields of each run's final JSON line. Host-time fields are not compared.
--seeds takes ranges and lists ("1-7", "1,4,9", "1-3,9").

Prints one line per (workload, seed) and a summary line. Exit code 0: every
pair is identical; 1: some pair differs; 2: a build or a run failed.
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


class RunError(Exception):
    """A build or a driver run failed (not a difference in output)."""


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


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


def differences(base, head):
    """Names of the compared fields (or their keys) that differ."""
    diffs = []
    for field in COMPARED:
        a, b = base.get(field), head.get(field)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            keys = sorted(k for k in a.keys() | b.keys()
                          if a.get(k) != b.get(k))
            diffs += [f"{field}.{k}: {a.get(k)} -> {b.get(k)}" for k in keys]
        else:
            diffs.append(f"{field}: {a} -> {b}")
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--seeds", default="1-7",
                        help="seed ranges/list (default 1-7)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    with tempfile.TemporaryDirectory(prefix="sim_identity_") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base"
        base_tree.mkdir()
        try:
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", args.base],
                stdout=subprocess.PIPE, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                           check=True)
            base_bin = build(base_tree, base_tree / "build-perf")
            head_bin = build(ROOT, ROOT / "build-perf")
        except (subprocess.CalledProcessError, RunError) as e:
            print(f"sim_identity: {e}", file=sys.stderr)
            return 2

        sides = (("base", base_bin), ("head", head_bin))
        differing = 0
        for workload in workloads:
            for seed in seeds:
                label = f"{workload} seed {seed}"
                # Both sides run at once: simulated output does not depend
                # on host timing.
                procs = [start(b, workload, seed,
                               tmp / f"{side}_{workload}_{seed}.json")
                         for side, b in sides]
                try:
                    base, head = (result_of(p, f"{label} ({side})")
                                  for p, (side, _) in zip(procs, sides))
                except RunError as e:
                    for p in procs:
                        p.kill()
                        p.wait()
                    print(f"sim_identity: {e}", file=sys.stderr)
                    return 2
                diffs = differences(base, head)
                events = base["layers_sim"].get("sim.events", 0)
                print(f"{label}: {'DIFFERS' if diffs else 'identical'} "
                      f"(sim.events {events:.0f})")
                for d in diffs:
                    print(f"    {d}")
                differing += bool(diffs)

    pairs = len(workloads) * len(seeds)
    print(f"sim_identity: {pairs - differing}/{pairs} (workload, seed) pairs "
          f"identical to {args.base} on {', '.join(COMPARED)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
