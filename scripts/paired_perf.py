#!/usr/bin/env python3
"""Paired same-seed host-time comparison of the working tree against a base.

    python3 scripts/paired_perf.py --base REV [--workloads W,...]
                                   [--seeds 11-20] [--seconds S]

Exports REV with `git archive` into a temporary directory and builds perf/
there and in the working tree (sim_identity.py's helpers). Then, for every
workload (default: all of BENCHMARK.json) and every seed, runs

    python3 perf/run.py --workload W --seed N --seconds S

once in each tree, one at a time, alternating which side goes first from
one pair to the next. --seconds defaults to BENCHMARK.json's run_seconds;
--seeds takes ranges and lists ("11-20", "4242", "1-3,9").

Both sides of a pair use the same seed, so every simulated metric must be
identical; only host metrics may differ. For each workload and each host
metric (host_wall_s, setup_s, peak_rss_mb; lower is better) it prints the
base median [Q1-Q3], the change median, the pairs the change won (ties
count for neither) and whether the gain rule of perf/README.md holds: at
least 9 in 10 pairs won, and the medians further apart than the base's
quartile spread.

Exit code 0: every pair ran with identical simulated metrics and both sides
correct; 1: some pair's simulated metrics differ or a side was not
correct; 2: a build or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import sim_identity  # noqa: E402

ROOT = sim_identity.ROOT
HOST_METRICS = ("host_wall_s", "setup_s", "peak_rss_mb")
# perf/run.py stops adding iterations at 150 s; leave room for the build.
RUN_TIMEOUT_S = 900


def first_side(pair_index):
    """Which side runs first in the pair: alternates, base first."""
    return "base" if pair_index % 2 == 0 else "change"


def summary(values):
    """(first quartile, median, third quartile) of a list of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs_won(base, change):
    """Pairs in which the change read lower than the base; ties count for
    neither side."""
    return sum(1 for b, c in zip(base, change) if c < b)


def verdict(base, change):
    """Compares one host metric over the pairs (lower is better).

    Returns a dict with the base quartiles and median, the change median,
    the pairs won and whether the gain rule holds: the change wins at least
    9 in 10 pairs and its median is lower than the base's by more than the
    base's quartile spread.
    """
    q1, base_median, q3 = summary(base)
    change_median = summary(change)[1]
    won = pairs_won(base, change)
    holds = (10 * won >= 9 * len(base)
             and base_median - change_median > q3 - q1)
    return {"base_median": base_median, "base_q1": q1, "base_q3": q3,
            "change_median": change_median, "won": won, "pairs": len(base),
            "holds": holds}


def simulated_differences(base, change):
    """Names of the non-host metrics whose values differ between the sides."""
    names = (base.keys() | change.keys()) - set(HOST_METRICS)
    return sorted(n for n in names if base.get(n) != change.get(n))


def format_verdict(workload, metric, v):
    base = v["base_median"]
    delta = (v["change_median"] / base - 1.0) * 100.0 if base else 0.0
    return (f"{workload} {metric}: base {base:.4g} "
            f"[{v['base_q1']:.4g}-{v['base_q3']:.4g}] -> change "
            f"{v['change_median']:.4g} ({delta:+.1f}%), won "
            f"{v['won']}/{v['pairs']}, gain rule "
            f"{'holds' if v['holds'] else 'does not hold'}")


def run_side(tree, workload, seed, seconds):
    """One perf/run.py measurement; returns its final JSON object."""
    cmd = [sys.executable, str(tree / "perf" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    label = f"{workload} seed {seed} in {tree}"
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise sim_identity.RunError(f"{label}: exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise sim_identity.RunError(f"{label}: perf/run.py exited "
                                    f"{proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise sim_identity.RunError(f"{label}: no JSON result line")


def compare(trees, workloads, seeds, seconds):
    problems = 0
    for workload in workloads:
        host = {side: {m: [] for m in HOST_METRICS} for side in trees}
        for i, seed in enumerate(seeds):
            order = [first_side(i)] + [s for s in trees if s != first_side(i)]
            results = {side: run_side(trees[side], workload, seed, seconds)
                       for side in order}
            values = {side: {k: v["value"] for k, v in r["metrics"].items()}
                      for side, r in results.items()}
            diffs = simulated_differences(values["base"], values["change"])
            wrong = [s for s in trees if not results[s].get("correct")]
            problems += bool(diffs or wrong)
            for side in trees:
                for m in HOST_METRICS:
                    host[side][m].append(values[side][m])
            line = f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m} {values['base'][m]:.4g} -> {values['change'][m]:.4g}"
                for m in HOST_METRICS)
            line += "; simulated " + ("DIFFERS: " + ", ".join(diffs)
                                      if diffs else "identical")
            if wrong:
                line += "; not correct: " + ", ".join(wrong)
            print(line, flush=True)
        for m in HOST_METRICS:
            print(format_verdict(workload, m,
                                 verdict(host["base"][m], host["change"][m])),
                  flush=True)
    return 1 if problems else 0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--seeds", default="11-20",
                        help="seed ranges/list, one pair per seed "
                             "(default 11-20)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="perf/run.py --seconds for every run "
                             "(default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from "
                     f"{', '.join(names)}")

    with tempfile.TemporaryDirectory(prefix="paired_perf_") as tmp:
        base_tree = Path(tmp) / "base_tree"
        base_tree.mkdir()
        trees = {"base": base_tree, "change": ROOT}
        try:
            sim_identity.export_tree(args.base, base_tree)
            # Build both sides before any timing: perf/run.py then finds
            # blobcr_perf up to date.
            for tree in trees.values():
                sim_identity.build(tree, tree / "build-perf")
            return compare(trees, workloads,
                           sim_identity.parse_seeds(args.seeds), args.seconds)
        except (subprocess.CalledProcessError, sim_identity.RunError) as e:
            print(f"paired_perf: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
