#!/usr/bin/env python3
"""Compare fresh fast-mode bench JSON against the bench-results/ baselines.

The CI release leg runs the restart-path AND commit-path benches under
BLOBCR_BENCH_FAST=1 and calls this script; the build fails when restart
makespan, repository-bytes-fetched, shipped snapshot bytes, the
per-approach snapshot sizes of Fig 4 / Table 1 (qcow baselines included),
commit blocked-time, the multi-tenant headline metrics or the bytes snapshot GC
reclaims regress beyond the tolerance band, or when a bit-exactness / invariant check (the `verified`
counter) flips to 0.

Both sides are *simulated* results, so run-to-run noise is zero for an
unchanged binary; the tolerance band only absorbs intentional modeling
churn between PRs. Regressions are one-sided: getting faster / fetching
fewer repository bytes never fails the gate (but refresh the baselines so
the improvement is locked in). Throughput-style counters gate the other
way (HIGHER_IS_BETTER): dropping below (1 - tolerance) x baseline fails,
gaining never does.

A counter present in a baseline row but absent from the fresh row is an
ERROR, not a skip: the bench silently stopped emitting a gated metric,
which would otherwise drop it from coverage forever. Remove it from the
committed baseline deliberately when retiring a counter.

When $GITHUB_STEP_SUMMARY is set (or --summary FILE is given) a per-counter
markdown delta table — current vs baseline, allowed band, verdict — is
appended there for the Actions run page.

Usage:
  check_bench.py --fresh DIR [--baseline bench-results] [--tolerance 0.25]
                 [--file BENCH_foo.json ...] [--summary FILE]

Exit status: 0 = no regressions, 1 = regression or missing inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# Gated metrics: benchmark-local counter name -> (pretty label, absolute
# slack below which differences are ignored).
GATED_COUNTERS = {
    # Restart path.
    "restart_s": ("restart makespan [s]", 0.05),
    "repo_mb_per_inst": ("repo bytes fetched [MB/inst]", 0.5),
    # Commit path.
    "blocked_s": ("commit blocked time [s]", 0.02),
    "snap_MB_per_vm": ("snapshot shipped [MB/VM]", 0.5),
    # Per-approach snapshot size (Fig 4 / Table 1), the qcow baselines'
    # shipped container bytes included.
    "snapshot_MB_per_vm": ("snapshot size [MB/VM]", 0.5),
    "repo_MB": ("repository growth [MB]", 2.0),
    # Multi-tenant repository.
    "repo_mb_per_job": ("repository bytes shipped [MB/job]", 0.5),
    "blocked_p95_s": ("p95 commit blocked time [s]", 0.02),
    # Redundancy tier: repository scavenge duration after a full outage.
    # (repo_mb_per_inst above also gates the parity restart path, and the
    # `verified` flip check covers the strictly-fewer-repo-bytes inequality
    # and the bit-exact post-scavenge restart.)
    "rebuild_s": ("repository scavenge rebuild [s]", 0.05),
    # Elastic (N -> M) restart: cold shrink rescale makespan.
    # (repo_mb_per_inst above also gates the rescale's repository pull, and
    # `verified` covers the union digest check + M-tuple catalog invariant.)
    "rescale_restart_s": ("elastic rescale restart makespan [s]", 0.05),
    # Sharded metadata plane: per-tenant commit completion under tenant
    # scale. (`verified` covers the sharded-vs-single p95 and throughput
    # inequalities plus bit-exact sampled restores.)
    "commit_p95_s": ("p95 commit completion [s]", 0.02),
    # Federation: zone-loss restart makespan (restart + warm working set
    # from surviving zones) and total cross-zone WAN traffic. (`verified`
    # covers the hot-beats-floor inequality and bit-exact restores.)
    "zone_loss_restart_s": ("zone-loss restart makespan [s]", 0.05),
    "cross_zone_mb": ("federation cross-zone traffic [MB]", 0.5),
    # End-to-end QoS: the small tenant's tail latency on the commit and
    # restart paths under a bulk mass-rollback storm. (`verified` covers the
    # fair-beats-FIFO inequality on both axes at equal gate capacity.)
    "small_job_p99_commit_s": ("small-job p99 commit blocked [s]", 0.02),
    "small_job_p99_restart_s": ("small-job p99 restart [s]", 0.05),
}
# Throughput-style metrics gate one-sided the OTHER way: the fresh value
# must not drop below (1 - tolerance) x baseline - slack. Getting faster
# never fails.
HIGHER_IS_BETTER = {
    # Sharded metadata plane: digest-index lookups served per second of
    # repository makespan.
    "index_lookups_per_s": ("index lookup throughput [1/s]", 100.0),
    # Federation: hot-chunk replication's zone-loss restart speedup over
    # floor-only replication at the same zone count.
    "zone_loss_speedup": ("zone-loss hot-replication speedup [x]", 0.05),
    # Snapshot GC: repository bytes one retention pass reclaims (the one
    # bench that runs GarbageCollector::collect end to end). A GC that
    # stops reclaiming fails; the slack covers rows that reclaim nothing.
    "reclaimed_MB": ("GC reclaimed bytes [MB]", 0.5),
}
# Default file set: the restart- and commit-path benches the gate protects.
DEFAULT_FILES = [
    "BENCH_fig3_restart_scaling.json",
    "BENCH_ablation_prefetch.json",
    "BENCH_fig2_checkpoint_scaling.json",
    "BENCH_fig5_successive_checkpoints.json",
    "BENCH_ablation_async_flush.json",
    "BENCH_ablation_multitenant.json",
    "BENCH_ablation_redundancy.json",
    "BENCH_ablation_elastic.json",
    "BENCH_ablation_shard_sweep.json",
    "BENCH_ablation_federation.json",
    "BENCH_ablation_qos_e2e.json",
    "BENCH_ablation_gc.json",
    "BENCH_fig4_snapshot_size.json",
    "BENCH_fig6_cm1_checkpoint.json",
    "BENCH_table1_cm1_snapshot_size.json",
]


def load_benchmarks(path):
    """name -> {metric: value} for one google-benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        metrics = {}
        keys = list(GATED_COUNTERS) + list(HIGHER_IS_BETTER)
        for key in keys + ["verified", "real_time"]:
            if key in b:
                metrics[key] = float(b[key])
        out[b["name"]] = metrics
    return out


def format_summary(rows):
    """Markdown delta table for $GITHUB_STEP_SUMMARY."""
    lines = [
        "### Bench regression gate",
        "",
        "| file | benchmark | counter | baseline | current | delta | "
        "allowed | verdict |",
        "|---|---|---|---:|---:|---:|---:|---|",
    ]
    for fname, name, label, b, f, limit, ok in rows:
        missing = f != f  # NaN: counter vanished from the fresh run
        cur = "—" if missing else f"{f:.4g}"
        delta = ("—" if missing or b == 0
                 else f"{(f - b) / b * 100.0:+.1f}%")
        verdict = "ok" if ok else "**FAIL**"
        lines.append(
            f"| {fname} | {name} | {label} | {b:.4g} | {cur} | {delta} | "
            f"{limit} | {verdict} |")
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="directory with freshly emitted BENCH_*.json")
    ap.add_argument("--baseline", default="bench-results",
                    help="directory with committed baseline BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative regression band (0.25 = +25%%)")
    ap.add_argument("--file", action="append", default=None,
                    help="gate only these files (repeatable); default: "
                         + ", ".join(DEFAULT_FILES))
    ap.add_argument("--summary", default=None,
                    help="append a markdown delta table to this file "
                         "(defaults to $GITHUB_STEP_SUMMARY when set)")
    args = ap.parse_args(argv)

    files = args.file if args.file else DEFAULT_FILES
    regressions = []
    notes = []
    rows = []  # (file, bench, counter label, base, fresh, band, ok)
    compared = 0
    baseline_points = 0

    for fname in files:
        fresh_path = os.path.join(args.fresh, fname)
        base_path = os.path.join(args.baseline, fname)
        if not os.path.exists(fresh_path):
            regressions.append(f"{fname}: fresh results missing "
                               f"(bench crashed or was not run)")
            continue
        if not os.path.exists(base_path):
            notes.append(f"{fname}: no committed baseline — skipped "
                         f"(commit one via scripts/run_benches.sh)")
            continue
        fresh = load_benchmarks(fresh_path)
        base = load_benchmarks(base_path)
        baseline_points += len(base)

        for name, bmetrics in sorted(base.items()):
            fmetrics = fresh.get(name)
            if fmetrics is None:
                notes.append(f"{name}: present in baseline, absent in fresh "
                             f"run (renamed sweep point?)")
                continue
            compared += 1
            # Bit-exactness must never flip off.
            if bmetrics.get("verified", 1.0) >= 1.0 > fmetrics.get(
                    "verified", 1.0):
                regressions.append(
                    f"{name}: restored-image verification FAILED "
                    f"(verified {fmetrics.get('verified')})")
            if "verified" in bmetrics and "verified" in fmetrics:
                rows.append((fname, name, "verified", bmetrics["verified"],
                             fmetrics["verified"], ">= baseline",
                             not (bmetrics["verified"] >= 1.0 >
                                  fmetrics["verified"])))
            both = {**GATED_COUNTERS, **HIGHER_IS_BETTER}
            for key, (label, slack) in both.items():
                if key not in bmetrics:
                    continue
                if key not in fmetrics:
                    # The bench stopped emitting a gated counter: failing
                    # loudly beats silently shrinking the gate's coverage.
                    regressions.append(
                        f"{name}: counter '{key}' present in baseline but "
                        f"missing from the fresh run — retire it from the "
                        f"committed baseline if that is intentional")
                    rows.append((fname, name, label, bmetrics[key],
                                 float("nan"), "missing", False))
                    continue
                b, f = bmetrics[key], fmetrics[key]
                if key in HIGHER_IS_BETTER:
                    limit = b * (1.0 - args.tolerance) - slack
                    ok = f >= limit
                    if not ok:
                        regressions.append(
                            f"{name}: {label} dropped "
                            f"{b:.3f} -> {f:.3f} (floor {limit:.3f})")
                    rows.append((fname, name, label, b, f,
                                 f">= {limit:.4g}", ok))
                else:
                    limit = b * (1.0 + args.tolerance) + slack
                    ok = f <= limit
                    if not ok:
                        regressions.append(
                            f"{name}: {label} regressed "
                            f"{b:.3f} -> {f:.3f} (limit {limit:.3f})")
                    rows.append((fname, name, label, b, f,
                                 f"<= {limit:.4g}", ok))
        for name in sorted(set(fresh) - set(base)):
            notes.append(f"{name}: new benchmark, no baseline yet")

    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and rows:
        with open(summary_path, "a") as sf:
            sf.write(format_summary(rows) + "\n")

    for n in notes:
        print(f"note: {n}")
    print(f"check_bench: compared {compared} benchmark points "
          f"(tolerance +{args.tolerance * 100:.0f}%)")
    if baseline_points > 0 and compared == 0:
        # Baselines exist but nothing matched by name (renamed sweep
        # points?): a vacuous pass would let any regression through.
        regressions.append(
            "no benchmark points matched between fresh and baseline — "
            "regenerate bench-results/ via scripts/run_benches.sh")
    if regressions:
        print(f"\n{len(regressions)} REGRESSION(S):", file=sys.stderr)
        for r in regressions:
            print(f"  FAIL {r}", file=sys.stderr)
        return 1
    print("check_bench: OK — no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
