"""pytest coverage for scripts/check_bench.py (the CI bench regression gate).

Covers the gate's contract: the tolerance band (within / beyond), one-sided
regressions (improvements never fail), higher-is-better counters (drops
fail, gains never do), the `verified` never-flips-to-0 rule, gated counters
vanishing from the fresh run (hard fail), missing fresh files (hard fail)
vs missing baselines (note + pass), the vacuous-pass guard when nothing
matches, and the markdown delta-table summary.

Run:  python3 -m pytest scripts/test_check_bench.py -q
"""
from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py"))
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)

FILE = "BENCH_fig3_restart_scaling.json"


@pytest.fixture(autouse=True)
def _no_github_summary(monkeypatch):
    # Keep unit runs from appending delta tables to a real Actions summary.
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


def bench_json(points):
    """points: {name: {counter: value}} -> google-benchmark JSON payload."""
    return {
        "benchmarks": [
            {"name": name, "run_type": "iteration", "real_time": 1.0,
             **counters}
            for name, counters in points.items()
        ]
    }


def write(dirpath, fname, points):
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / fname).write_text(json.dumps(bench_json(points)))


def run_gate(tmp_path, fresh, base, tolerance=0.25, files=(FILE,)):
    write(tmp_path / "fresh", FILE, fresh)
    if base is not None:
        write(tmp_path / "base", FILE, base)
    else:
        (tmp_path / "base").mkdir(parents=True, exist_ok=True)
    argv = ["--fresh", str(tmp_path / "fresh"),
            "--baseline", str(tmp_path / "base"),
            "--tolerance", str(tolerance)]
    for f in files:
        argv += ["--file", f]
    return check_bench.main(argv)


def test_within_tolerance_band_passes(tmp_path):
    base = {"Fig3/p": {"restart_s": 10.0, "verified": 1}}
    fresh = {"Fig3/p": {"restart_s": 12.0, "verified": 1}}  # +20% < +25%
    assert run_gate(tmp_path, fresh, base) == 0


def test_regression_beyond_band_fails(tmp_path):
    base = {"Fig3/p": {"restart_s": 10.0, "verified": 1}}
    fresh = {"Fig3/p": {"restart_s": 13.0, "verified": 1}}  # +30% > +25%
    assert run_gate(tmp_path, fresh, base) == 1


def test_regressions_are_one_sided(tmp_path):
    # Getting faster / shipping fewer bytes never fails, however large the
    # improvement.
    base = {"Fig3/p": {"restart_s": 10.0, "repo_mb_per_inst": 100.0}}
    fresh = {"Fig3/p": {"restart_s": 0.1, "repo_mb_per_inst": 1.0}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_absolute_slack_absorbs_tiny_diffs(tmp_path):
    # 0.01 -> 0.04 is +300% but under the 0.05 absolute slack for restart_s.
    base = {"Fig3/p": {"restart_s": 0.01}}
    fresh = {"Fig3/p": {"restart_s": 0.04}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_verified_flip_to_zero_fails(tmp_path):
    base = {"Fig3/p": {"restart_s": 10.0, "verified": 1}}
    fresh = {"Fig3/p": {"restart_s": 10.0, "verified": 0}}
    assert run_gate(tmp_path, fresh, base) == 1


def test_commit_path_counters_are_gated(tmp_path):
    base = {"Fig5/p": {"blocked_s": 1.0, "repo_MB": 50.0}}
    fresh_ok = {"Fig5/p": {"blocked_s": 1.1, "repo_MB": 55.0}}
    fresh_bad = {"Fig5/p": {"blocked_s": 2.0, "repo_MB": 50.0}}
    assert run_gate(tmp_path, fresh_ok, base) == 0
    assert run_gate(tmp_path, fresh_bad, base) == 1


def test_snapshot_size_is_gated(tmp_path):
    # fig4/table1's per-approach snapshot size, qcow baselines included.
    base = {"Fig4/qcow2-full/buf_mb:50": {"snapshot_MB_per_vm": 178.0}}
    fresh_ok = {"Fig4/qcow2-full/buf_mb:50": {"snapshot_MB_per_vm": 200.0}}
    fresh_bad = {"Fig4/qcow2-full/buf_mb:50": {"snapshot_MB_per_vm": 230.0}}
    assert run_gate(tmp_path, fresh_ok, base) == 0
    assert run_gate(tmp_path, fresh_bad, base) == 1
    for f in ("BENCH_fig4_snapshot_size.json",
              "BENCH_fig6_cm1_checkpoint.json",
              "BENCH_table1_cm1_snapshot_size.json"):
        assert f in check_bench.DEFAULT_FILES


def test_elastic_rescale_makespan_is_gated(tmp_path):
    base = {"AblationElastic/rescale-restart":
            {"rescale_restart_s": 10.0, "verified": 1}}
    fresh_ok = {"AblationElastic/rescale-restart":
                {"rescale_restart_s": 12.0, "verified": 1}}  # +20% < +25%
    fresh_bad = {"AblationElastic/rescale-restart":
                 {"rescale_restart_s": 13.0, "verified": 1}}  # +30% > +25%
    assert run_gate(tmp_path, fresh_ok, base) == 0
    assert run_gate(tmp_path, fresh_bad, base) == 1


def test_missing_fresh_file_fails(tmp_path):
    # A bench that crashed (no fresh JSON) must fail the gate, not skip.
    write(tmp_path / "base", FILE, {"Fig3/p": {"restart_s": 1.0}})
    (tmp_path / "fresh").mkdir(parents=True, exist_ok=True)
    assert check_bench.main(["--fresh", str(tmp_path / "fresh"),
                             "--baseline", str(tmp_path / "base"),
                             "--file", FILE]) == 1


def test_missing_baseline_is_note_not_failure(tmp_path):
    # New bench with no committed baseline yet: note + pass.
    fresh = {"Fig3/p": {"restart_s": 1.0}}
    assert run_gate(tmp_path, fresh, None) == 0


def test_missing_counter_in_fresh_fails(tmp_path):
    # A gated counter present only in the baseline means the bench silently
    # stopped emitting it — the gate must fail loudly, not shrink its own
    # coverage. (Retiring a counter means removing it from the committed
    # baseline in the same PR.)
    base = {"Fig3/p": {"restart_s": 1.0, "repo_mb_per_inst": 5.0}}
    fresh = {"Fig3/p": {"restart_s": 1.0}}
    assert run_gate(tmp_path, fresh, base) == 1


def test_counter_retired_from_baseline_passes(tmp_path):
    # The deliberate retirement path: the counter is gone from BOTH sides.
    base = {"Fig3/p": {"restart_s": 1.0}}
    fresh = {"Fig3/p": {"restart_s": 1.0, "new_counter": 3.0}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_higher_is_better_within_band_passes(tmp_path):
    # -20% throughput is inside the 25% band.
    base = {"Sweep/t1000/s16": {"index_lookups_per_s": 100000.0}}
    fresh = {"Sweep/t1000/s16": {"index_lookups_per_s": 80000.0}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_higher_is_better_drop_beyond_band_fails(tmp_path):
    # -30% throughput breaches the floor.
    base = {"Sweep/t1000/s16": {"index_lookups_per_s": 100000.0}}
    fresh = {"Sweep/t1000/s16": {"index_lookups_per_s": 70000.0}}
    assert run_gate(tmp_path, fresh, base) == 1


def test_higher_is_better_improvement_never_fails(tmp_path):
    base = {"Sweep/t1000/s16": {"index_lookups_per_s": 100000.0}}
    fresh = {"Sweep/t1000/s16": {"index_lookups_per_s": 10000000.0}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_higher_is_better_slack_absorbs_tiny_baselines(tmp_path):
    # 200 -> 60 lookups/s is -70%, but the floor 200*0.75 - 100 = 50 absorbs
    # it: tiny absolute rates should not gate on percentages.
    base = {"Sweep/t10/s1": {"index_lookups_per_s": 200.0}}
    fresh = {"Sweep/t10/s1": {"index_lookups_per_s": 60.0}}
    assert run_gate(tmp_path, fresh, base) == 0


def test_commit_p95_is_gated_lower_better(tmp_path):
    base = {"Sweep/t1000/s16": {"commit_p95_s": 1.0, "verified": 1}}
    fresh_ok = {"Sweep/t1000/s16": {"commit_p95_s": 1.2, "verified": 1}}
    fresh_bad = {"Sweep/t1000/s16": {"commit_p95_s": 1.3, "verified": 1}}
    assert run_gate(tmp_path, fresh_ok, base) == 0
    assert run_gate(tmp_path, fresh_bad, base) == 1


def test_gc_reclaimed_mb_is_gated_higher_better(tmp_path):
    # ablation_gc's baseline rows: 6.29 MB at keep_last 1, 0.0 at keep_last
    # 4. The floor for 6.29 is 6.29*0.75 - 0.5 = 4.2175; the slack keeps the
    # 0.0 row passing; a GC that stops reclaiming fails; more never fails.
    base = {"AblationGc/keep_last:1": {"reclaimed_MB": 6.29},
            "AblationGc/keep_last:4": {"reclaimed_MB": 0.0}}
    fresh_ok = {"AblationGc/keep_last:1": {"reclaimed_MB": 4.3},
                "AblationGc/keep_last:4": {"reclaimed_MB": 0.0}}
    fresh_more = {"AblationGc/keep_last:1": {"reclaimed_MB": 9.0},
                  "AblationGc/keep_last:4": {"reclaimed_MB": 1.0}}
    fresh_bad = {"AblationGc/keep_last:1": {"reclaimed_MB": 0.0},
                 "AblationGc/keep_last:4": {"reclaimed_MB": 0.0}}
    assert run_gate(tmp_path, fresh_ok, base) == 0
    assert run_gate(tmp_path, fresh_more, base) == 0
    assert run_gate(tmp_path, fresh_bad, base) == 1
    assert "BENCH_ablation_gc.json" in check_bench.DEFAULT_FILES


def test_summary_table_is_written(tmp_path):
    base = {"Fig3/p": {"restart_s": 10.0, "verified": 1},
            "Sweep/t1000/s16": {"index_lookups_per_s": 100000.0}}
    fresh = {"Fig3/p": {"restart_s": 13.0, "verified": 1},  # +30%: FAIL
             "Sweep/t1000/s16": {"index_lookups_per_s": 110000.0}}
    write(tmp_path / "fresh", FILE, fresh)
    write(tmp_path / "base", FILE, base)
    summary = tmp_path / "summary.md"
    rc = check_bench.main(["--fresh", str(tmp_path / "fresh"),
                           "--baseline", str(tmp_path / "base"),
                           "--file", FILE,
                           "--summary", str(summary)])
    assert rc == 1
    text = summary.read_text()
    assert "| file | benchmark | counter |" in text
    assert "**FAIL**" in text            # the restart_s regression row
    assert "+10.0%" in text              # the throughput improvement row
    assert "restart makespan [s]" in text


def test_summary_honors_github_step_summary_env(tmp_path, monkeypatch):
    base = {"Fig3/p": {"restart_s": 1.0}}
    fresh = {"Fig3/p": {"restart_s": 1.0}}
    summary = tmp_path / "gh_summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert run_gate(tmp_path, fresh, base) == 0
    assert "Bench regression gate" in summary.read_text()


def test_no_matching_points_is_vacuous_fail(tmp_path):
    # Baselines exist but every point was renamed: a vacuous pass would let
    # any regression through, so the gate fails.
    base = {"Fig3/old-name": {"restart_s": 1.0}}
    fresh = {"Fig3/new-name": {"restart_s": 1.0}}
    assert run_gate(tmp_path, fresh, base) == 1


def test_aggregate_rows_are_ignored(tmp_path):
    payload = {
        "benchmarks": [
            {"name": "Fig3/p", "run_type": "iteration", "real_time": 1.0,
             "restart_s": 1.0},
            {"name": "Fig3/p_mean", "run_type": "aggregate", "real_time": 1.0,
             "restart_s": 99.0},
        ]
    }
    (tmp_path / "base").mkdir(parents=True)
    (tmp_path / "fresh").mkdir(parents=True)
    (tmp_path / "base" / FILE).write_text(json.dumps(payload))
    (tmp_path / "fresh" / FILE).write_text(json.dumps(payload))
    loaded = check_bench.load_benchmarks(str(tmp_path / "fresh" / FILE))
    assert "Fig3/p_mean" not in loaded
    assert check_bench.main(["--fresh", str(tmp_path / "fresh"),
                             "--baseline", str(tmp_path / "base"),
                             "--file", FILE]) == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
