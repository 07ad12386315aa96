"""pytest coverage for scripts/sim_identity.py (the simulated-output
identity check).

Covers seed parsing, the perf-workload field comparison (identical runs,
changed scalars, changed keys of the sim/layers_sim maps), the per-field
drift summary over pairs and the bench-row comparison: host fields ignored,
real_time compared on manual-time rows only, a changed counter counted, a
counter or a whole row present on one side only.

Run:  python3 -m pytest scripts/test_sim_identity.py -q
 or:  python3 scripts/test_sim_identity.py   (where pytest is missing)
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sim_identity",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "sim_identity.py"))
sim_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sim_identity)


def run_result(**overrides):
    result = {"sim": {"restart_makespan_s": 2.5},
              "layers_sim": {"sim.events": 1000, "core.src_repo_mb": 6.0},
              "checks": {"restore_ok": True}, "attempted": 24, "failed": 0,
              "host": {"host_wall_s": 1.0}}
    result.update(overrides)
    return result


def bench_row(name, **counters):
    return {"name": name, "family_index": 0, "run_name": name,
            "run_type": "iteration", "repetitions": 1, "threads": 1,
            "iterations": 1, "real_time": 1.0, "cpu_time": 0.5,
            "time_unit": "s", **counters}


def test_parse_seeds_ranges_and_lists():
    assert sim_identity.parse_seeds("1-7") == [1, 2, 3, 4, 5, 6, 7]
    assert sim_identity.parse_seeds("1,4,9") == [1, 4, 9]
    assert sim_identity.parse_seeds("1-3,9") == [1, 2, 3, 9]
    assert sim_identity.parse_seeds("5") == [5]


def test_differences_none_for_identical_runs_whatever_the_host_time():
    assert sim_identity.differences(
        run_result(), run_result(host={"host_wall_s": 9.0})) == []


def test_differences_names_changed_map_keys_and_scalars():
    head = run_result(failed=1,
                      layers_sim={"sim.events": 1001, "core.src_repo_mb": 6.0,
                                  "core.src_wan_mb": 0.5})
    assert sim_identity.differences(run_result(), head) == [
        "layers_sim.core.src_wan_mb: None -> 0.5",
        "layers_sim.sim.events: 1000 -> 1001",
        "failed: 0 -> 1",
    ]


def test_drift_summary_counts_pairs_and_spans_numeric_changes():
    base = run_result()
    pairs = [
        sim_identity.changes(base, run_result(
            layers_sim={"sim.events": 491, "core.src_repo_mb": 6.0})),
        sim_identity.changes(base, run_result(
            layers_sim={"sim.events": 861, "core.src_repo_mb": 6.25})),
        sim_identity.changes(base, run_result(
            checks={"restore_ok": False},
            layers_sim={"sim.events": 700, "core.src_repo_mb": 6.0})),
    ]
    assert sim_identity.drift_summary(pairs, 28) == [
        "checks.restore_ok: 1/28 pairs (1 not numeric)",
        "layers_sim.core.src_repo_mb: 1/28 pairs, +0.25..+0.25",
        "layers_sim.sim.events: 3/28 pairs, -509..-139",
    ]


def test_drift_summary_marks_values_that_are_not_numbers():
    pairs = [
        [("layers_sim.core.src_wan_mb", None, 0.5)],
        [("layers_sim.core.src_wan_mb", 0.25, 0.5)],
        [("failed", 0, 2)],
    ]
    assert sim_identity.drift_summary(pairs, 4) == [
        "failed: 1/4 pairs, +2..+2",
        "layers_sim.core.src_wan_mb: 2/4 pairs, +0.25..+0.25 (1 not numeric)",
    ]
    assert sim_identity.drift_summary([], 4) == []


def test_bench_rows_keys_every_row_by_file_and_name(tmp_path):
    (tmp_path / "BENCH_a.json").write_text(json.dumps(
        {"context": {"host_name": "x"},
         "benchmarks": [bench_row("A/1", mb=1.0), bench_row("A/2", mb=2.0)]}))
    (tmp_path / "BENCH_b.json").write_text(json.dumps(
        {"benchmarks": [bench_row("B/1", s=3.0)]}))
    (tmp_path / "other.json").write_text("{}")
    rows = sim_identity.bench_rows(tmp_path)
    assert sorted(rows) == [("BENCH_a.json", "A/1"), ("BENCH_a.json", "A/2"),
                            ("BENCH_b.json", "B/1")]


def test_bench_differences_ignore_host_fields_and_bookkeeping():
    base = {("BENCH_a.json", "A/1"): bench_row("A/1", mb=1.0, verified=1)}
    head_row = bench_row("A/1", mb=1.0, verified=1)
    head_row.update(real_time=7.0, cpu_time=3.0, iterations=5, time_unit="ms",
                    family_index=4)
    compared, differing, lines = sim_identity.bench_differences(
        base, {("BENCH_a.json", "A/1"): head_row})
    assert (compared, differing, lines) == (2, 0, [])


def test_bench_differences_compare_real_time_of_manual_time_rows():
    # A manual-time row's real_time is the simulated duration the bench
    # passed to SetIterationTime; cpu_time stays host time.
    key = ("BENCH_a.json", "A/1/manual_time")
    base_row = bench_row("A/1/manual_time", mb=1.0)
    same = dict(base_row, cpu_time=9.0)
    assert sim_identity.bench_differences({key: base_row}, {key: same}) == (
        2, 0, [])
    slower = dict(base_row, real_time=1.25)
    compared, differing, lines = sim_identity.bench_differences(
        {key: base_row}, {key: slower})
    assert (compared, differing) == (2, 1)
    assert lines == ["BENCH_a.json A/1/manual_time real_time: 1.0 -> 1.25"]


def test_bench_differences_count_a_changed_counter():
    key = ("BENCH_a.json", "A/1")
    compared, differing, lines = sim_identity.bench_differences(
        {key: bench_row("A/1", mb=1.0, s=2.0)},
        {key: bench_row("A/1", mb=1.5, s=2.0)})
    assert (compared, differing) == (2, 1)
    assert lines == ["BENCH_a.json A/1 mb: 1.0 -> 1.5"]


def test_bench_differences_count_a_counter_on_one_side_only():
    key = ("BENCH_a.json", "A/1")
    compared, differing, lines = sim_identity.bench_differences(
        {key: bench_row("A/1", mb=1.0)},
        {key: bench_row("A/1", mb=1.0, wan_mb=0.0)})
    assert (compared, differing) == (2, 1)
    assert lines == ["BENCH_a.json A/1 wan_mb: <absent> -> 0.0"]


def test_bench_differences_count_every_counter_of_a_one_sided_row():
    shared = ("BENCH_a.json", "A/1")
    gone = ("BENCH_a.json", "A/2")
    base = {shared: bench_row("A/1", mb=1.0),
            gone: bench_row("A/2", mb=2.0, s=1.0)}
    compared, differing, lines = sim_identity.bench_differences(
        base, {shared: bench_row("A/1", mb=1.0)})
    assert (compared, differing) == (3, 2)
    assert lines == ["BENCH_a.json A/2: row only in base (2 counters)"]
    # A new row on the head side with no counters at all still differs.
    compared, differing, lines = sim_identity.bench_differences(
        {}, {shared: bench_row("A/1")})
    assert (compared, differing) == (1, 1)
    assert lines == ["BENCH_a.json A/1: row only in head (1 counters)"]


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_") and callable(f)]
    for t in tests:
        if "tmp_path" in t.__code__.co_varnames[:t.__code__.co_argcount]:
            with tempfile.TemporaryDirectory() as tmp:
                t(Path(tmp))
        else:
            t()
    print(f"{len(tests)} passed")
    sys.exit(0)
