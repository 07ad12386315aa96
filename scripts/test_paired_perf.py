"""pytest coverage for scripts/paired_perf.py (the paired same-seed host-time
comparison).

Covers the statistics (quartiles and median of the base's runs, pairs won
with ties counting for neither side), the gain rule (at least 9 in 10 pairs
won and a median gap wider than the base's quartile spread), the comparison
of simulated metrics that ignores host metrics, and the alternating order.

Run:  python3 -m pytest scripts/test_paired_perf.py -q
      (or python3 scripts/test_paired_perf.py where pytest is missing)
"""
from __future__ import annotations

import importlib.util
import os
import sys

_SCRIPTS = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "paired_perf", os.path.join(_SCRIPTS, "paired_perf.py"))
paired_perf = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_perf)


def test_summary_is_quartiles_and_median():
    assert paired_perf.summary([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    # One run has no spread.
    assert paired_perf.summary([2.5]) == (2.5, 2.5, 2.5)


def test_pairs_won_counts_lower_change_and_not_ties():
    base = [2.0, 2.0, 2.0, 2.0]
    change = [1.0, 2.0, 3.0, 1.5]
    assert paired_perf.pairs_won(base, change) == 2


def test_gain_holds_with_nine_of_ten_and_gap_over_spread():
    base = [2.0 + 0.01 * i for i in range(10)]
    change = [1.5] * 9 + [3.0]
    v = paired_perf.verdict(base, change)
    assert v["won"] == 9 and v["pairs"] == 10
    assert v["base_median"] == 2.045
    assert v["change_median"] == 1.5
    assert v["holds"]


def test_gain_fails_below_nine_of_ten():
    base = [2.0] * 10
    change = [1.0] * 8 + [2.0, 3.0]
    v = paired_perf.verdict(base, change)
    assert v["won"] == 8
    assert not v["holds"]


def test_gain_fails_when_gap_is_inside_the_base_spread():
    # Every pair won, but the base runs spread wider than the gain.
    base = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]
    change = [b - 0.1 for b in base]
    v = paired_perf.verdict(base, change)
    assert v["won"] == 10
    assert v["base_q3"] - v["base_q1"] > v["base_median"] - v["change_median"]
    assert not v["holds"]


def test_slower_change_never_holds():
    base = [1.0] * 10
    change = [2.0] * 10
    v = paired_perf.verdict(base, change)
    assert v["won"] == 0
    assert not v["holds"]


def test_simulated_differences_ignore_host_metrics():
    base = {"host_wall_s": 2.0, "setup_s": 0.1, "peak_rss_mb": 500.0,
            "restart_makespan_s": 3.0, "ckpt_publish_s": 1.0}
    same = dict(base, host_wall_s=1.0, setup_s=0.2, peak_rss_mb=400.0)
    assert paired_perf.simulated_differences(base, same) == []
    moved = dict(base, restart_makespan_s=3.5)
    assert paired_perf.simulated_differences(base, moved) == [
        "restart_makespan_s"]
    missing = {k: v for k, v in base.items() if k != "ckpt_publish_s"}
    assert paired_perf.simulated_differences(base, missing) == [
        "ckpt_publish_s"]


def test_sides_alternate_starting_with_base():
    assert [paired_perf.first_side(i) for i in range(4)] == [
        "base", "change", "base", "change"]


def test_format_verdict_names_the_rule():
    v = paired_perf.verdict([2.0] * 10, [1.0] * 10)
    line = paired_perf.format_verdict("tenant_storm", "host_wall_s", v)
    assert line == ("tenant_storm host_wall_s: base 2 [2-2] -> change 1 "
                    "(-50.0%), won 10/10, gain rule holds")


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_") and callable(f)]
    for t in tests:
        t()
    print(f"{len(tests)} passed")
    sys.exit(0)
