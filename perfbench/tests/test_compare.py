"""Verdicts of the compare tool against the benchmark's bounds."""

import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import compare  # noqa: E402

BOUND = 0.10


def test_clear_improvement_of_a_lower_is_better_metric():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    new = [80, 81, 79, 80, 82, 78, 80, 81, 79, 80]
    assert compare.verdict(base, new, "lower", BOUND) == "improved"


def test_clear_improvement_of_a_higher_is_better_metric():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    new = [v * 1.3 for v in base]
    assert compare.verdict(base, new, "higher", BOUND) == "improved"
    assert compare.verdict(new, base, "higher", BOUND) == "worse"


def test_regression_beyond_the_bound_is_worse():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", BOUND) == "worse"


def test_small_change_within_the_bound_is_unchanged():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(base, [v * 1.05 for v in base], "lower", BOUND) == "unchanged"
    # Better, but by less than the base's own interquartile range.
    assert compare.verdict(base, [v - 0.5 for v in base], "lower", BOUND) == "unchanged"


def test_gain_that_loses_too_many_pairs_is_not_improved():
    base = [100] * 10
    new = [80] * 8 + [120] * 2
    assert compare.verdict(base, new, "lower", BOUND) == "unchanged"


def test_wide_base_spread_is_unresolved_unless_every_run_separates():
    base = [70, 130, 75, 125, 80, 120, 85, 115, 90, 110]
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", BOUND) == "unresolved"
    assert compare.verdict(base, [30] * 10, "lower", BOUND) == "improved"
    assert compare.verdict(base, [65] * 10, "lower", BOUND) == "unchanged"  # all better, by less than the IQR
    assert compare.verdict(base, [140] * 10, "lower", BOUND) == "worse"


def _write(path, workload, runs):
    with open(path, "w") as out:
        for metrics in runs:
            record = {
                "correct": True,
                "attempted": 2,
                "failed": 0,
                "metrics": {name: {"value": value, "unit": "x", "n": 1} for name, value in metrics.items()},
                "context": {"workload": workload},
            }
            out.write(json.dumps(record) + "\n")


BENCH = {
    "workloads": [{"name": "bulk", "why": ""}],
    "end_to_end": [
        {"name": "put_MBps", "unit": "MB/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def test_compare_files_prints_a_verdict_per_metric_and_fails_on_worse(tmp_path):
    _write(tmp_path / "base.jsonl", "bulk", [{"put_MBps": 1.0 + i / 1000, "setup_s": 20.0} for i in range(10)])
    _write(tmp_path / "new.jsonl", "bulk", [{"put_MBps": 0.5 + i / 1000, "setup_s": 20.1} for i in range(10)])
    out = io.StringIO()
    status = compare.compare(tmp_path / "base.jsonl", tmp_path / "new.jsonl", BENCH, out)
    lines = out.getvalue().splitlines()
    assert status == 1
    assert any(line.split()[0] == "put_MBps" and line.split()[-3] == "worse" for line in lines)
    assert any(line.split()[0] == "setup_s" and line.split()[-3] == "unchanged" for line in lines)


def test_overhead_sets_traced_metrics_against_untraced(tmp_path):
    _write(tmp_path / "plain.jsonl", "bulk", [{"put_MBps": 1.0, "setup_s": 20.0}] * 3)
    _write(tmp_path / "traced.jsonl", "bulk", [{"traced.put_MBps": 0.9, "traced.setup_s": 22.0}] * 3)
    out = io.StringIO()
    compare.overhead(tmp_path / "plain.jsonl", tmp_path / "traced.jsonl", BENCH, out)
    text = out.getvalue()
    assert "put_MBps" in text and "+10.0%" in text
