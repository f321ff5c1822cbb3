"""Compare two sets of benchmark results against the benchmark's own bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --overhead UNTRACED.jsonl TRACED.jsonl

Inputs are files written by ``run.py --out``: one JSON record per run.  For
every workload in both files and every end-to-end metric of BENCHMARK.json
the tool prints the two medians and a verdict:

- improved:   the new runs win at least 9 of 10 pairs (runs paired in file
              order) and the medians differ by more than the base's
              interquartile range;
- worse:      the new median is worse than the base median by more than the
              metric's bound;
- unresolved: the base's own spread (interquartile range over median) is
              wider than the bound, and the new runs neither all beat nor
              all lose to every base run (losing all by more than the
              bound is worse);
- unchanged:  none of the above.

It exits 1 if any metric is worse.  --overhead instead sets each traced
run's ``traced.<metric>`` against the untraced runs' medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in file order."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = runs.setdefault(record["context"]["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * value grows as the metric gets worse
    bad_base, bad_new = [sign * v for v in base], [sign * v for v in new]
    base_median, base_iqr = spread(base)
    new_median = statistics.median(new)
    worse_by = sign * (new_median - base_median) / base_median
    pairs = list(zip(bad_base, bad_new))
    wins = sum(n < b for b, n in pairs)
    improved = worse_by < 0 and wins >= 0.9 * len(pairs) and abs(new_median - base_median) > base_iqr
    if base_iqr / base_median > bound:
        if max(bad_new) < min(bad_base):
            return "improved" if improved else "unchanged"
        if worse_by > bound and min(bad_new) > max(bad_base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "improved" if improved else "unchanged"


def compare(base_path: Path, new_path: Path, bench: dict, out=sys.stdout) -> int:
    base, new = load(base_path), load(new_path)
    any_worse = False
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in base or workload not in new:
            continue
        out.write(f"== {workload}\n")
        out.write(f"   {'metric':<22} {'base':>12} {'new':>12} {'change':>8} {'spread':>8} {'bound':>6}  verdict\n")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                out.write(f"   {name:<22} missing\n")
                continue
            b, n = base[workload][name], new[workload][name]
            result = verdict(b, n, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            b_median, b_iqr = spread(b)
            n_median = statistics.median(n)
            out.write(
                f"   {name:<22} {b_median:>12.5g} {n_median:>12.5g} {(n_median - b_median) / b_median:>+8.1%} "
                f"{b_iqr / b_median:>8.1%} {metric['bound']:>6.0%}  {result}"
                f"  (runs {len(b)}/{len(n)})\n"
            )
    return 1 if any_worse else 0


def overhead(untraced_path: Path, traced_path: Path, bench: dict, out=sys.stdout) -> int:
    untraced, traced = load(untraced_path), load(traced_path)
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in untraced or workload not in traced:
            continue
        out.write(f"== {workload}: tracing overhead\n")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            plain, with_trace = untraced[workload].get(name), traced[workload].get(f"traced.{name}")
            if not plain or not with_trace:
                continue
            p, t = statistics.median(plain), statistics.median(with_trace)
            cost = (t - p) / p if metric["better"] == "lower" else (p - t) / p
            out.write(f"   {name:<22} untraced {p:>12.5g}  traced {t:>12.5g}  overhead {cost:>+7.1%}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--overhead", action="store_true", help="base is untraced runs, new is traced runs")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.overhead:
        return overhead(args.base, args.new, bench)
    return compare(args.base, args.new, bench)


if __name__ == "__main__":
    sys.exit(main())
