"""Diff a fresh BENCH_perf.json against the committed throughput baseline.

Usage::

    python benchmarks/check_regression.py BENCH_perf.json \
        [--baseline benchmarks/baseline_throughput.json] [--threshold 0.20]

Compares every throughput metric present in both files and warns when
the fresh number is more than ``threshold`` below the baseline. Exit
status is 1 on a regression so CI can surface it — the CI step runs
with ``continue-on-error`` because shared runners are noisy; the
warning is a signal to look, not a merge gate.

Each baseline metric records the ``mode`` (smoke/full) and
``cpu_count`` it was measured under; a metric is only *hard*-compared
(counted toward the exit status) against a report from the same mode
on a host with the same CPU count. Anything else — a smoke CI run
checked against a full-mode baseline, a 4-core laptop against the
1-core reference box — prints as an indicative note instead of a
regression, because the comparison is between different experiments,
not a slowdown. Legacy baselines with bare scalar metrics inherit the
file-level ``mode`` and match any host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline_throughput.json"

# report keys compared (higher is better for all of them)
METRICS = [
    "machine_accesses_per_sec",
    "cc_accesses_per_sec",
    "machine_fastpath_accesses_per_sec",
    "parallel_speedup",
    "warm_skip_fraction",
    "tracegen_accesses_per_sec",
    "trace_store_warm_speedup",
    "farm_points_per_sec",
    "farm_speedup_vs_serial",
    "farm_chaos_points_per_sec",
    "scaling_em2_accesses_per_sec",
    "scaling_cc_accesses_per_sec",
]

# report keys where *growth* is the regression (memory footprints):
# warn when fresh exceeds baseline * (1 + threshold)
LOWER_IS_BETTER = [
    "scaling_bytes_per_tile",
]


def baseline_entries(baseline: dict, key: str) -> list:
    """``[(value, mode, cpu_count), ...]`` for one baseline metric.

    New-format entries are ``{"value", "mode", "cpu_count"}`` objects,
    or a *list* of them when the metric has floors for more than one
    mode (e.g. a smoke floor for CI plus a full-mode floor pinning a
    measured optimization); legacy scalars inherit the file-level mode
    and a wildcard host. Empty list when the metric is absent.
    """
    metrics = baseline.get("metrics", baseline)
    raw = metrics.get(key)
    if raw is None:
        return []
    entries = raw if isinstance(raw, list) else [raw]
    out = []
    for e in entries:
        if isinstance(e, dict):
            out.append((
                float(e.get("value", 0.0)),
                e.get("mode", baseline.get("mode")),
                e.get("cpu_count"),
            ))
        else:
            out.append((float(e), baseline.get("mode"), None))
    return out


def baseline_entry(baseline: dict, key: str, report: dict | None = None):
    """The single most relevant entry for ``key``: the first entry
    comparable with ``report`` if any, else the first entry, else None."""
    entries = baseline_entries(baseline, key)
    if not entries:
        return None
    if report is not None:
        for e in entries:
            if comparable(e, report):
                return e
    return entries[0]


def comparable(entry, report: dict) -> bool:
    """Whether a baseline entry is like-for-like with this report."""
    _value, mode, cpu_count = entry
    if mode is not None and mode != report.get("mode"):
        return False
    if cpu_count is not None and cpu_count != report.get("cpu_count"):
        return False
    return True


def compare(report: dict, baseline: dict, threshold: float) -> list[str]:
    """One warning line per like-for-like metric beyond its threshold:
    throughput metrics below baseline * (1 - threshold), footprint
    metrics (LOWER_IS_BETTER) above baseline * (1 + threshold)."""
    warnings = []
    for key in METRICS + LOWER_IS_BETTER:
        entry = baseline_entry(baseline, key, report)
        if key not in report or entry is None or not comparable(entry, report):
            continue
        fresh = float(report[key])
        base = entry[0]
        if base <= 0:
            continue
        ratio = fresh / base
        if key in LOWER_IS_BETTER:
            if ratio > 1.0 + threshold:
                warnings.append(
                    f"REGRESSION {key}: {fresh:.0f} vs baseline {base:.0f} "
                    f"({ratio:.0%} of baseline, grew past "
                    f"{1.0 + threshold:.0%})"
                )
        elif ratio < 1.0 - threshold:
            warnings.append(
                f"REGRESSION {key}: {fresh:.0f} vs baseline {base:.0f} "
                f"({ratio:.0%} of baseline, threshold {1.0 - threshold:.0%})"
            )
    return warnings


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="fresh BENCH_perf.json to check")
    ap.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="warn when a metric drops more than this "
                         "fraction below baseline (default 0.20)")
    args = ap.parse_args(argv)

    report = json.loads(Path(args.report).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    warnings = compare(report, baseline, args.threshold)
    for key in METRICS + LOWER_IS_BETTER:
        entry = baseline_entry(baseline, key, report)
        if key not in report or entry is None:
            continue
        if comparable(entry, report):
            print(
                f"{key}: {float(report[key]):.2f} "
                f"(baseline {entry[0]:.2f})"
            )
        else:
            print(
                f"{key}: {float(report[key]):.2f} "
                f"(baseline {entry[0]:.2f} from mode={entry[1]!r} "
                f"cpu_count={entry[2]!r}; indicative only, not compared)"
            )
    if warnings:
        print()
        for w in warnings:
            print(f"::warning::{w}")
        return 1
    print("\nno throughput regression beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
