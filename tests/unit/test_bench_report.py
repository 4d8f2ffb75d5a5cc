"""The committed benchmark report keeps every section its gates read.

``benchmarks/bench_perf.py`` and ``benchmarks/bench_scaling.py`` each
write their own part of ``BENCH_perf.json`` by read-merge-write, so
neither drops the other's section whichever runs last. CI asserts a
list of correctness gates on a fresh report; the committed one must
carry the ``scaling`` section and every one of those gates too.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _ci_gates() -> list[str]:
    """The gate keys listed in CI's "Assert correctness gates" step."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    block = re.search(r"gates = \[(.*?)\]", text, re.S)
    assert block, "CI gate list not found"
    return re.findall(r'"(\w+)"', block.group(1))


def test_committed_report_has_scaling_and_every_ci_gate():
    report = json.loads((ROOT / "BENCH_perf.json").read_text())
    gates = _ci_gates()
    assert "farm_rows_identical" in gates and "scaling_within_budget" in gates
    assert isinstance(report.get("scaling"), dict)
    assert [g for g in gates if report.get(g) is not True] == []


def test_bench_perf_merge_keeps_scaling_and_replaces_its_own_keys(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_perf", ROOT / "benchmarks" / "bench_perf.py"
    )
    bench_perf = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_perf)
    out = tmp_path / "BENCH_perf.json"
    out.write_text(
        json.dumps(
            {
                "scaling": {"mode": "smoke"},
                "scaling_within_budget": True,
                "farm_points_per_sec": 30.0,
                "renamed_away": 1,
            }
        )
    )
    bench_perf.merge_into(out, {"farm_points_per_sec": 110.0, "mode": "smoke"})
    assert json.loads(out.read_text()) == {
        "scaling": {"mode": "smoke"},
        "scaling_within_budget": True,
        "farm_points_per_sec": 110.0,
        "mode": "smoke",
    }
