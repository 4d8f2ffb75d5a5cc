#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes.

Run from the root of a checkout, while no other benchmark run is in
progress there::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --scale tiny`` once untraced and once
traced, and asserts that:

* every metric ``BENCHMARK.json`` names is emitted with its unit, and
  the outputs are correct;
* the traced and untraced runs give identical simulated statistics
  (the same per-point digests);
* no run leaves a farm worker process or its work directory (trace
  stores, result store, journal, temp files) behind.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, dump: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", "--dump", str(dump)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def check_workload(spec: dict, workload: str, scratch: Path) -> list[str]:
    errors = []
    dumps = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        dump = scratch / f"{workload}-{trace}.json"
        result = _run(workload, trace, dump)
        dumps[trace] = json.loads(dump.read_text())
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{workload} trace={trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"{workload} trace={trace}: outputs not correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            errors.append(
                f"{workload} trace={trace}: missing {missing}, extra {extra}, "
                f"wrong units {wrong}"
            )
        for name, m in result["metrics"].items():
            if not isinstance(m["value"], (int, float)):
                errors.append(f"{workload} trace={trace}: {name} is not a number")
    if dumps[0]["digests"] != dumps[1]["digests"]:
        errors.append(f"{workload}: traced and untraced simulated statistics differ")
    if dumps[0]["sim"] != dumps[1]["sim"]:
        errors.append(f"{workload}: traced and untraced simulated metrics differ")
    for trace, dump in dumps.items():
        for pid in dump["pids"]:
            if _alive(pid):
                errors.append(f"{workload} trace={trace}: worker {pid} still running")
    if workload == "sweep-farm" and not dumps[0]["pids"]:
        errors.append("sweep-farm spawned no farm worker")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work"
    scratch = ROOT / ".perfbench_selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    errors = []
    try:
        for w in spec["workloads"]:
            errors += check_workload(spec, w["name"], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # each run removes its own work directory, worker trace stores and
    # temp files included
    if work.exists():
        errors.append(f"work directory left behind: {sorted(work.iterdir())}")
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
