"""In-memory span recorder that wraps the library's public entry points.

The benchmark measures each layer from outside: :func:`install` replaces
a fixed set of public functions and methods of :mod:`repro` with thin
wrappers that open a span on entry and close it on exit. Nothing under
``src/`` is edited; the wrappers are installed only for a traced run.

A span records its name, start, end and the span that caused it. A
span opened on a thread whose own stack is empty (the farm
coordinator's serve threads) is parented to the innermost open span of
the thread that installed the tracer, so work the farm does on its
threads is charged to ``farm_sweep``. A span's *self time* is its
duration minus the union of its children's intervals.

Spans are kept in memory and summarized when a pass ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stacks = {}

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and tid != self._home else None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[idx][2] = end
            stack = self._stacks[threading.get_ident()]
            stack.remove(idx)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name, on_call=None, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one. ``on_call(*args, **kwargs)`` and
        ``on_return(result, *args, **kwargs)`` record counts at the same
        boundary. Setting the wrapper on a subclass whose method is
        inherited shadows it for that subclass only.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = tracer.open(label)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)

    # -- summary -----------------------------------------------------------
    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Self time summed by span name, over the spans under ``root``
        (every recorded span when ``root`` is None; ``root`` itself is
        left out)."""
        children: dict[int | None, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            children[span[3]].append(idx)
        keep = None
        if root is not None:
            keep = set()
            todo = [root]
            while todo:
                cur = todo.pop()
                for c in children.get(cur, ()):
                    keep.add(c)
                    todo.append(c)
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            if end is None or (keep is not None and idx not in keep):
                continue
            covered = _union_length(
                [
                    (max(self.spans[c][1], start), min(self.spans[c][2], end))
                    for c in children.get(idx, ())
                    if self.spans[c][2] is not None
                ]
            )
            out[name] += (end - start) - covered
        return dict(out)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro import runner
    from repro.analysis import cache, journal, reports
    from repro.analysis import farm as farm_mod
    from repro.coherence.simulator import DirectoryCCSimulator
    from repro.core import evaluation
    from repro.core.decision import optimal
    from repro.core.em2 import EM2Machine
    from repro.core.em2ra import EM2RAMachine
    from repro.trace import runlength, store
    from repro.trace.synthetic.base import WorkloadGenerator

    # the package re-exports a function named ``sweep`` over the module
    sweep = importlib.import_module("repro.analysis.sweep")
    count = tracer.count

    # trace layer
    tracer.wrap(
        WorkloadGenerator,
        "generate",
        "trace.generate",
        on_return=lambda mt, *a, **k: count("trace.generated_accesses", mt.total_accesses),
    )
    tracer.wrap(
        store.TraceStore,
        "get",
        "trace.store_get",
        on_return=lambda mt, *a, **k: count(
            "trace.store_hits" if mt is not None else "trace.store_misses"
        ),
    )
    tracer.wrap(store.TraceStore, "put", "trace.store_put")
    tracer.wrap(runlength, "run_length_histogram", "trace.runlength")

    # runner and placement
    tracer.wrap(runner, "build_workload", "runner.build_workload")
    tracer.wrap(runner, "build", "runner.build")
    tracer.wrap(
        runner,
        "build_placement",
        "placement.build",
        on_call=lambda *a, **k: count("placement.builds"),
    )
    tracer.wrap(runner, "run_spec_dict", "runner.run_spec_dict")

    # detailed machines: construction (topology, caches, columnar
    # decode) and the event-driven run, per machine
    def machine_accesses(label):
        return lambda self, trace, *a, **k: count(
            f"{label}.accesses", trace.total_accesses
        )

    for cls, label in ((EM2Machine, "em2"), (EM2RAMachine, "em2ra")):
        tracer.wrap(cls, "__init__", f"{label}.construct", on_call=machine_accesses(label))
        tracer.wrap(cls, "run", f"{label}.run")
    def cc_label(self, *args, **kwargs) -> str:
        return f"cc-{kwargs.get('protocol', 'msi')}"

    tracer.wrap(
        DirectoryCCSimulator,
        "__init__",
        lambda self, *a, **k: cc_label(self, *a, **k) + ".construct",
        on_call=lambda self, trace, *a, **k: count(
            cc_label(self, *a, **k) + ".accesses", trace.total_accesses
        ),
    )
    tracer.wrap(
        DirectoryCCSimulator, "run", lambda self, *a, **k: f"cc-{self.protocol}.run"
    )

    # evaluator and DP
    tracer.wrap(
        evaluation,
        "evaluate_scheme",
        "analytical.eval",
        on_call=lambda trace, *a, **k: count("analytical.accesses", trace.total_accesses),
    )

    def dp_call(homes, writes, start_core, cost_model):
        count("dp.accesses", len(homes))
        count("dp.access_cores", len(homes) * cost_model.config.num_cores)

    tracer.wrap(optimal, "optimal_cost", "dp.optimal", on_call=dp_call)

    # sweep stack
    tracer.wrap(sweep, "sweep_specs", "sweep.specs")
    tracer.wrap(
        cache.ResultCache,
        "get",
        "cache.get",
        on_return=lambda rows, *a, **k: count(
            "cache.hits" if rows is not None else "cache.misses"
        ),
    )
    tracer.wrap(cache.ResultCache, "put", "cache.put")
    tracer.wrap(journal.SweepJournal, "__init__", "journal.open")
    tracer.wrap(
        journal.SweepJournal,
        "append",
        "journal.append",
        on_call=lambda *a, **k: count("journal.appends"),
    )
    tracer.wrap(journal.SweepJournal, "flush", "journal.flush")
    _wrap_farm_sweep(tracer, farm_mod)

    # reporting
    tracer.wrap(reports, "format_table", "reports.format")
    tracer.wrap(reports, "runlength_table", "reports.format")


def _wrap_farm_sweep(tracer: Tracer, farm_mod) -> None:
    """``farm_sweep`` with its ``stats_out`` filled by the wrapper, so the
    coordinator's accounting lands in the counters."""
    orig = farm_mod.farm_sweep

    @functools.wraps(orig)
    def farm_sweep(*args, **kwargs):
        if not tracer.active:
            return orig(*args, **kwargs)
        stats = kwargs.get("stats_out")
        if stats is None:
            stats = kwargs["stats_out"] = {}
        idx = tracer.open("farm.sweep")
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.count("farm.chunks", stats.get("chunks", 0))
            tracer.count("farm.trace_pushes", sum(stats.get("trace_pushes", {}).values()))
            for key in ("requeues", "reconnects", "hedges"):
                tracer.count(f"farm.{key}", stats.get(key, 0))

    farm_mod.farm_sweep = farm_sweep
