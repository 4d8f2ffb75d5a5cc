"""Integration tests for the distributed sweep farm (ISSUE 7).

Embedded :class:`~repro.analysis.worker.WorkerServer` instances stand
in for remote hosts over loopback sockets — the full protocol runs
(handshake, trace-by-reference negotiation, pull-based chunking,
streamed results), just without a second machine. Contracts:

* farm rows are bit-identical to the canonical serial rows, in order;
* a worker killed mid-chunk gets its points requeued to survivors and
  the sweep still completes exactly;
* each trace digest is pushed to a given worker at most once, and a
  second sweep against a warm worker pushes nothing;
* a trace file travels by content, so a worker evaluates the
  coordinator's bytes of it even when it cannot open the path, and
  again after the file is rewritten;
* zero reachable workers degrades to local evaluation with a warning;
* a worker-side evaluation error surfaces as the same
  :class:`~repro.analysis.sweep.SweepPointError` a local sweep raises,
  with the offending spec attached;
* under ``point_timeout`` a chunk is one point, so a slow point is the
  one the timeout names;
* every farm connection has Nagle off, and a sweep returns as soon as
  its last row lands.
"""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import runner
from repro.analysis import farm as farm_mod
from repro.analysis.cache import canonical_rows
from repro.analysis.farm import FarmCoordinator, FarmUnavailable, farm_sweep
from repro.analysis.sweep import SweepPointError, sweep_specs
from repro.analysis.worker import WorkerServer
from repro.runner import clear_build_memo, merge_spec
from repro.spec import ExperimentSpec, MachineSpec, PlacementSpec, WorkloadSpec
from repro.trace.io import save_multitrace


def _base():
    return ExperimentSpec(
        workload=WorkloadSpec(
            name="pingpong", params={"num_threads": 4, "rounds": 12}
        ),
        machine=MachineSpec(name="analytical", cores=4, preset="small-test"),
        placement=PlacementSpec(name="first-touch"),
    )


def _points(schemes=("never-migrate", "always-migrate", "history", "costaware")):
    return [{"scheme": s} for s in schemes]


@pytest.fixture
def workers():
    """Two embedded loopback workers, stopped afterwards."""
    servers = [WorkerServer(port=0).start_background() for _ in range(2)]
    try:
        yield servers
    finally:
        for s in servers:
            s.stop()


def _addrs(servers):
    return [s.address for s in servers]


# ---------------------------------------------------------------- e2e parity
def test_farm_rows_bit_identical_to_serial(workers):
    base, points = _base(), _points()
    serial = canonical_rows(sweep_specs(base, points))
    farm = sweep_specs(base, points, farm=_addrs(workers))
    assert farm == serial
    # key order survives the wire too (frames preserve insertion
    # order), so farm and local sweeps render byte-identical tables
    assert [list(r) for r in farm] == [list(r) for r in serial]


def test_one_row_format_across_every_path(workers, tmp_path, monkeypatch):
    """Serial, local processes, a socket farm, a warm cache and a resume
    store all hand back the same rows, key order included."""
    import importlib

    from repro.analysis.cache import ResultCache

    # force local processes even on a 1-CPU host
    monkeypatch.setattr(
        importlib.import_module("repro.analysis.sweep"), "default_workers", lambda: 2
    )
    base, points = _base(), _points()
    serial = sweep_specs(base, points)
    with ResultCache(tmp_path / "cache.rpjl") as store:
        sweep_specs(base, points, cache=store)
    with ResultCache(tmp_path / "cache.rpjl") as store:
        warm = sweep_specs(base, points, cache=store)
        assert store.hits == len(points)
    sweep_specs(base, points, resume=tmp_path / "resume.rpjl")
    paths = {
        "workers=2": sweep_specs(base, points, workers=2),
        "farm": sweep_specs(base, points, farm=_addrs(workers)),
        "warm cache": warm,
        "resume": sweep_specs(base, points, resume=tmp_path / "resume.rpjl"),
    }
    for name, rows in paths.items():
        assert rows == serial, name
        assert [list(r) for r in rows] == [list(r) for r in serial], name


def test_farm_streams_results_in_spec_order(workers):
    """Row order is by point index regardless of which worker computed
    what — the scheme column must match the grid exactly."""
    schemes = ("history", "costaware", "never-migrate", "random")
    rows = sweep_specs(base_spec := _base(), _points(schemes),
                       farm=_addrs(workers))
    assert [r["scheme"] for r in rows] == list(schemes)
    assert base_spec.workload is not None  # grid untouched by the sweep


# ----------------------------------------------------------- death mid-chunk
def test_worker_death_mid_chunk_requeues_to_survivor():
    """One of two workers drops its connection after its second CHUNK
    (the test hook simulates a crash: no RESULT, no FIN handshake
    beyond the reset). The survivor must absorb the requeued points
    and the rows must still be exactly the serial rows."""
    base, points = _base(), _points(
        ("never-migrate", "always-migrate", "history", "costaware",
         "random", "distance-1", "distance-2", "addr-history")
    )
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    serial = canonical_rows(sweep_specs(base, points))

    flaky = WorkerServer(port=0, fail_after_chunks=2).start_background()
    steady = WorkerServer(port=0).start_background()
    stats: dict = {}
    try:
        with pytest.warns(RuntimeWarning, match="dropped"):
            metrics = farm_sweep(
                spec_dicts,
                {"addrs": [flaky.address, steady.address], "chunk": 1},
                stats_out=stats,
            )
    finally:
        flaky.stop()
        steady.stop()

    rows = [
        {**p, **{k: v for k, v in m.items() if k not in p}}
        for p, m in zip(points, metrics)
    ]
    assert canonical_rows(rows) == serial
    assert stats["requeues"] >= 1
    assert stats["workers"][flaky.address]["dead"] is True
    assert stats["workers"][steady.address]["dead"] is False


# -------------------------------------------------------- trace-by-reference
def test_trace_pushed_at_most_once_per_worker(workers):
    """First sweep pushes the single distinct trace once per worker;
    a second sweep against the same (warm) workers pushes nothing —
    the worker's store answers TRACE_QUERY from disk."""
    base, points = _base(), _points()
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]

    stats1: dict = {}
    farm_sweep(spec_dicts, _addrs(workers), stats_out=stats1)
    assert all(n <= 1 for n in stats1["trace_pushes"].values())
    assert sum(s.traces_installed for s in workers) == len(
        [s for s in workers if stats1["trace_pushes"].get(s.address)]
    )

    stats2: dict = {}
    farm_sweep(spec_dicts, _addrs(workers), stats_out=stats2)
    assert all(n == 0 for n in stats2["trace_pushes"].values())


def test_rewritten_trace_file_reaches_a_worker_that_cannot_open_it(
    tmp_path, monkeypatch
):
    """A ``repro worker`` started in another directory cannot open a
    relative trace path. It evaluates the coordinator's bytes of the
    file, and after the file is rewritten in place it evaluates the new
    bytes, not the copy its store took from the first sweep."""
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        cwd=elsewhere, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("repro worker listening on "), line
        addr = line.rsplit(" ", 1)[-1]
        base = _base().replace(
            workload=WorkloadSpec(name="trace-file", trace_path="t.npz")
        )
        seen = []
        # the second trace is longer, so the rewrite changes the file's
        # size as well as its mtime
        for seed, accesses in ((1, 32), (2, 48)):
            trace = runner.build_workload(WorkloadSpec(
                name="uniform",
                params={"num_threads": 4, "accesses_per_thread": accesses,
                        "seed": seed},
            ))
            save_multitrace(trace, tmp_path / "t.npz")
            serial = canonical_rows(sweep_specs(base, _points()))
            assert sweep_specs(base, _points(), farm=[addr]) == serial
            seen.append(serial)
        assert seen[0] != seen[1]
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_unreadable_trace_file_fails_its_point_before_dispatch(workers, tmp_path):
    """A trace file the coordinator cannot read fails its first point
    with the error the serial loop gives, before any worker is asked,
    so no worker evaluates some other file at that path."""
    base = _base().replace(workload=WorkloadSpec(
        name="trace-file", trace_path=str(tmp_path / "missing.npz")
    ))
    spec_dicts = [merge_spec(base, p).to_dict() for p in _points()]
    with pytest.raises(SweepPointError, match="in this process") as err:
        farm_sweep(spec_dicts, _addrs(workers))
    assert err.value.point == spec_dicts[0]
    assert all(s.chunks_served == 0 for s in workers)


# ------------------------------------------------------------- degradation
def test_zero_workers_degrades_to_local_pool():
    base, points = _base(), _points(("history", "costaware"))
    serial = canonical_rows(sweep_specs(base, points))
    # a bound-but-never-accepting port: connections are refused
    with pytest.warns(RuntimeWarning) as rec:
        rows = sweep_specs(base, points, farm=["127.0.0.1:1"])
    msgs = [str(w.message) for w in rec]
    assert any("unreachable" in m for m in msgs)
    assert any("degrading to local evaluation" in m for m in msgs)
    assert canonical_rows(rows) == serial


def test_farm_sweep_raises_farm_unavailable_directly():
    base, points = _base(), _points(("history",))
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    with pytest.warns(RuntimeWarning, match="unreachable"):
        with pytest.raises(FarmUnavailable):
            farm_sweep(spec_dicts, ["127.0.0.1:1"])


# ------------------------------------------------------------ worker errors
def test_worker_side_error_surfaces_as_sweep_point_error(workers):
    """A spec that builds on the coordinator but fails to evaluate on
    the worker (bogus scheme param) must abort the sweep with the
    exception type a local sweep raises, spec attached."""
    base = _base()
    points = [{"scheme": "history"},
              {"scheme": {"name": "distance-1", "params": {"distance": -7}}}]
    spec_dicts = [merge_spec(base, p).to_dict() for p in points]
    clear_build_memo()
    with pytest.raises(SweepPointError) as err:
        farm_sweep(spec_dicts, _addrs(workers))
    assert "worker" in str(err.value)
    assert err.value.point == spec_dicts[1]


def test_point_timeout_names_the_slow_point(workers, monkeypatch):
    """Under ``point_timeout`` every chunk is one point and the
    coordinator keeps the deadline, so the error names the point that
    overran it, never a later point of the same chunk, even when the
    farm asks for 4-point chunks."""
    spec_dicts = [merge_spec(_base(), p).to_dict() for p in _points()]
    real = runner.run_spec_dict

    def slow_first(spec):
        if spec == spec_dicts[0]:
            time.sleep(2.5)
        return real(spec)

    monkeypatch.setattr(runner, "run_spec_dict", slow_first)
    t0 = time.monotonic()
    with pytest.raises(SweepPointError, match="point_timeout") as err:
        farm_sweep(
            spec_dicts,
            {"addrs": [workers[0].address], "chunk": 4},
            point_timeout=1.0,
        )
    assert err.value.point == spec_dicts[0]
    assert "worker" in str(err.value)
    assert time.monotonic() - t0 < 2.5


# ------------------------------------------------------------ wire latency
def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_every_farm_connection_is_nodelay(workers, monkeypatch):
    """The worker writes RESULT then NEXT; with Nagle on, NEXT would
    wait for the coordinator's delayed ACK of RESULT. Both ends of
    every connection must have it off."""
    seen = {"coordinator": [], "worker": []}
    dial, session = FarmCoordinator._dial, WorkerServer._session

    def spy_dial(self, addr):
        sock = dial(self, addr)
        seen["coordinator"].append(_nodelay(sock))
        return sock

    def spy_session(self, conn, *args):
        seen["worker"].append(_nodelay(conn))
        return session(self, conn, *args)

    monkeypatch.setattr(FarmCoordinator, "_dial", spy_dial)
    monkeypatch.setattr(WorkerServer, "_session", spy_session)
    base = _base()
    farm_sweep([merge_spec(base, p).to_dict() for p in _points()], _addrs(workers))
    assert len(seen["coordinator"]) == 2 and all(seen["coordinator"])
    assert len(seen["worker"]) == 2 and all(seen["worker"])


def test_sweep_returns_as_soon_as_its_last_row_lands(workers, monkeypatch):
    """A worker that asks for work while the other holds the last chunk
    waits on the sweep's end, not out a fixed idle period: with that
    period stretched to 2 s, the sweep still returns right after its
    last row. The slow point stays well under HEDGE_MIN_SECONDS, so it
    is never hedged."""
    monkeypatch.setattr(farm_mod, "IDLE_POLL_SECONDS", 2.0)
    slow = {
        "machine": {"name": "em2", "cores": 4, "preset": "small-test"},
        "workload": {
            "name": "uniform",
            "params": {"num_threads": 4, "accesses_per_thread": 2000},
        },
    }
    base = _base()
    spec_dicts = [merge_spec(base, p).to_dict() for p in (slow, {"scheme": "history"})]
    landed: list[float] = []
    stats: dict = {}
    farm_sweep(
        spec_dicts,
        {"addrs": _addrs(workers), "chunk": 1},
        stats_out=stats,
        on_row=lambda i, row: landed.append(time.monotonic()),
    )
    returned = time.monotonic()
    assert len(landed) == 2
    assert stats["hedges"] == 0
    assert returned - landed[-1] < 0.1
