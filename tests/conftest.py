"""Shared test fixtures: an in-process campaign job server harness, a
fault injected into spec execution, part of a figure's rows, the
conservation checks and the no-reference-cycle check.

The service tests need a real :class:`~repro.service.server.JobServer`
listening on a real socket while the test thread drives it through the
synchronous :class:`~repro.service.client.ServiceClient`.  The harness
runs the server's event loop on a daemon thread, binds port 0 (the OS
picks a free port, so parallel test runs never collide) and guarantees
teardown even when a test fails mid-poll, closing the kept-alive
connections of the clients it handed out.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import threading
import weakref

import pytest

from repro.config import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.server import JobServer


class ServerHarness:
    """One live job server on a background event-loop thread."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        self.config = ServiceConfig(**config_kwargs)
        self.server = JobServer(self.config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._clients: list[ServiceClient] = []

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> "ServerHarness":
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(),
                                         self._loop).result(timeout=30)
        return self

    def stop(self) -> None:
        for client in self._clients:
            client.close()
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(),
                                             self._loop).result(timeout=60)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, name: str = "test",
               timeout: float = 60.0) -> ServiceClient:
        client = ServiceClient(port=self.port, client=name, timeout=timeout)
        self._clients.append(client)
        return client


@pytest.fixture
def job_server_factory():
    """Start job servers that are always torn down, even on failure."""
    harnesses = []

    def make(**config_kwargs) -> ServerHarness:
        harness = ServerHarness(**config_kwargs).start()
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        harness.stop()


@pytest.fixture
def failing_specs(monkeypatch):
    """Make spec execution raise for every label added to the returned set.

    The fault replaces ``repro.experiments.campaign._simulate_spec``, so
    it fires inside ``execute_spec`` wherever that runs in this process.
    Use :func:`forked_failing_specs` where pool or job-server workers
    must raise too.
    """
    from repro.experiments import campaign

    labels: set[str] = set()
    simulate = campaign._simulate_spec

    def faulty(spec, probes):
        if spec.label() in labels:
            raise RuntimeError(f"injected fault in {spec.label()}")
        return simulate(spec, probes)

    monkeypatch.setattr(campaign, "_simulate_spec", faulty)
    return labels


@pytest.fixture
def forked_failing_specs(failing_specs):
    """:func:`failing_specs` for campaign pool and job-server workers.

    Workers inherit the fault by forking, so add the labels before the
    pool or server starts work.
    """
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers must fork to inherit the injected fault")
    return failing_specs


@pytest.fixture
def figure_subset_rows():
    """Rows of a figure driver over only the cells ``keep`` accepts.

    Call as ``figure_subset_rows(module, scale, keep, campaign=None)``.
    A driver's ``rows()`` reports just the cells it is given, so this is
    how a test simulates part of a figure.
    """
    from repro.experiments.campaign import Campaign

    def rows(module, scale, keep, campaign=None):
        cells = {cell: spec for cell, spec in module.cells(scale).items()
                 if keep(cell)}
        results = (campaign or Campaign()).results(list(cells.values()))
        return module.rows(dict(zip(cells, results)))

    return rows


@pytest.fixture
def dram_writes_conserved():
    """Check a finished system's write-side identity.

    Call as ``dram_writes_conserved(system)``.  Every DRAM write is a
    write-through store or a write-back (evicted, flushed at a transition
    or drained at run end), each through ``MemoryController.write()``, and
    no dirty line outlives the run.
    """
    def check(system):
        requests = sum(mc.write_requests for mc in system.mcs)
        channel = sum(mc.channel.writes for mc in system.mcs)
        sources = sum(sl.dram_writes + sl.store.writebacks
                      for sl in system.llc_slices)
        assert requests == channel == sources
        # Cleaning a slice hands back its dirty keys: none may be left.
        assert not any(sl.clean() for sl in system.llc_slices)

    return check


def _server_fields(out: dict, name: str, server) -> None:
    out[f"{name}.jobs"] = server.jobs
    out[f"{name}.busy_cycles"] = server.busy_cycles
    out[f"{name}.busy_until"] = server.busy_until


def _topology_fields(out: dict, name: str, part) -> None:
    """Flatten a topology member: routers, links, wires and servers,
    nested in lists of any depth."""
    from repro.noc.router import RouterModel
    from repro.noc.topology import Wire
    from repro.sim.server import BandwidthServer, LatencyLink

    if isinstance(part, list):
        for i, item in enumerate(part):
            _topology_fields(out, f"{name}[{i}]", item)
    elif isinstance(part, RouterModel):
        out[f"{name}.buffer_flits"] = part.buffer_flits
        out[f"{name}.xbar_flits"] = part.xbar_flits
        out[f"{name}.packets"] = part.packets
        _topology_fields(out, f"{name}.out", part.output_ports)
    elif isinstance(part, LatencyLink):
        _server_fields(out, name, part.server)
    elif isinstance(part, BandwidthServer):
        _server_fields(out, name, part)
    elif isinstance(part, Wire):
        out[f"{name}.flits"] = part.flits


def state_fields(system) -> dict:
    """Every counter a run leaves outside its ``RunResult``, by name: SM,
    L1 and MSHR counters; slice, MC, channel and DRAM-bank counters;
    every server's ``jobs``/``busy_cycles``/``busy_until``; router and
    wire flits."""
    out: dict = {}
    for sm in system.sms:
        p = f"sm{sm.sm_id}"
        for field in ("issued_reads", "issued_writes",
                      "retired_instructions", "live_accesses",
                      "write_credits", "next_issue_time",
                      "wake_scheduled", "mshr_blocked_at"):
            out[f"{p}.{field}"] = getattr(sm, field)
        for field in ("read_hits", "read_misses", "writes"):
            out[f"{p}.l1.{field}"] = getattr(sm.l1, field)
        for field in ("hits", "misses", "evictions", "writebacks"):
            out[f"{p}.l1.store.{field}"] = getattr(sm.l1._store, field)
        for field in ("allocations", "merges", "stalls", "outstanding"):
            out[f"{p}.mshr.{field}"] = getattr(sm.mshr, field)
    for sl in system.llc_slices:
        p = f"llc{sl.slice_id}"
        for field in ("read_hits", "read_misses", "write_hits",
                      "write_misses", "response_flits", "dram_writes",
                      "window_accesses"):
            out[f"{p}.{field}"] = getattr(sl, field)
        for field in ("hits", "misses", "evictions", "writebacks"):
            out[f"{p}.store.{field}"] = getattr(sl.store, field)
        _server_fields(out, f"{p}.tag", sl.tag_port)
        _server_fields(out, f"{p}.data", sl.data_port)
    for mc in system.mcs:
        p = f"mc{mc.mc_id}"
        out[f"{p}.read_requests"] = mc.read_requests
        out[f"{p}.write_requests"] = mc.write_requests
        out[f"{p}.channel.reads"] = mc.channel.reads
        out[f"{p}.channel.writes"] = mc.channel.writes
        _server_fields(out, f"{p}.bus", mc.channel.bus)
        for b, bank in enumerate(mc.channel.banks):
            for field in ("row_hits", "row_misses", "busy_until",
                          "open_row", "last_activate"):
                out[f"{p}.bank{b}.{field}"] = getattr(bank, field)
    for name, part in sorted(vars(system.topology).items()):
        _topology_fields(out, f"noc.{name}", part)
    return out


@pytest.fixture
def tier_state():
    """Compare two finished systems' counters outside ``RunResult``.

    Call as ``tier_state(event_system, batch_system)``.  A wrong replay
    of a parked wake or a mis-grouped route-leg fold leaves the
    ``RunResult`` bytes unchanged but shows here.  Returns the number of
    fields compared.
    """
    def check(event, batch):
        want = state_fields(event)
        got = state_fields(batch)
        assert got.keys() == want.keys()
        diff = {name: (want[name], got[name]) for name in want
                if got[name] != want[name]}
        assert not diff, (f"{len(diff)} of {len(want)} state fields "
                          f"differ: {dict(list(diff.items())[:8])}")
        return len(want)

    return check


@pytest.fixture
def reads_conserved():
    """Check a finished, drained system's read-side identities.

    Call as ``reads_conserved(system)``.  Every issued read and write
    reaches the LLC exactly once, every LLC read miss is one DRAM read,
    every MSHR drains, and the retired instructions are the traces'.
    """
    def check(system):
        sms, slices = system.sms, system.llc_slices
        assert (sum(sl.read_hits + sl.read_misses for sl in slices)
                == sum(sm.issued_reads for sm in sms))
        assert (sum(sl.write_hits + sl.write_misses for sl in slices)
                == sum(sm.issued_writes for sm in sms))
        assert (sum(mc.read_requests for mc in system.mcs)
                == sum(mc.channel.reads for mc in system.mcs)
                == sum(sl.read_misses for sl in slices))
        for sm in sms:
            assert sm.mshr.outstanding == 0
            assert sm.live_accesses == 0
            assert not sm.ready
        total = sum(prog.workload.total_instructions
                    for prog in system.programs)
        assert (sum(sm.retired_instructions for sm in sms)
                == pytest.approx(total, rel=1e-12))

    return check


@pytest.fixture
def cycle_free():
    """Check that finished systems hold no reference cycle.

    Call as ``cycle_free(system)``.  The cyclic collector is paused for
    the whole test, so it builds and runs with the collector off.  Once
    the test has dropped its systems, each must already be freed by
    reference counting alone, and a collection must find nothing.
    """
    refs = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield lambda system: refs.append(weakref.ref(system))
        alive = sum(ref() is not None for ref in refs)
        assert gc.collect() == 0
        assert not alive, f"{alive} of {len(refs)} systems outlived the test"
    finally:
        if was_enabled:
            gc.enable()
