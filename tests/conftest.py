"""Shared test fixtures: an in-process campaign job server harness, a
fault injected into spec execution, part of a figure's rows, and the
write-side DRAM conservation check.

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
import multiprocessing
import threading

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
