"""End-to-end service tests over real sockets: parity, restarts, errors.

A live :class:`~repro.service.server.JobServer` (via the conftest
harness) driven through :class:`~repro.service.client.ServiceClient`.
The headline contract: a spec submitted over HTTP produces the exact
bytes a direct in-process :func:`execute_spec` produces, and a restarted
server answers the same key from the shared store without simulating.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.campaign import execute_spec, spec_from_mix
from repro.service import server as server_module
from repro.service.client import ServiceClient, ServiceError

TINY = 0.02

#: One tiny but real simulation, spelled in the mix grammar.
MIX = "VA:static-shared"


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _tiny_spec():
    return spec_from_mix(MIX, scale=TINY, max_kernels=1)


def _spec_dict(**fields) -> dict:
    """The tiny spec's wire form with ``fields`` overwritten (dotted
    ``cfg.<name>`` keys reach into the config)."""
    data = _tiny_spec().to_dict()
    for key, value in fields.items():
        node = data
        *groups, name = key.split(".")
        for group in groups:
            node = node[group]
        node[name] = value
    return data


#: ``{"spec": ...}`` fields no simulation can run, each alone: the spec
#: is rejected where it is built, before a key or a job exists.
BAD_SPEC_FIELDS = (
    {"scale": -1}, {"scale": 0}, {"scale": float("nan")},
    {"scale": float("inf")}, {"scale": "0.5"}, {"scale": True},
    {"max_kernels": 0}, {"max_kernels": -2}, {"max_kernels": 1.5},
    {"max_kernels": None}, {"num_ctas": 0}, {"num_ctas": 2.0},
    {"collect_locality": 1}, {"with_energy": "yes"},
    {"cfg.llc_assoc": 0}, {"cfg.l1_assoc": 0}, {"cfg.line_bytes": 0},
    {"cfg.llc_latency_cycles": -3},
    {"policy_params": {"interval": 0}, "mode": "hysteresis"},
    {"placement": "striped"}, {"arrivals": "poisson"},  # no co-tenant
    {"pair_with": "GEMM", "arrivals": "poisson:gap=NaN"},  # never admits
    {"pair_with": "GEMM", "arrivals": "poisson:gap=1e308"},  # overflows
    {"mode": "warp-speed"},                             # unknown policy
    {"benchmark": "ZZZ"}, {"pair_with": "QQQ"},         # unknown benchmark
    {"cfg.noc.topology": "cxbar", "cfg.noc.concentration": 3},
)


# ------------------------------------------------------------ happy path
def test_submit_poll_fetch_parity_coalesce_and_restart(job_server_factory,
                                                       tmp_path):
    """The full service life: one spec goes over the wire, comes back
    byte-identical, coalesces on resubmission (as spec *and* as mix),
    and survives a server restart as a store-served cache hit."""
    cache = str(tmp_path / "service-cache")
    harness = job_server_factory(cache_dir=cache)
    client = harness.client("parity-test")
    spec = _tiny_spec()

    reply = client.submit_spec(spec)
    assert reply["id"] == spec.cache_key(), "the job id IS the content key"
    assert reply["coalesced"] is False
    assert reply["cache_hit"] is False

    payload = client.wait(reply["id"], timeout=240)
    direct = execute_spec(spec).to_dict()
    assert _canon(payload) == _canon(direct), \
        "service results must be byte-identical to direct execution"
    assert _canon(client.result(reply["id"])) == _canon(direct)

    status = client.job(reply["id"])
    assert status["state"] == "done"
    assert status["wall_s"] > 0

    # Resubmission coalesces — same id, no second execution — whether it
    # arrives as a serialized spec or as the equivalent mix text.
    again = client.submit_spec(spec, priority=5)
    assert again["id"] == reply["id"]
    assert again["coalesced"] is True
    as_mix = client.submit_mix(MIX, scale=TINY, max_kernels=1)
    assert as_mix["id"] == reply["id"]
    assert as_mix["coalesced"] is True

    stats = client.stats()
    assert stats["jobs"]["submitted"] == 3
    assert stats["jobs"]["coalesced"] == 2
    assert stats["jobs"]["executed"] == 1
    assert stats["workers"]["total"] == harness.config.workers
    assert stats["store"]["cache_dir"] == cache

    # Restart: a fresh server on the same store answers instantly.
    harness.stop()
    harness2 = job_server_factory(cache_dir=cache)
    client2 = harness2.client("parity-test")
    warm = client2.submit_spec(spec)
    assert warm["state"] == "done"
    assert warm["cache_hit"] is True
    assert _canon(client2.result(warm["id"])) == _canon(direct)
    assert client2.stats()["jobs"]["cache_hit_rate"] == 1.0


# ---------------------------------------------------------------- errors
def test_failing_spec_becomes_an_error_job(job_server_factory,
                                          forked_failing_specs):
    """A spec that decodes but whose simulation raises (a fault injected
    into spec execution, which the server's forked workers inherit)
    lands in the error state: wait() raises, the status carries the
    cause, and the result route says why there is none."""
    broken = _tiny_spec()
    forked_failing_specs.add(broken.label())
    harness = job_server_factory()
    client = harness.client()
    reply = client.submit_spec(broken)
    with pytest.raises(ServiceError, match="failed"):
        client.wait(reply["id"], timeout=60)
    status = client.job(reply["id"])
    assert status["state"] == "error"
    assert "injected fault" in status["error"]
    with pytest.raises(ServiceError) as exc:
        client.result(reply["id"])
    assert exc.value.status == 404
    assert exc.value.payload["state"] == "error"
    assert "injected fault" in exc.value.payload["job_error"]


def test_wire_level_rejections(job_server_factory):
    harness = job_server_factory()
    client = harness.client()

    with pytest.raises(ServiceError) as exc:
        client.job("no-such-job")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.result("no-such-key")
    assert exc.value.status == 404

    for payload in (
        {"mix": "NOPE:static-shared"},               # unknown benchmark
        {"mix": MIX, "spec": _tiny_spec().to_dict()},  # ambiguous
        {},                                          # neither spelling
        {"mix": "VA:warp-speed"},                    # unknown policy
        {"mix": "VA", "scale": -1},                  # non-positive scale
        {"mix": "VA", "scale": 0},                   # non-positive scale
        {"mix": "VA", "scale": "nan"},               # non-finite scale
        {"mix": "VA", "scale": "inf"},               # non-finite scale
        {"mix": "VA:hysteresis:interval=0"},         # window never ends
        {"mix": "VA:hysteresis:min_samples=-1"},     # divides by it
        {"mix": "VA:bandit:epsilon=7"},              # not a probability
        {"mix": "VA:hysteresis:low=NaN"},            # non-finite threshold
        *({"spec": _spec_dict(**fields)} for fields in BAD_SPEC_FIELDS),
    ):
        with pytest.raises(ServiceError) as exc:
            client.submit(payload)
        assert exc.value.status == 400, payload


def _raw(port: int, method: str, path: str, body: bytes = b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def test_raw_http_edges(job_server_factory, tmp_path):
    cache = tmp_path / "cache"
    harness = job_server_factory(cache_dir=str(cache))
    port = harness.port

    status, body = _raw(port, "POST", "/jobs", b"{not json")
    assert status == 400
    assert "bad JSON" in body["error"]

    status, body = _raw(port, "POST", "/jobs", b'"just a string"')
    assert status == 400

    status, body = _raw(port, "GET", "/jobs")  # wrong method, known path
    assert status == 405
    status, body = _raw(port, "POST", "/healthz")
    assert status == 405
    status, body = _raw(port, "DELETE", "/results/abc")
    assert status == 405

    status, body = _raw(port, "GET", "/no/such/route")
    assert status == 404

    status, body = _raw(port, "GET", "/healthz")
    assert status == 200
    assert body["ok"] is True
    assert body["uptime_s"] >= 0

    # Trailing slashes and query strings normalize onto the same routes.
    status, body = _raw(port, "GET", "/healthz/?probe=1")
    assert status == 200

    # Requests whose end cannot be found on the wire get a 4xx (never a
    # 500) and a closed connection, and the server keeps serving.
    with _Wire(port) as wire:
        wire.send(b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        status, headers, body = wire.reply()
        assert status == 400
        assert "Content-Length" in body["error"]
        assert headers["connection"] == "close"
        assert wire.closed()
    with _Wire(port) as wire:
        chunk = b'{"mix": "VA:static-shared"}'
        wire.send(b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  b"\r\n%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk))
        status, headers, body = wire.reply()
        assert 400 <= status < 500
        assert "Transfer-Encoding" in body["error"]
        assert headers["connection"] == "close"
        assert wire.closed()
    status, body = _raw(port, "GET", "/healthz")
    assert status == 200

    # A result id is a store key, never a path: ids that climb out of the
    # cache or name an absolute file answer 404 and touch nothing (no
    # read, no quarantine move).
    from repro.experiments.campaign import CACHE_VERSION
    from repro.gpu.system import RunResult

    result = RunResult(
        workload="VA", mode="shared", cycles=1.0, instructions=1.0, ipc=1.0,
        llc_accesses=0, llc_hits=0, llc_misses=0, llc_miss_rate=0.0,
        llc_response_flits=0.0, llc_response_rate=0.0, l1_miss_rate=0.0,
        dram_reads=0, dram_writes=0, dram_bytes=0.0).to_dict()
    victim = tmp_path / "victim.json"
    victim.write_text("not a record", encoding="utf-8")
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"version": CACHE_VERSION, "spec": None,
                                   "result": result}), encoding="utf-8")
    for key in ("../victim", str(tmp_path / "outside"), "..", "."):
        status, body = _raw(port, "GET", f"/results/{key}")
        assert status == 404, (key, body)
    assert victim.read_text(encoding="utf-8") == "not a record"
    assert outside.exists()
    assert not (cache / "quarantine").exists()
    assert os.listdir(cache) == []


# ------------------------------------------------------ kept-alive wire
class _Wire:
    """A raw socket that speaks just enough HTTP to read replies."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.stream = self.sock.makefile("rb")

    def __enter__(self) -> "_Wire":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stream.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def get(self, path: str, extra: str = "",
            version: str = "HTTP/1.1") -> None:
        self.send(f"GET {path} {version}\r\n{extra}\r\n".encode())

    def reply(self) -> tuple[int, dict, dict]:
        status_line = self.stream.readline()
        assert status_line, "the server closed instead of replying"
        headers = {}
        while (line := self.stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, json.loads(body)

    def closed(self) -> bool:
        """Whether the server has closed its end (EOF or reset)."""
        try:
            return self.stream.read(1) == b""
        except ConnectionResetError:
            return True


def test_two_requests_share_one_connection(job_server_factory):
    harness = job_server_factory()
    with _Wire(harness.port) as wire:
        wire.get("/healthz")
        status, headers, body = wire.reply()
        assert (status, body["ok"]) == (200, True)
        assert headers["connection"] == "keep-alive"
        wire.get("/stats")
        status, headers, body = wire.reply()
        assert status == 200
        assert body["http"] == {"connections": 1, "requests": 2}


def test_pipelined_requests_are_answered_in_order(job_server_factory):
    harness = job_server_factory()
    with _Wire(harness.port) as wire:
        # A route error (404) leaves the stream in sync: the connection
        # stays open for the requests behind it.
        wire.send(b"GET /healthz HTTP/1.1\r\n\r\n"
                  b"GET /no/such/route HTTP/1.1\r\n\r\n"
                  b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
                  b"GET /stats HTTP/1.1\r\n\r\n")
        replies = [wire.reply() for _ in range(4)]
    assert [status for status, _, _ in replies] == [200, 404, 400, 200]
    assert replies[0][2]["ok"] is True
    assert "no route" in replies[1][2]["error"]
    assert replies[3][2]["http"]["requests"] == 4
    assert all(headers["connection"] == "keep-alive"
               for _, headers, _ in replies)


@pytest.mark.parametrize("version, extra, keep_alive", [
    ("HTTP/1.0", "", False),
    ("HTTP/1.1", "Connection: close\r\n", False),
    ("HTTP/1.0", "Connection: keep-alive\r\n", True),
], ids=["http10", "connection-close", "http10-keep-alive"])
def test_close_rules(job_server_factory, version, extra, keep_alive):
    harness = job_server_factory()
    with _Wire(harness.port) as wire:
        wire.get("/healthz", extra, version)
        status, headers, _ = wire.reply()
        assert status == 200
        assert headers["connection"] == \
            ("keep-alive" if keep_alive else "close")
        if keep_alive:
            wire.get("/healthz", extra, version)
            assert wire.reply()[0] == 200
        else:
            assert wire.closed()


def test_idle_close_then_the_client_retries_once(job_server_factory,
                                                 monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    harness = job_server_factory()
    with harness.client() as client:
        client.healthz()
        with _Wire(harness.port) as wire:
            time.sleep(0.6)
            assert wire.closed(), "an idle connection must be closed"
        # The client's connection was closed while idle too: the request
        # fails on it before any reply and is resent on a fresh one.
        assert client.healthz()["ok"] is True
        assert client.stats()["http"] == {"connections": 3, "requests": 3}


def test_client_survives_a_server_restart_on_the_same_port(
        job_server_factory):
    first = job_server_factory()
    port = first.port
    client = ServiceClient(port=port, client="restart")
    assert client.healthz()["ok"] is True
    first.stop()
    second = job_server_factory(port=port)
    assert client.healthz()["ok"] is True
    assert client.stats()["http"]["connections"] == 1
    client.close()
    assert second.client().stats()["http"]["connections"] == 2


def test_stop_returns_while_a_client_holds_an_idle_connection(
        job_server_factory):
    harness = job_server_factory()
    # Not harness.client(): the harness closes its clients before stop().
    client = ServiceClient(port=harness.port)
    client.healthz()  # the client now holds an idle connection
    # ...and so do a socket that never sent a request and one idle after
    # an exchange.
    with _Wire(harness.port) as silent, _Wire(harness.port) as used:
        used.get("/healthz")
        used.reply()
        t0 = time.monotonic()
        harness.stop()
        assert time.monotonic() - t0 < 5.0
        assert silent.closed() and used.closed()
    with pytest.raises(OSError):
        client.healthz()  # nobody listens any more
    client.close()


def test_quota_keys_off_the_client_identity(job_server_factory):
    """The per-client quota charges the creator the transport names
    (``X-Repro-Client``): while alice's real job is in flight her next
    distinct key bounces with 429, bob's identical payload is admitted,
    and alice may still coalesce onto live work for free."""
    harness = job_server_factory(quota=1, workers=1)
    alice = harness.client("alice")
    bob = harness.client("bob")
    spec_a = _tiny_spec()
    spec_b = spec_from_mix("GEMM:static-shared", scale=TINY, max_kernels=1)

    first = alice.submit_spec(spec_a)  # occupies alice's one token
    with pytest.raises(ServiceError) as exc:
        alice.submit_spec(spec_b)
    assert exc.value.status == 429
    assert "alice" in str(exc.value)
    alice.submit_spec(spec_a)          # coalescing is free, even at quota
    queued = bob.submit_spec(spec_b)   # bob pays for bob's key
    assert queued["state"] == "queued"
    # Drain both so teardown isn't racing live simulations.
    alice.wait(first["id"], timeout=240)
    bob.wait(queued["id"], timeout=240)


# ----------------------------------------------------------- cancellation
def test_cancel_queued_job_then_evict_its_record(job_server_factory):
    """DELETE on a queued job cancels it; DELETE on the now-terminal
    record evicts it; DELETE on an unknown id is a 404."""
    harness = job_server_factory(workers=1)
    client = harness.client()
    # One worker: the first job occupies it, everything behind queues.
    head = client.submit_spec(_tiny_spec())
    victim = client.submit_spec(
        spec_from_mix("SN:static-shared", scale=TINY, max_kernels=1))
    straggler = client.submit_spec(
        spec_from_mix("BP:static-shared", scale=TINY, max_kernels=1))
    # The last submission is deterministically still queued (the single
    # worker is at most one job deep into the queue ahead of it).
    reply = client.cancel(straggler["id"])
    assert reply["state"] == "cancelled"
    assert reply["evicted"] is False
    assert client.job(straggler["id"])["state"] == "cancelled"
    # wait() gives up on a cancelled job at once, naming the state.
    t0 = time.monotonic()
    with pytest.raises(ServiceError, match="cancelled"):
        client.wait(straggler["id"], timeout=5)
    assert time.monotonic() - t0 < 1.0

    # Cancelling a terminal record evicts it from the job table.
    reply = client.cancel(straggler["id"])
    assert reply["evicted"] is True
    with pytest.raises(ServiceError) as exc:
        client.job(straggler["id"])
    assert exc.value.status == 404

    with pytest.raises(ServiceError) as exc:
        client.cancel("no-such-job")
    assert exc.value.status == 404

    # A cancelled key re-arms on resubmission and completes normally.
    again = client.submit_spec(
        spec_from_mix("BP:static-shared", scale=TINY, max_kernels=1))
    assert again["coalesced"] is False
    client.wait(again["id"], timeout=240)
    client.wait(head["id"], timeout=240)
    client.wait(victim["id"], timeout=240)


def test_job_ttl_evicts_terminal_records_but_not_results(job_server_factory,
                                                         tmp_path):
    """With a TTL configured, terminal job records age out of the table
    (any request triggers the sweep) while the result stays servable
    from the shared store."""
    import time as _time

    cache = str(tmp_path / "ttl-cache")
    harness = job_server_factory(cache_dir=cache, job_ttl=0.05)
    client = harness.client()
    reply = client.submit_spec(_tiny_spec())
    # Poll the *results* route, not job status: with a TTL this short the
    # record may age out between completion and the next status poll
    # (every request sweeps), while results are served from the store.
    deadline = _time.monotonic() + 240
    payload = None
    while payload is None:
        try:
            payload = client.result(reply["id"])
        except ServiceError:
            assert _time.monotonic() < deadline, "job never produced a result"
            _time.sleep(0.1)
    _time.sleep(0.2)
    client.healthz()  # any request runs the sweep
    with pytest.raises(ServiceError) as exc:
        client.job(reply["id"])
    assert exc.value.status == 404, "terminal record should have aged out"
    assert _canon(client.result(reply["id"])) == _canon(payload), \
        "eviction must not touch the stored result"
    assert client.stats()["jobs"]["evicted"] >= 1


# ------------------------------------------------------------- shutdown
SRC = Path(__file__).resolve().parents[1] / "src"


def _children(pid: int) -> set[int]:
    """Live child pids of ``pid``, from every thread's ``children`` list."""
    found = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            found.update(int(child) for child in fh.read().split())
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/"
                                       f"{os.getpid()}/children"),
                    reason="needs /proc/<pid>/task/<tid>/children")
@pytest.mark.parametrize("signum, preexec", [
    (signal.SIGTERM, None),
    (signal.SIGINT, _ignore_sigint),
], ids=["sigterm", "sigint-inherited-ignored"])
def test_serve_signal_shuts_the_worker_pool_down(signum, preexec):
    """`repro serve` stops cleanly on SIGTERM, and on SIGINT even when it
    inherited SIGINT as ignored (started in the background by a
    non-interactive shell): exit 0 and no pool worker outlives it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, preexec_fn=preexec)
    workers: set[int] = set()
    client = None
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"server failed to start: {banner!r}"
        port = int(match.group(1))
        client = ServiceClient(port=port, client="signal")
        client.run_spec(_tiny_spec(), timeout=240)
        workers = _children(proc.pid)
        assert workers, "a job ran, so the pool has workers"

        # The client holds its kept-alive connection through the signal,
        # and so does this socket, idle after one exchange.
        with _Wire(port) as wire:
            wire.get("/healthz")
            assert wire.reply()[1]["connection"] == "keep-alive"
            proc.send_signal(signum)
            assert proc.wait(timeout=10) == 0
        assert "[serve] stopped" in proc.stdout.read()
        assert not [pid for pid in workers if _alive(pid)], \
            "pool workers outlived the server"
    finally:
        if client is not None:
            client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in workers:  # never leave an orphan behind a failure
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
