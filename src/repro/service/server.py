"""The asyncio campaign job server: HTTP/JSON over ``asyncio.start_server``.

Stdlib only: a hand-rolled HTTP/1.1 exchange (request line, headers,
``Content-Length`` body) — deliberately minimal, because the wire format
is six JSON routes, not a web framework.  Connections persist: one
connection carries any number of requests, answered in order, until the
client asks to close (``Connection: close``, or HTTP/1.0 without
``Connection: keep-alive``), sends EOF, sits idle for
:data:`IDLE_TIMEOUT_S`, or sends a request the server cannot frame
(a malformed request line, a bad ``Content-Length``, any
``Transfer-Encoding``, an oversized body).  Every reply names the
outcome in its ``Connection`` header.  The routes:

====================  =====================================================
``POST /jobs``        submit a ``{"spec": RunSpec.to_dict()}`` or
                      ``{"mix": "A:pol+B:pol", "scale": ...}`` payload;
                      returns the job id (= the spec's content key)
``GET /jobs/<id>``    job status: queued/running/done/error/cancelled,
                      queue position, timing
``DELETE /jobs/<id>`` cancel a queued job (409 while running); on a
                      terminal job, evict its record (results stay in
                      the store)
``GET /results/<k>``  the finished ``RunResult.to_dict()`` payload, verbatim
``GET /healthz``      liveness
``GET /stats``        jobs served, cache-hit rate, worker utilization,
                      HTTP connections and requests
====================  =====================================================

All orchestration state lives in a :class:`~repro.service.jobs.
JobManager` confined to the event loop (route handlers and executor
completions both run there, so the core needs no locks).  Queued specs
shard across a ``ProcessPoolExecutor`` running the campaign's executor
(:mod:`repro.service.workers`); results are published to the shared
:class:`~repro.experiments.store.ResultStore`, so they survive restarts
and a warm store answers repeat submissions without simulating.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.config import ServiceConfig, canonical_key
from repro.experiments.campaign import RunSpec, import_simulator, \
    spec_from_mix
from repro.experiments.store import ResultStore
from repro.service.jobs import DONE, ERROR, Job, JobManager, JobRejected
from repro.service.workers import execute_job

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            411: "Length Required", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Submission bodies past this size are rejected (a RunSpec payload is
#: a few KB; anything megabytes-deep is not one).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a kept-alive connection may wait for its next request before
#: the server closes it.
IDLE_TIMEOUT_S = 30.0


class _Unframed(Exception):
    """A request whose extent on the wire is unknown: answer it with
    ``status`` and close, since whatever follows cannot be parsed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # past the stream's line limit (64 KiB)
        raise _Unframed(400, "request line or header too long") from None


def _reply(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode()
    return (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n").encode() + body


class JobServer:
    """The long-running campaign service.

    Usage::

        server = JobServer(ServiceConfig(port=0, cache_dir=".repro-cache"))
        await server.start()          # server.port is now the bound port
        ...
        await server.stop()

    or, blocking: ``asyncio.run(server.run())`` (the ``repro serve``
    CLI verb).
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ResultStore(self.config.cache_dir)
        self.manager = JobManager(quota=self.config.quota,
                                  max_queue=self.config.max_queue,
                                  lookup_result=self._lookup_cached,
                                  job_ttl=self.config.job_ttl)
        self.port: Optional[int] = None
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._kick: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._busy = 0
        # Open connections and the tasks serving them, so stop() can
        # close every one; counters for /stats.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stopping = False
        self._http_connections = 0
        self._http_requests = 0

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the socket and start the dispatcher (non-blocking)."""
        # Workers fork from this process when jobs arrive; importing the
        # simulator first lets them inherit it.
        import_simulator()
        self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        self._kick = asyncio.Event()
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        """Block until cancelled; the caller then runs :meth:`stop`.

        The socket has accepted since :meth:`start`.  This deliberately
        does not await ``asyncio.Server.serve_forever()``: cancelling that
        waits for every open connection to close (Python 3.12.1 on),
        before :meth:`stop` could close the kept-alive ones.
        """
        await asyncio.get_running_loop().create_future()

    async def run(self) -> None:
        """Start and serve until cancelled (the CLI entry point)."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.stop()

    async def stop(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._server is not None:
            self._stopping = True
            self._server.close()
            # From Python 3.12.1 wait_closed() also waits for every open
            # connection, and a kept-alive client may never hang up.  So
            # drop them all (abort: a peer that stopped reading cannot
            # stall the close) and let their handlers run to the end.
            handlers = list(self._connections.values())
            for writer in self._connections:
                writer.transport.abort()  # connection_lost runs later
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # ----------------------------------------------------------- dispatch
    def _lookup_cached(self, key: str) -> Optional[dict]:
        """Store probe for submit-time cache hits.

        The load→``to_dict`` round trip is the identity for valid
        records (the campaign relies on the same property), so a cached
        submission serves exactly the bytes the original run produced.
        """
        result = self.store.load(key)
        return result.to_dict() if result is not None else None

    async def _dispatch_loop(self) -> None:
        """Fill free worker slots whenever submissions/completions kick."""
        while True:
            await self._kick.wait()
            self._kick.clear()
            while self._busy < self.config.workers:
                job = self.manager.next_job()
                if job is None:
                    break
                self._busy += 1
                asyncio.get_running_loop().create_task(self._run_job(job))

    async def _run_job(self, job: Job) -> None:
        payload = {"spec": job.spec_dict,
                   "cache_dir": self.config.cache_dir}
        loop = asyncio.get_running_loop()
        try:
            key, result_dict = await loop.run_in_executor(
                self._pool, execute_job, payload)
            self.manager.finish(key, result_dict)
        except Exception as exc:  # SpecExecutionError, BrokenProcessPool
            self.manager.fail(job.key, f"{type(exc).__name__}: {exc}")
        finally:
            self._busy -= 1
            self._kick.set()

    # --------------------------------------------------------------- http
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Answer requests in order until a close rule fires."""
        if self._stopping:  # accepted just before stop() closed the rest
            writer.transport.abort()
            return
        self._connections[writer] = asyncio.current_task()
        self._http_connections += 1
        try:
            keep_alive = True
            while keep_alive:
                try:
                    async with asyncio.timeout(IDLE_TIMEOUT_S):
                        request_line = await _readline(reader)
                    if not request_line:
                        break  # EOF between requests
                    self._http_requests += 1
                    status, payload, keep_alive = await self._handle_request(
                        request_line, reader)
                except (TimeoutError, ConnectionError):
                    break  # idle past the limit, or the peer is gone
                except _Unframed as exc:
                    status, payload, keep_alive = \
                        exc.status, {"error": str(exc)}, False
                except Exception as exc:  # a handler bug must not kill it
                    status, keep_alive = 500, False
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                writer.write(_reply(status, payload, keep_alive))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            del self._connections[writer]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, request_line: bytes,
                              reader: asyncio.StreamReader):
        """Read the rest of one request and route it.

        Returns ``(status, payload, keep_alive)``; raises
        :class:`_Unframed` when the request's end cannot be found.
        """
        parts = request_line.decode("latin-1").split()
        if len(parts) not in (2, 3):
            raise _Unframed(
                400, f"malformed request line {request_line.strip()!r}")
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) == 3 else "HTTP/0.9"
        headers = {}
        while True:
            line = await _readline(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _Unframed(
                411, f"Transfer-Encoding {headers['transfer-encoding']!r} "
                     f"is not supported; send the body with a "
                     f"Content-Length")
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _Unframed(400, f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _Unframed(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise _Unframed(400, f"body ended after {len(exc.partial)} of "
                                 f"{length} bytes") from None
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        keep_alive = "close" not in tokens \
            and (version == "HTTP/1.1" or "keep-alive" in tokens)
        status, payload = self._route(method, path, headers, body)
        return status, payload, keep_alive

    def _route(self, method: str, path: str, headers: dict, body: bytes):
        path = path.split("?", 1)[0].rstrip("/") or "/"
        # Piggyback the TTL sweep on request traffic: terminal records
        # age out without a timer task (a no-op when job_ttl is 0).
        self.manager.evict_expired()
        if path == "/jobs" and method == "POST":
            return self._post_job(headers, body)
        if path.startswith("/jobs/") and method == "GET":
            return self._get_job(path[len("/jobs/"):])
        if path.startswith("/jobs/") and method == "DELETE":
            return self._delete_job(path[len("/jobs/"):])
        if path.startswith("/results/") and method == "GET":
            return self._get_result(path[len("/results/"):])
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True,
                         "uptime_s": time.time() - self.started_at}
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path in ("/jobs", "/healthz", "/stats") \
                or path.startswith(("/jobs/", "/results/")):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no route {path!r}"}

    # ------------------------------------------------------------- routes
    def _post_job(self, headers: dict, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"bad JSON body: {exc}"}
        try:
            spec = self._spec_from_payload(payload)
            priority = int(payload.get("priority", 0))
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": str(exc) or type(exc).__name__}
        client = str(payload.get("client")
                     or headers.get("x-repro-client") or "anonymous")
        # One canonical form serves as both the content key's input and
        # the record the workers execute.
        spec_dict = spec.to_dict()
        key = canonical_key(spec_dict)
        coalesced = key in self.manager.jobs \
            and self.manager.jobs[key].state != ERROR
        try:
            job = self.manager.submit(key, spec_dict, spec.label(),
                                      priority=priority, client=client)
        except JobRejected as exc:
            return exc.status, {"error": str(exc)}
        self._kick.set()
        return 200, {
            "id": job.key,
            "label": job.label,
            "state": job.state,
            "position": self.manager.position(key),
            "coalesced": coalesced,
            "cache_hit": job.cache_hit,
        }

    def _spec_from_payload(self, payload: dict) -> RunSpec:
        """The wire's two spec spellings, one content key.

        ``spec`` is the full serialized :class:`RunSpec`; ``mix`` is the
        CLI grammar plus the same knobs the CLI offers (``scale``,
        ``default_policy``, ``max_kernels``).  Both go through the exact
        conversion local runs use, so submitting a mix over HTTP and
        typing it after ``repro run --mix`` are the same simulation.
        """
        if ("spec" in payload) == ("mix" in payload):
            raise ValueError('payload needs exactly one of "spec" or "mix"')
        if "spec" in payload:
            return RunSpec.from_dict(payload["spec"])
        return spec_from_mix(
            payload["mix"],
            scale=float(payload.get("scale", 1.0)),
            default_policy=payload.get("default_policy"),
            max_kernels=payload.get("max_kernels"))

    def _get_job(self, key: str):
        job = self.manager.get(key)
        if job is None:
            return 404, {"error": f"unknown job {key!r}"}
        return 200, job.status_dict(position=self.manager.position(key))

    def _delete_job(self, key: str):
        """``DELETE /jobs/<id>``: cancel a queued job / evict a terminal
        record (409 for a running job, 404 for an unknown one)."""
        try:
            job, evicted = self.manager.cancel(key)
        except KeyError:
            return 404, {"error": f"unknown job {key!r}"}
        except JobRejected as exc:
            return exc.status, {"error": str(exc)}
        return 200, {"id": job.key, "label": job.label,
                     "state": job.state, "evicted": evicted}

    def _get_result(self, key: str):
        job = self.manager.get(key)
        if job is not None and job.state == DONE and job.result is not None:
            return 200, job.result
        cached = self._lookup_cached(key)
        if cached is not None:
            return 200, cached
        detail = {"error": f"no result for {key!r}"}
        if job is not None:
            detail["state"] = job.state
            if job.error:
                detail["job_error"] = job.error
        return 404, detail

    def _stats(self) -> dict:
        return {
            "uptime_s": time.time() - self.started_at,
            "jobs": self.manager.stats(),
            "workers": {
                "total": self.config.workers,
                "busy": self._busy,
                "utilization": self._busy / self.config.workers,
            },
            "store": {
                "cache_dir": self.config.cache_dir,
                "hits": self.store.hits,
                "misses": self.store.misses,
                "quarantined": self.store.quarantined,
            },
            "http": {
                "connections": self._http_connections,
                "requests": self._http_requests,
            },
        }
