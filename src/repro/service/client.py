"""Thin synchronous client for the campaign job server.

``http.client`` only — no dependencies, usable from tests, scripts, and
worker-side tooling alike.  The client mirrors the five wire routes
one-to-one and adds exactly one convenience: :meth:`ServiceClient.wait`,
the submit→poll→fetch loop every consumer would otherwise re-write.

This is also the substrate future campaign-steering work talks to: a
steering loop is "submit the next uncertain specs, wait, read results",
which is precisely :meth:`submit_spec` + :meth:`wait`.

A client keeps one HTTP/1.1 connection open across requests (the server
serves many requests per connection), so a round trip costs no TCP
handshake.  It is not thread-safe: give each thread its own client.
Call :meth:`ServiceClient.close` (or use the client as a context
manager) to drop the connection; a later request simply reopens it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Optional, Union

from repro.experiments.campaign import RunSpec
from repro.gpu.results import RunResult


class ServiceError(RuntimeError):
    """A non-2xx reply (or an ``error``-state job from :meth:`wait`).

    ``status`` is the HTTP status code (0 for job-state failures);
    ``payload`` is the decoded error body when there was one.
    """

    def __init__(self, message: str, status: int = 0,
                 payload: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


#: How a request sent on a kept-alive connection fails when the server
#: closed that connection first (idle limit, restart).  The server closes
#: only between requests, so such a request was never read.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError,
                     BrokenPipeError)


class ServiceClient:
    """Talk to one :class:`~repro.service.server.JobServer` over one
    kept-alive connection.

    Not thread-safe: use one client per thread.  A request that fails on
    a reused connection before any reply (the server dropped the idle
    connection, or restarted) is resent once on a fresh connection; any
    other failure closes the connection and raises.

    Args:
        host/port: the server address.
        client: client name sent with every submission (quota identity).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642,
                 client: str = "anonymous", timeout: float = 30.0):
        self.host = host
        self.port = port
        self.client = client
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Close the connection (the next request opens a new one)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- transport
    def _send(self, method: str, path: str,
              body: Optional[bytes]) -> http.client.HTTPResponse:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=self.timeout)
        self._conn.request(method, path, body=body,
                           headers={"Content-Type": "application/json",
                                    "X-Repro-Client": self.client})
        return self._conn.getresponse()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else None
        reused = self._conn is not None
        try:
            try:
                response = self._send(method, path, body)
            except _STALE_CONNECTION:
                if not reused:
                    raise
                self.close()
                response = self._send(method, path, body)
            raw = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            data = {"error": raw.decode("utf-8", "replace")}
        if not 200 <= response.status < 300:
            raise ServiceError(
                data.get("error", f"HTTP {response.status} on {path}"),
                status=response.status, payload=data)
        return data

    # -------------------------------------------------------------- verbs
    def submit(self, payload: dict) -> dict:
        """``POST /jobs`` with a raw wire payload; returns the reply."""
        payload = dict(payload)
        payload.setdefault("client", self.client)
        return self._request("POST", "/jobs", payload)

    def submit_spec(self, spec: Union[RunSpec, dict],
                    priority: int = 0) -> dict:
        """Submit a :class:`RunSpec` (or its ``to_dict`` form)."""
        spec_dict = spec.to_dict() if isinstance(spec, RunSpec) else spec
        return self.submit({"spec": spec_dict, "priority": priority})

    def submit_mix(self, mix: str, scale: float = 1.0,
                   priority: int = 0, default_policy: Optional[str] = None,
                   max_kernels: Optional[int] = None) -> dict:
        """Submit a ``BENCH[:POLICY[:k=v]]+...`` mix declaration."""
        payload = {"mix": mix, "scale": scale, "priority": priority}
        if default_policy is not None:
            payload["default_policy"] = default_policy
        if max_kernels is not None:
            payload["max_kernels"] = max_kernels
        return self.submit(payload)

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: the status payload."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, key: str) -> dict:
        """``GET /results/<key>``: the ``RunResult.to_dict()`` payload."""
        return self._request("GET", f"/results/{key}")

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/<id>``: cancel a queued job or evict a terminal
        record.  Raises :class:`ServiceError` with status 409 when the
        job is already running (wait for it instead)."""
        return self._request("DELETE", f"/jobs/{job_id}")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    # ------------------------------------------------------- conveniences
    def wait(self, job_id: str, timeout: float = 300.0,
             poll_interval: float = 0.1) -> dict:
        """Poll until the job finishes; returns the result payload.

        Raises :class:`ServiceError` when the job errors, is cancelled
        or the timeout expires.  The poll interval is the trade the cache
        TTL already made for us: jobs are seconds-to-minutes, so
        sub-second polling is cheap against a local server and
        responsive enough.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] == "done":
                return self.result(job_id)
            if status["state"] == "error":
                raise ServiceError(
                    f"job {status.get('label', job_id)} failed: "
                    f"{status.get('error')}", payload=status)
            if status["state"] == "cancelled":
                raise ServiceError(
                    f"job {status.get('label', job_id)} was cancelled",
                    payload=status)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:g}s waiting on "
                    f"{status.get('label', job_id)} "
                    f"(state {status['state']})", payload=status)
            time.sleep(poll_interval)

    def run_spec(self, spec: Union[RunSpec, dict],
                 priority: int = 0, timeout: float = 300.0) -> RunResult:
        """Submit a spec and block for its :class:`RunResult`.

        The remote sibling of ``Campaign.result``: same spec in, same
        (byte-identical) result out.
        """
        reply = self.submit_spec(spec, priority=priority)
        payload = self.wait(reply["id"], timeout=timeout)
        return RunResult.from_dict(payload)
