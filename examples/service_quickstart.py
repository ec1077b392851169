#!/usr/bin/env python3
"""Quickstart for the campaign job server: submit, poll, fetch, resubmit.

Starts ``repro serve`` as a subprocess on an ephemeral port, drives it
through :class:`repro.service.client.ServiceClient`:

1. submit a heterogeneous two-program mix (the CLI grammar, over HTTP),
2. poll the job to completion and fetch its ``RunResult`` payload,
3. resubmit the identical mix and observe it coalesce (no re-simulation),
4. check that the client's requests shared kept-alive connections
   (``/stats`` counts both),
5. restart the server on the same cache directory and observe the
   store-served cache hit,
6. stop each server with SIGTERM while the client still holds its idle
   connection, and check that it exits 0 and takes its pool workers
   with it (read from ``/proc``, so Linux only).

Exit status is non-zero when any of those contracts is violated, which
is why CI's ``service-smoke`` job runs this file verbatim.

Run:  PYTHONPATH=src python examples/service_quickstart.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.service.client import ServiceClient

MIX = "GEMM:paper-adaptive+SN:static-private"
SCALE = 0.05


def start_server(cache_dir: str) -> tuple:
    """Launch ``repro serve`` on port 0; return (process, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    if not match:
        proc.terminate()
        raise SystemExit(f"server failed to start: {banner!r}")
    return proc, int(match.group(1))


def children(pid: int) -> set:
    """Child pids of ``pid`` (the server's pool workers)."""
    found = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as fh:
            found.update(int(child) for child in fh.read().split())
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server; it must exit 0 and leave no worker behind."""
    workers = children(proc.pid)
    proc.terminate()
    code = proc.wait(timeout=30)
    leaked = sorted(pid for pid in workers if alive(pid))
    for pid in leaked:
        os.kill(pid, signal.SIGKILL)
    if code != 0 or leaked:
        raise SystemExit(f"server stop: exit {code}, leaked workers "
                         f"{leaked or 'none'}")
    print(f"[stop]   server exited 0, {len(workers)} workers gone")


def wait_healthy(client: ServiceClient, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.healthz()
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise SystemExit("server never became healthy")
            time.sleep(0.1)


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-service-")
    proc, port = start_server(cache_dir)
    try:
        client = ServiceClient(port=port, client="quickstart")
        wait_healthy(client)

        # 1. Submit a heterogeneous mix — exactly what
        #    `repro run --mix` would simulate locally.
        reply = client.submit_mix(MIX, scale=SCALE, priority=5)
        print(f"[submit] {reply['label']}  id={reply['id'][:12]}…  "
              f"state={reply['state']}")
        assert reply["coalesced"] is False

        # 2. Poll to completion, fetch the RunResult payload.
        t0 = time.monotonic()
        payload = client.wait(reply["id"], timeout=600)
        print(f"[done]   IPC={payload['ipc']:.2f}  "
              f"llc_miss_rate={payload['llc_miss_rate']:.3f}  "
              f"({time.monotonic() - t0:.1f}s)")

        # 3. The identical mix coalesces onto the finished job: same id,
        #    same bytes, zero additional simulations.
        again = client.submit_mix(MIX, scale=SCALE)
        assert again["id"] == reply["id"], "content key must be stable"
        assert again["coalesced"] is True, "duplicate must coalesce"
        assert json.dumps(client.result(again["id"]), sort_keys=True) \
            == json.dumps(payload, sort_keys=True), "bytes must match"
        stats = client.stats()["jobs"]
        print(f"[stats]  submitted={stats['submitted']} "
              f"coalesced={stats['coalesced']} "
              f"executed={stats['executed']}")
        assert stats["executed"] == 1, "exactly one simulation"

        # 4. One client keeps one connection open across its requests.
        http = client.stats()["http"]
        print(f"[http]   {http['requests']} requests over "
              f"{http['connections']} connections")
        assert http["requests"] > http["connections"], \
            "requests must share kept-alive connections"
    finally:
        stop_server(proc)

    # 5. A fresh server on the warm cache directory serves the same key
    #    from the store — results survive restarts.
    proc, port = start_server(cache_dir)
    try:
        client = ServiceClient(port=port, client="quickstart")
        wait_healthy(client)
        warm = client.submit_mix(MIX, scale=SCALE)
        assert warm["state"] == "done", "warm store must answer instantly"
        assert warm["cache_hit"] is True
        assert json.dumps(client.result(warm["id"]), sort_keys=True) \
            == json.dumps(payload, sort_keys=True), "restart changed bytes"
        print(f"[warm]   restart served {warm['id'][:12]}… from the "
              f"store (cache_hit={warm['cache_hit']})")
    finally:
        stop_server(proc)
    print("[ok]     submit -> poll -> fetch -> coalesce -> restart hit")


if __name__ == "__main__":
    main()
