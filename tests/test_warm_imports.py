"""Which modules a process loads: warm commands skip the simulator, pool
parents load it before forking.

A command served from the result cache (argument parsing, spec keys,
store reads, rows and rendering) never builds a ``GPUSystem``, so it
must not pay for importing one.  A process that forks workers must
import the simulator *before* its pool starts, so that every worker
inherits it rather than importing its own copy.  Both are properties of
a fresh interpreter, so each check runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Module prefixes a warm command must not load: the system and its
#: accelerated tier, the engine, the cache/NoC/memory models, the check
#: engine and the job server.
SIMULATOR = ("repro.gpu.system", "repro.gpu.batchpath", "repro.sim.engine",
             "repro.cache", "repro.noc", "repro.mem",
             "repro.analysis.checker", "repro.service.server")

SWEEP = ["sweep", "--benchmarks", "VA", "--modes", "shared,adaptive",
         "--scale", "0.02"]

_WARM_SWEEP = """
import contextlib, io, json, sys
import repro.cli
after_import = sorted(m for m in sys.modules if m.startswith("repro"))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "import": after_import,
                  "sweep": sorted(m for m in sys.modules
                                  if m.startswith("repro"))}))
"""


def _probe(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300, check=True)
    return json.loads(proc.stdout)


def _simulator(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in SIMULATOR)]


def test_a_warm_sweep_imports_no_simulator_module(tmp_path, capsys):
    argv = SWEEP + ["--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "[campaign] 2 simulations, 0 disk-cache hits" in cold

    probe = _probe(_WARM_SWEEP, json.dumps(argv))
    assert probe["code"] == 0
    assert "[campaign] 0 simulations, 2 disk-cache hits" in probe["stdout"]
    # The warm run prints the cold run's rows.
    rows = [line for line in cold.splitlines() if not line.startswith("[")]
    assert [line for line in probe["stdout"].splitlines()
            if not line.startswith("[")] == rows
    assert _simulator(probe["import"]) == []
    assert _simulator(probe["sweep"]) == []


_CAMPAIGN_POOL = """
import json, sys
import multiprocessing.pool
from repro.experiments.campaign import Campaign, RunSpec

seen = {"before": "repro.gpu.system" in sys.modules}
init = multiprocessing.pool.Pool.__init__

def recording(self, *args, **kwargs):
    seen.setdefault("pool", "repro.gpu.system" in sys.modules)
    init(self, *args, **kwargs)

multiprocessing.pool.Pool.__init__ = recording
campaign = Campaign(jobs=2)
campaign.prefetch([RunSpec.single("VA", mode, scale=0.02, max_kernels=1)
                   for mode in ("shared", "private")])
seen["executed"] = campaign.executed
print(json.dumps(seen))
"""

_JOB_SERVER_POOL = """
import asyncio, concurrent.futures, json, sys
from repro.config import ServiceConfig
from repro.service.server import JobServer

seen = {"before": "repro.gpu.system" in sys.modules}
init = concurrent.futures.ProcessPoolExecutor.__init__

def recording(self, *args, **kwargs):
    seen.setdefault("pool", "repro.gpu.system" in sys.modules)
    init(self, *args, **kwargs)

concurrent.futures.ProcessPoolExecutor.__init__ = recording

async def start_and_stop():
    server = JobServer(ServiceConfig(port=0, workers=2))
    await server.start()
    await server.stop()

asyncio.run(start_and_stop())
print(json.dumps(seen))
"""


@pytest.mark.parametrize("script", [_CAMPAIGN_POOL, _JOB_SERVER_POOL],
                         ids=["campaign-prefetch", "job-server-start"])
def test_pool_parents_import_the_simulator_before_forking(script):
    """The parent loads the simulator right before its pool exists (and
    not earlier, at import), so the workers forked from it inherit it."""
    seen = _probe(script)
    assert seen["before"] is False
    assert seen["pool"] is True
    if "executed" in seen:
        assert seen["executed"] == 2
