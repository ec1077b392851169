"""Layer attribution for the benchmark's traced run.

Two instruments, both kept in memory and written out once at exit:

* :func:`fold` turns a ``cProfile`` run into each layer's self seconds.
  Every function defined under the ``repro`` package maps to exactly one
  layer through :data:`PACKAGE_LAYERS`/:data:`MODULE_LAYERS`; inside the
  accelerated-tier files the per-closure table :data:`CLOSURE_LAYERS`
  splits the specialised request pipeline back into cache, NoC and DRAM
  work (under the accelerated tiers most host time sits in those
  closures, so a per-module fold alone would credit it all to ``gpu``).
  Time spent in the standard library and in builtins is credited to the
  ``repro`` callers that caused it, in proportion to each caller's share;
  time blocked waiting on other processes is dropped.
* :class:`Tracer` records spans around the public entry points of each
  layer: name, layer, start, end and parent span.

A ``repro`` module that maps to no layer raises :class:`UnmappedFrames`,
so a new package cannot silently drop out of the split.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Layers in pipeline order; the traced run reports ``<layer>.self_s``.
LAYERS = ("sim", "gpu", "cache", "noc", "mem", "policy", "workloads",
          "experiments", "service")

#: ``repro`` subpackage -> layer.
PACKAGE_LAYERS = {
    "sim": "sim",
    "gpu": "gpu",
    "power": "gpu",
    "cache": "cache",
    "noc": "noc",
    "mem": "mem",
    "core": "policy",
    "policy": "policy",
    "workloads": "workloads",
    "consolidate": "workloads",
    "experiments": "experiments",
    "report": "experiments",
    "metrics": "experiments",
    "analysis": "experiments",
    "service": "service",
}

#: Top-level ``repro`` module (file stem) -> layer.
MODULE_LAYERS = {
    "__init__": "gpu",
    "config": "gpu",
    "scenario": "workloads",
    "__main__": "experiments",
    "cli": "experiments",
    "bench": "experiments",
}

#: Modules whose nested closures replace the event tier's pipeline stages.
TIER_MODULES = ("gpu/fastpath.py", "gpu/batchpath.py")

#: Accelerated-tier closure name -> layer.  Tier functions not listed here
#: (installers, flush and fold helpers, new closures) stay in ``gpu``, the
#: tier's own layer, so a tier refactor cannot break the traced run.
CLOSURE_LAYERS = {
    "read_s": "cache",
    "fill_s": "cache",
    "reply_s": "cache",
    "write_s": "cache",
    "read_at_slice": "cache",
    "fill_at_slice": "cache",
    "write_at_slice": "cache",
    "launch_reply": "cache",
    "request_network": "noc",
    "dram_access": "mem",
    "dram_write": "mem",
    "mc_write": "mem",
}


#: Builtins that block on another process or the clock.  Their time is
#: waiting, not work of the layer that called them, so :func:`fold` drops
#: it (the campaign pool, the job server and poll loops would otherwise
#: show up as ``experiments``/``service`` self time).
WAITS = frozenset({
    "<method 'acquire' of '_thread.lock' objects>",
    "<built-in method time.sleep>",
    "<built-in method select.select>",
    "<method 'poll' of 'select.poll' objects>",
    "<method 'recv_into' of '_socket.socket' objects>",
    "<method 'connect' of '_socket.socket' objects>",
    "<built-in method posix.waitpid>",
    "<built-in method posix.read>",
})


class UnmappedFrames(RuntimeError):
    """Profiled ``repro`` code that no layer claims."""


def repro_root() -> str:
    """Directory of the imported ``repro`` package (with a trailing
    separator, ready for prefix tests)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str, funcname: str, root: str) -> Optional[str]:
    """Layer of one profiled function; ``None`` outside ``repro``.

    Raises :class:`UnmappedFrames` for ``repro`` code no table covers.
    """
    if not filename.startswith(root):
        return None
    rel = filename[len(root):].replace(os.sep, "/")
    if rel in TIER_MODULES:
        return CLOSURE_LAYERS.get(funcname, "gpu")
    head, _, rest = rel.partition("/")
    layer = (PACKAGE_LAYERS.get(head) if rest
             else MODULE_LAYERS.get(head[:-3] if head.endswith(".py")
                                    else head))
    if layer is None:
        raise UnmappedFrames(f"repro/{rel} ({funcname}) maps to no layer; "
                             f"add it to benchmarks/e2e/layers.py")
    return layer


def fold(stats: dict, root: Optional[str] = None) -> dict[str, float]:
    """Fold ``pstats.Stats(...).stats`` into self time per layer.

    ``repro`` functions count their own ``tottime``.  Any other function
    (stdlib, builtins) spreads its ``tottime`` over its callers in
    proportion to the time each caller spent in it, recursively, until it
    reaches ``repro`` code; time whose callers lead only outside ``repro``
    (the benchmark driver itself) and :data:`WAITS` are left out.
    """
    root = root or repro_root()
    unmapped: set[str] = set()
    direct: dict[tuple, Optional[str]] = {}
    for func in stats:
        filename, _, funcname = func
        try:
            direct[func] = layer_of(filename, funcname, root)
        except UnmappedFrames as exc:
            unmapped.add(str(exc))
            direct[func] = None
    if unmapped:
        raise UnmappedFrames("; ".join(sorted(unmapped)))

    shares: dict[tuple, dict[str, float]] = {}

    def share(func: tuple) -> dict[str, float]:
        layer = direct.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {}  # breaks recursion cycles
        callers = {c: v for c, v in stats[func][4].items() if c in stats}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            for layer, frac in share(caller).items():
                out[layer] = out.get(layer, 0.0) + frac * weight / total
        shares[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, entry in stats.items():
        if func[0] == "~" and func[2] in WAITS:
            continue
        for layer, frac in share(func).items():
            self_s[layer] += entry[2] * frac
    return self_s


class Tracer:
    """In-memory span recorder around public entry points.

    Spans are dicts ``{"id", "name", "layer", "start", "end", "parent"}``
    with times in seconds since the tracer was created.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []
        self._suspended = 0

    @contextmanager
    def span(self, name: str, layer: str):
        if self._suspended:
            yield
            return
        sid = len(self.spans)
        record = {"id": sid, "name": name, "layer": layer,
                  "start": time.perf_counter() - self.t0, "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0

    @contextmanager
    def suspended(self):
        """Record nothing inside (the driver's own checks call the same
        entry points the program does)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def wrap(self, owner: object, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point the benchmark reports spans for."""
        from repro.experiments.campaign import Campaign
        from repro.experiments.store import ResultStore
        from repro.gpu.system import GPUSystem, RunResult
        from repro.report.builder import ReportBuilder
        from repro.service.client import ServiceClient

        self.wrap(GPUSystem, "__init__", "gpu")
        self.wrap(GPUSystem, "run", "sim")
        self.wrap(RunResult, "to_dict", "gpu")
        self.wrap(ResultStore, "load", "experiments")
        self.wrap(ResultStore, "store", "experiments")
        self.wrap(Campaign, "prefetch", "experiments")
        self.wrap(ReportBuilder, "build", "experiments")
        for verb in ("submit", "job", "result", "stats", "healthz"):
            self.wrap(ServiceClient, verb, "service")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def durations(self, name: str) -> list[float]:
        """Durations (s) of the finished spans called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]
