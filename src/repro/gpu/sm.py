"""Streaming multiprocessor model with warp-level dependency tracking.

An SM interleaves many warps (GTO-style).  Each warp executes its access
stream *in order* and blocks on its own outstanding load — the property that
keeps all SMs marching together through a shared read-only structure (the
private-cache-friendly contention pattern) while still exposing high
memory-level parallelism for streaming kernels (many independent warps).

The SM front-end issues at most one access every ``gap_cycles`` (arithmetic
intensity / scheduler width); the MSHR file bounds distinct outstanding
lines; warps blocked on the same line merge into one MSHR entry and all wake
on its fill.

The event loop lives in :mod:`repro.gpu.system`; this class is the state.
"""

from __future__ import annotations

from collections import deque

from repro.cache.l1 import L1Cache
from repro.cache.mshr import MSHRFile
from repro.config import GPUConfig


class CTAGroup:
    """Barrier domain: the warps of one CTA on one SM.

    Tiled GPU kernels call ``__syncthreads()`` after each cooperative tile
    load; the barrier re-forms the warp convoy every tile, which is what
    keeps all SMs aligned on the same few shared lines (the serialization
    the paper measures).  ``interval`` is in accesses per warp; 0 disables
    barriers (pure streaming kernels).
    """

    __slots__ = ("interval", "live", "arrived", "parked")

    def __init__(self, interval: int, size: int):
        self.interval = interval
        self.live = size
        self.arrived = 0
        self.parked: list["WarpContext"] = []

    def release_if_complete(self, ready) -> None:
        """Wake all parked warps once every live warp has arrived."""
        if self.live > 0 and self.parked and self.arrived >= self.live:
            self.arrived = 0
            ready.extend(self.parked)
            self.parked.clear()

    def on_exhaust(self, ready) -> None:
        """A warp finished its stream: it no longer participates."""
        self.live -= 1
        self.release_if_complete(ready)


class WarpContext:
    """One warp's in-order stream position and the line it blocks on.

    A warp reads its CTA's trace in place: ``keys`` with parallel
    ``writes`` flags are the CTA's own lists, and the warp's accesses are
    positions ``start, start + stride, ...`` of them, so ``cursor`` steps
    by ``stride``.  Its barriers fall every ``group.interval`` accesses,
    at positions ``start + k * group.interval * stride``."""

    __slots__ = ("keys", "writes", "cursor", "stride", "waiting_on",
                 "group", "next_barrier")

    def __init__(self, keys: list[int], writes: list[bool],
                 group: CTAGroup | None = None, start: int = 0,
                 stride: int = 1):
        self.keys = keys
        self.writes = writes
        self.cursor = start
        self.stride = stride
        self.waiting_on: int | None = None
        self.group = group
        self.next_barrier = (start + group.interval * stride
                             if group is not None and group.interval else None)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.keys)

    @property
    def at_barrier(self) -> bool:
        return (self.next_barrier is not None
                and self.cursor >= self.next_barrier
                and not self.exhausted)


class StreamingMultiprocessor:
    """Per-SM architectural state for one kernel at a time."""

    def __init__(self, sm_id: int, cfg: GPUConfig):
        self.sm_id = sm_id
        self.cluster_id = sm_id // cfg.sms_per_cluster
        self.cfg = cfg
        self.l1 = L1Cache(cfg.l1_size_kb, cfg.l1_assoc, cfg.line_bytes,
                          name=f"sm{sm_id}.l1")
        self.mshr = MSHRFile(cfg.max_outstanding_misses, name=f"sm{sm_id}.mshr")
        self.warps: list[WarpContext] = []
        self.ready: deque[WarpContext] = deque()
        self.l1_bypass_lo = 0
        self.l1_bypass_hi = 0
        # Store-buffer credits: writes are fire-and-forget but bounded; a
        # full buffer stalls the front-end until a write retires downstream.
        self.write_credits = 16
        self.live_accesses = 0          # unconsumed accesses this kernel
        self.gap_cycles = 1.0
        self.instrs_per_access = 4.0
        self.next_issue_time = 0.0
        self.wake_scheduled = False
        # Instant the front end last parked on a full MSHR file (-1.0 when
        # not parked).  The system uses it to coalesce same-instant wakeups
        # that provably cannot unblock the SM (see GPUSystem._on_write_retired).
        self.mshr_blocked_at = -1.0
        # A batch-tier wake held back from the event queue because it can
        # only stall on the full MSHR file: its (time, seq), else None
        # (see repro.gpu.batchpath).
        self.parked_wake: tuple[float, int] | None = None
        self.program_id = 0
        # Lifetime stats.
        self.retired_instructions = 0.0
        self.issued_reads = 0
        self.issued_writes = 0

    # -------------------------------------------------------------- kernel
    def load_kernel(self, cta_streams: list[tuple[list[int], list[bool]]],
                    warps_per_cta: int, instrs_per_access: float,
                    now: float, barrier_interval: int = 0,
                    l1_bypass_lo: int = 0, l1_bypass_hi: int = 0) -> None:
        """Install a kernel: split each assigned CTA into ``warps_per_cta``
        interleaved warp streams sharing one barrier group.  Flushes the L1
        (software coherence at kernel boundaries, Section 4.1)."""
        if warps_per_cta <= 0:
            raise ValueError("warps_per_cta must be positive")
        self.l1.flush()
        self.mshr.clear()
        # Warp w of a CTA takes accesses w, w + warps_per_cta, ... of the
        # CTA's own lists (no copy); a CTA shorter than warps_per_cta gets
        # one warp per access.
        self.warps = warps = []
        live = 0
        for keys, writes in cta_streams:
            n = min(warps_per_cta, len(keys))
            group = CTAGroup(barrier_interval, n)
            warps.extend([WarpContext(keys, writes, group, w, warps_per_cta)
                          for w in range(n)])
            live += len(keys)
        self.ready = deque(self.warps)
        self.l1_bypass_lo = l1_bypass_lo
        self.l1_bypass_hi = l1_bypass_hi
        self.write_credits = 16
        self.live_accesses = live
        self.gap_cycles = max(instrs_per_access / self.cfg.schedulers_per_sm,
                              1e-6)
        self.instrs_per_access = instrs_per_access
        self.next_issue_time = now
        self.mshr_blocked_at = -1.0

    # -------------------------------------------------------------- status
    @property
    def drained(self) -> bool:
        """True when every access is consumed and no fill is outstanding."""
        return self.live_accesses == 0 and self.mshr.outstanding == 0

    def retire_access(self) -> None:
        self.retired_instructions += self.instrs_per_access
        self.live_accesses -= 1

    def wake_warps(self, line_key: int, waiters: list[WarpContext]) -> None:
        """Unblock the primary requester and all merged waiters of a fill."""
        for warp in waiters:
            if warp.waiting_on == line_key:
                warp.waiting_on = None
                if not warp.exhausted:
                    self.ready.append(warp)

    def requeue(self, warp: WarpContext) -> None:
        """Return a warp to the ready queue after a consumed access, or
        retire it from its barrier group when its stream is done."""
        if warp.exhausted:
            if warp.group is not None:
                warp.group.on_exhaust(self.ready)
        else:
            self.ready.append(warp)

    def bypasses_l1(self, line_key: int) -> bool:
        """Read-only shared loads marked cache-global skip the L1."""
        return self.l1_bypass_lo <= line_key < self.l1_bypass_hi

    def stall_until(self, time: float) -> None:
        """Push the next issue opportunity out (reconfiguration stalls)."""
        if time > self.next_issue_time:
            self.next_issue_time = time
