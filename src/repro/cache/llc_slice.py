"""Memory-side LLC slice.

A slice couples a set-associative tag/data store with two bandwidth servers:

* the *tag port* admits one request per cycle;
* the *data port* moves one flit per cycle into the reply network, so a
  128-byte line on a 32-byte channel occupies the port for 4 cycles.

The data port is the physical origin of the paper's phenomenon: when every
cluster hammers one shared line, all responses serialize on a single slice's
data port under shared caching, while private caching replicates the line so
each cluster's copy streams from a different port in parallel.

Write policy is switchable at runtime: *write-back* under shared caching,
*write-through* under private caching (required for GPU software coherence,
Section 4.1).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.setassoc import SetAssocCache
from repro.sim.server import BandwidthServer


class LLCSlice:
    """One LLC slice attached to a memory controller.

    Parameters
    ----------
    slice_id:
        Global slice index (``mc_id * slices_per_mc + local_id``).
    num_sets, assoc:
        Geometry per Table 1 (96 KB, 16-way, 128 B lines => 48 sets, indexed
        by modulo).
    line_flits:
        Body flits per cache line on the reply network.
    latency:
        Pipelined access latency in cycles (Table 1: 120).
    """

    def __init__(self, slice_id: int, num_sets: int, assoc: int,
                 line_flits: int, latency: float):
        self.slice_id = slice_id
        self.store = SetAssocCache(num_sets, assoc, name=f"llc{slice_id}")
        self.tag_port = BandwidthServer(f"llc{slice_id}.tag")
        self.data_port = BandwidthServer(f"llc{slice_id}.data")
        self.line_flits = line_flits
        #: float mirror of ``line_flits``: the bandwidth servers take float
        #: occupancies, and converting once here keeps the per-access path
        #: free of ``float()`` calls.
        self._line_flits_f = float(line_flits)
        self.latency = latency
        self.write_through = False
        # stats
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.response_flits = 0.0
        self.dram_writes = 0
        # per-window access count, used for measured (shared-mode) LSP
        self.window_accesses = 0

    # ------------------------------------------------------------- access
    def access(self, now: float, line_key: int, is_write: bool,
               write_through: Optional[bool] = None
               ) -> tuple[bool, float, Optional[int], bool]:
        """Process a request arriving at ``now``.

        ``write_through`` overrides the slice's default write policy for
        this request: under multi-program co-execution, a private-mode
        application's stores are write-through while a shared-mode
        co-runner's stores stay write-back in the same physical slice
        (Section 4.1's mixed-mode operation).

        Returns ``(hit, port_done, writeback_key, dram_write)``:

        * ``hit`` — tag lookup outcome;
        * ``port_done`` — time the slice finishes driving the access through
          its ports (read hit: response tail flit leaves; miss: tag resolve
          only, DRAM turnaround is threaded by the caller);
        * ``writeback_key`` — a dirty victim line that must be written to
          DRAM, or None;
        * ``dram_write`` — True when the write must also go to DRAM
          (write-through mode or a non-allocating store).
        """
        self.window_accesses += 1
        wt = self.write_through if write_through is None else write_through
        tag_done = self.tag_port.enqueue(now, 1.0)
        res = self.store.access(line_key, is_write=is_write and not wt)

        writeback_key = res.evicted_key if res.evicted_dirty else None
        dram_write = False

        if is_write:
            if res.hit:
                self.write_hits += 1
            else:
                self.write_misses += 1
            # Absorb the incoming data flits at the data port.
            port_done = self.data_port.enqueue(tag_done, self._line_flits_f)
            if wt:
                dram_write = True
                self.dram_writes += 1
            return res.hit, port_done, writeback_key, dram_write

        if res.hit:
            self.read_hits += 1
            exit_time = self.data_port.enqueue(tag_done, self._line_flits_f)
            self.response_flits += self.line_flits + 1  # body + head flit
            return True, exit_time + self.latency, writeback_key, False

        self.read_misses += 1
        return False, tag_done, writeback_key, False

    def fill_response(self, dram_done: float) -> float:
        """Stream a DRAM fill through the data port toward the requester.
        Returns the tail-flit exit time (before reply-network traversal)."""
        exit_time = self.data_port.enqueue(dram_done, self._line_flits_f)
        self.response_flits += self.line_flits + 1
        return exit_time

    # --------------------------------------------------------- management
    def set_write_policy(self, write_through: bool) -> None:
        """Switch write policy.  Callers must clean/flush first when moving
        from write-back to write-through (handled by the reconfigurator)."""
        self.write_through = write_through

    def flush(self) -> tuple[int, list[int]]:
        """Invalidate all lines; returns (valid count, dirty keys)."""
        return self.store.flush()

    def clean(self) -> list[int]:
        """Mark dirty lines clean, keep contents; returns their sorted keys."""
        return self.store.clean()

    # -------------------------------------------------------------- stats
    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_window(self) -> None:
        self.window_accesses = 0

    def reset_stats(self) -> None:
        self.read_hits = self.read_misses = 0
        self.write_hits = self.write_misses = 0
        self.response_flits = 0.0
        self.dram_writes = 0
        self.window_accesses = 0
        self.store.reset_stats()
