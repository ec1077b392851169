"""Memory controller: the drain point behind each group of LLC slices.

Each controller owns one :class:`~repro.mem.dram.DRAMChannel` and serves the
LLC misses, write-throughs and writebacks of its memory partition.  The
controller is where DRAM traffic statistics are collected for the energy
model (write-through private mode inflates DRAM traffic — Section 6.2).
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.mem.address_map import AddressMapping
from repro.mem.dram import DRAMChannel


class MemoryController:
    """One of the GPU's memory controllers (Table 1: 8 total)."""

    def __init__(self, mc_id: int, cfg: GPUConfig, mapping: AddressMapping):
        self.mc_id = mc_id
        self.mapping = mapping
        self.channel = DRAMChannel(
            name=f"mc{mc_id}",
            timing=cfg.dram_timing,
            num_banks=cfg.dram_banks_per_mc,
            bytes_per_cycle=cfg.dram_bytes_per_cycle_per_mc,
            line_bytes=cfg.line_bytes,
        )
        self.read_requests = 0
        self.write_requests = 0

    def read(self, now: float, line_key: int) -> float:
        """Fetch a line; returns data-ready time at the LLC slice."""
        self.read_requests += 1
        return self.channel.access(now, line_key,
                                   self.mapping.bank_of(line_key),
                                   is_write=False)

    def write(self, now: float, line_key: int) -> float:
        """Retire a writeback/write-through line (fire-and-forget for the
        requester, but it still occupies bank and bus)."""
        self.write_requests += 1
        return self.channel.access(now, line_key,
                                   self.mapping.bank_of(line_key),
                                   is_write=True)

    # -------------------------------------------------------------- stats
    @property
    def total_requests(self) -> int:
        return self.read_requests + self.write_requests

    def bytes_transferred(self) -> float:
        return self.channel.bytes_transferred()

    def row_hit_rate(self) -> float:
        return self.channel.row_hit_rate
