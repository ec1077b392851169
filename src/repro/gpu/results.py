"""What a finished run reports: :class:`RunResult` and its per-program
:class:`ProgramStats`, with the dict form the result store, the job
server and the golden captures hold.

This module imports nothing from the simulator, so reading a stored
result never loads it: :meth:`RunResult.from_dict` imports the decision
record's types and, only for a result that carries one, the energy
report's.  :class:`~repro.gpu.system.GPUSystem` builds these records and
re-exports both classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ProgramStats:
    """Per-program results for multi-program runs.

    Scenario runs additionally report which policy governed the program
    and its mode-transition timeline (``[when, mode, reason]`` entries —
    a static program carries one synthetic ``"static"`` entry).  Legacy
    one-policy runs leave ``policy`` empty and serialize exactly as they
    always did, keeping pre-Scenario captures byte-identical.

    Consolidation runs (:mod:`repro.consolidate`) additionally carry the
    tenant's admission time and its request-latency percentiles
    (``{"count", "p50", "p95", "p99"}``, read round trips in cycles);
    both are elided from the dict form when absent, so every pre-existing
    capture keeps its exact serialization.
    """

    name: str
    instructions: float
    ipc: float
    policy: str = ""
    transitions: int = 0
    mode_timeline: list = field(default_factory=list)
    admitted_at: Optional[float] = None
    latency: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "instructions": self.instructions,
               "ipc": self.ipc}
        if self.policy:
            out["policy"] = self.policy
            out["transitions"] = self.transitions
            out["mode_timeline"] = [list(e) for e in self.mode_timeline]
        if self.admitted_at is not None:
            out["admitted_at"] = self.admitted_at
        if self.latency is not None:
            out["latency"] = dict(self.latency)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramStats":
        return cls(name=data["name"], instructions=data["instructions"],
                   ipc=data["ipc"], policy=data.get("policy", ""),
                   transitions=data.get("transitions", 0),
                   mode_timeline=[list(e) for e in
                                  data.get("mode_timeline", [])],
                   admitted_at=data.get("admitted_at"),
                   latency=data.get("latency"))


@dataclass
class RunResult:
    """Everything the experiment drivers read off a finished run."""

    workload: str
    mode: str
    cycles: float
    instructions: float
    ipc: float
    # LLC
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    llc_miss_rate: float
    llc_response_flits: float
    llc_response_rate: float
    # L1
    l1_miss_rate: float
    # DRAM
    dram_reads: int
    dram_writes: int
    dram_bytes: float
    # adaptive bookkeeping
    transitions: int = 0
    stall_cycles: float = 0.0
    time_in_private: float = 0.0
    gated_cycles: float = 0.0
    mode_history: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    # multi-program
    programs: list[ProgramStats] = field(default_factory=list)
    # consolidation occupancy timeline: [when, active_tenants] entries
    # recorded at run start and every admission/departure (empty — and
    # elided from the dict form — outside consolidation runs)
    occupancy: list = field(default_factory=list)
    # optional Figure 3 histogram fractions [1, 2, 3-4, 5-8 clusters]
    locality_fractions: Optional[list[float]] = None
    # optional SystemEnergyReport attached by the experiment runner
    energy: Optional[object] = None

    _SCALAR_FIELDS = (
        "workload", "mode", "cycles", "instructions", "ipc",
        "llc_accesses", "llc_hits", "llc_misses", "llc_miss_rate",
        "llc_response_flits", "llc_response_rate", "l1_miss_rate",
        "dram_reads", "dram_writes", "dram_bytes",
        "transitions", "stall_cycles", "time_in_private", "gated_cycles",
    )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; the campaign cache's on-disk record.

        Tuples become lists (JSON has no tuple), adaptive ``decisions``
        flatten their :class:`~repro.core.bandwidth_model.Decision`, and the
        energy report serializes through its own ``to_dict``.
        """
        out = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        out["mode_history"] = [list(entry) for entry in self.mode_history]
        out["decisions"] = [
            [when, {"mode": d.mode.value, "rule": d.rule,
                    "shared_miss_rate": d.shared_miss_rate,
                    "private_miss_rate": d.private_miss_rate,
                    "shared_bw": d.shared_bw, "private_bw": d.private_bw}]
            for when, d in self.decisions
        ]
        out["programs"] = [p.to_dict() for p in self.programs]
        if self.occupancy:
            out["occupancy"] = [list(entry) for entry in self.occupancy]
        out["locality_fractions"] = self.locality_fractions
        out["energy"] = self.energy.to_dict() if self.energy is not None else None
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result (tuple structure and nested objects restored)."""
        from repro.core.bandwidth_model import Decision
        from repro.core.modes import LLCMode

        kwargs = {name: data[name] for name in cls._SCALAR_FIELDS}
        kwargs["mode_history"] = [tuple(entry) for entry in data["mode_history"]]
        kwargs["decisions"] = [
            (when, Decision(mode=LLCMode(d["mode"]), rule=d["rule"],
                            shared_miss_rate=d["shared_miss_rate"],
                            private_miss_rate=d["private_miss_rate"],
                            shared_bw=d["shared_bw"],
                            private_bw=d["private_bw"]))
            for when, d in data["decisions"]
        ]
        kwargs["programs"] = [ProgramStats.from_dict(p)
                              for p in data["programs"]]
        kwargs["occupancy"] = [list(entry)
                               for entry in data.get("occupancy", [])]
        kwargs["locality_fractions"] = data["locality_fractions"]
        energy = data.get("energy")
        if energy is not None:
            from repro.power.gpu_power import SystemEnergyReport

            energy = SystemEnergyReport.from_dict(energy)
        kwargs["energy"] = energy
        return cls(**kwargs)
