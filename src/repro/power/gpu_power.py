"""GPUWattch-like system energy model (paper Section 6.2, Figure 14).

The paper evaluates GPU power with GPUWattch and NoC power with DSENT.  We
combine a per-event energy model (instructions, L1/LLC accesses, DRAM bytes)
with static power proportional to runtime, plus the NoC model from
:mod:`repro.noc.power`.  Coefficients are calibrated to a plausible 22 nm
high-end GPU: ~tens of watts static, DRAM energy dominated by I/O per byte.

What matters for reproduction is the *relative* picture: power-gated
MC-routers cut NoC energy ~26.6 % in private mode, the write-through private
LLC inflates DRAM traffic/energy, and faster execution cuts static energy —
netting the paper's ~6.1 % average total-system saving for private-friendly
and neutral workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.power import NoCEnergyBreakdown, NoCPowerModel


@dataclass(frozen=True)
class GPUPowerCoefficients:
    """Per-event energies (pJ) and static power (W) at 22 nm / 1.4 GHz."""

    instr_pj: float = 25.0          # issue + execute + register file
    l1_access_pj: float = 35.0
    llc_access_pj: float = 70.0
    dram_pj_per_byte: float = 4.0   # device + I/O
    sm_static_w: float = 0.45       # per SM
    llc_mc_static_w: float = 12.0   # all slices + memory controllers
    dram_background_w: float = 14.0
    clock_hz: float = 1.4e9

    def static_pj_per_cycle(self, num_sms: int) -> float:
        watts = (self.sm_static_w * num_sms + self.llc_mc_static_w
                 + self.dram_background_w)
        return watts / self.clock_hz * 1e12


@dataclass
class SystemEnergyReport:
    """Energy split (pJ) for one run; Figure 14's inputs."""

    noc: NoCEnergyBreakdown
    sm_dynamic: float = 0.0
    l1_dynamic: float = 0.0
    llc_dynamic: float = 0.0
    dram_dynamic: float = 0.0
    static: float = 0.0
    cycles: float = 0.0

    @property
    def noc_total(self) -> float:
        return self.noc.total

    @property
    def total(self) -> float:
        return (self.noc.total + self.sm_dynamic + self.l1_dynamic
                + self.llc_dynamic + self.dram_dynamic + self.static)

    @property
    def mean_watts(self) -> float:
        if self.cycles <= 0:
            return 0.0
        seconds = self.cycles / 1.4e9
        return self.total * 1e-12 / seconds

    def as_dict(self) -> dict[str, float]:
        return {
            "noc": self.noc.total,
            "sm_dynamic": self.sm_dynamic,
            "l1_dynamic": self.l1_dynamic,
            "llc_dynamic": self.llc_dynamic,
            "dram_dynamic": self.dram_dynamic,
            "static": self.static,
            "total": self.total,
        }

    def to_dict(self) -> dict:
        """Loss-free serialization (unlike :meth:`as_dict`, which flattens
        the NoC split into its total for reporting)."""
        return {
            "noc": self.noc.to_dict(),
            "sm_dynamic": self.sm_dynamic,
            "l1_dynamic": self.l1_dynamic,
            "llc_dynamic": self.llc_dynamic,
            "dram_dynamic": self.dram_dynamic,
            "static": self.static,
            "cycles": self.cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemEnergyReport":
        return cls(
            noc=NoCEnergyBreakdown.from_dict(data["noc"]),
            sm_dynamic=data["sm_dynamic"],
            l1_dynamic=data["l1_dynamic"],
            llc_dynamic=data["llc_dynamic"],
            dram_dynamic=data["dram_dynamic"],
            static=data["static"],
            cycles=data["cycles"],
        )


class GPUPowerModel:
    """Computes a :class:`SystemEnergyReport` from a finished system."""

    def __init__(self, coeffs: GPUPowerCoefficients | None = None,
                 noc_model: NoCPowerModel | None = None):
        self.coeffs = coeffs or GPUPowerCoefficients()
        self.noc_model = noc_model or NoCPowerModel()

    def report(self, system, result) -> SystemEnergyReport:
        """``system`` is a finished :class:`repro.gpu.system.GPUSystem`;
        ``result`` its :class:`repro.gpu.results.RunResult`."""
        c = self.coeffs
        gated = result.gated_cycles
        noc = self.noc_model.energy(system.topology.inventory(),
                                    elapsed_cycles=result.cycles,
                                    gated_cycles=min(gated, result.cycles))
        l1_accesses = sum(sm.l1.read_accesses + sm.l1.writes
                          for sm in system.sms)
        return SystemEnergyReport(
            noc=noc,
            sm_dynamic=c.instr_pj * result.instructions,
            l1_dynamic=c.l1_access_pj * l1_accesses,
            llc_dynamic=c.llc_access_pj * result.llc_accesses,
            dram_dynamic=c.dram_pj_per_byte * result.dram_bytes,
            static=c.static_pj_per_cycle(system.cfg.num_sms) * result.cycles,
            cycles=result.cycles,
        )
