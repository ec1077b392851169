"""DSENT-like NoC power and area model (paper Section 3.4, Figures 7 and 14).

The paper feeds GPGPU-Sim activity factors into DSENT at 22 nm.  We replace
DSENT with an analytical coefficient model that preserves its scaling laws:

* crossbar switch area/energy scale with ``n_in * n_out * width²`` (a matrix
  crossbar grows in both physical dimensions with ``ports x width``);
* input buffer area/energy scale linearly with buffered flits and width;
* link dynamic energy scales with ``width x length``; only repeater area
  counts as active silicon (wires live in upper metal);
* leakage scales with active area, and power-gated MC-routers stop leaking
  (and switching) while bypassed.

Coefficients are calibrated so the absolute magnitudes are plausible for a
22 nm GPU NoC and the *relative* results match Figure 7: H-Xbar ≈ 62–79 %
smaller and up to ~80 % less power than full/concentrated crossbars of equal
bisection bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.noc.topology import NoCInventory


@dataclass(frozen=True)
class NoCPowerCoefficients:
    """Calibration constants (areas in mm², energies in pJ, 22 nm)."""

    # --- area ---------------------------------------------------------
    xbar_area_per_unit: float = 7.2e-7      # mm² per (in x out x width_B²)
    buffer_area_per_byte: float = 3.6e-6    # mm² per buffered byte
    link_area_per_byte_mm: float = 2.4e-6   # mm² repeater area per B·mm
    other_area_per_port: float = 1.0e-4     # allocators, RC — mm² per port

    # --- dynamic energy -------------------------------------------------
    buffer_pj_per_byte: float = 0.010       # write+read per flit byte
    xbar_pj_per_byte: float = 0.008         # switch traversal per flit byte
    link_pj_per_byte_mm: float = 0.002      # per flit byte per mm
    other_pj_per_flit: float = 0.05         # allocation logic per flit

    # --- static ----------------------------------------------------------
    leakage_w_per_mm2: float = 0.15         # leakage power density
    clock_hz: float = 1.4e9

    @property
    def leakage_pj_per_cycle_per_mm2(self) -> float:
        return self.leakage_w_per_mm2 / self.clock_hz * 1e12


@dataclass
class NoCAreaBreakdown:
    """Active silicon area (mm²) split by component, as in Figure 7b."""

    buffer: float = 0.0
    crossbar: float = 0.0
    links: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return self.buffer + self.crossbar + self.links + self.other

    def as_dict(self) -> dict[str, float]:
        return {"buffer": self.buffer, "crossbar": self.crossbar,
                "links": self.links, "other": self.other, "total": self.total}


@dataclass
class NoCEnergyBreakdown:
    """Energy (pJ) split by component, as in Figures 7c and 14."""

    buffer: float = 0.0
    crossbar: float = 0.0
    links: float = 0.0
    other: float = 0.0     # allocators + leakage

    @property
    def total(self) -> float:
        return self.buffer + self.crossbar + self.links + self.other

    def as_dict(self) -> dict[str, float]:
        return {"buffer": self.buffer, "crossbar": self.crossbar,
                "links": self.links, "other": self.other, "total": self.total}

    def to_dict(self) -> dict[str, float]:
        """Loss-free serialization: the four components, no derived total."""
        return {"buffer": self.buffer, "crossbar": self.crossbar,
                "links": self.links, "other": self.other}

    @classmethod
    def from_dict(cls, data: dict) -> "NoCEnergyBreakdown":
        """Inverse of :meth:`to_dict` (a derived ``total`` key is ignored)."""
        return cls(buffer=data["buffer"], crossbar=data["crossbar"],
                   links=data["links"], other=data["other"])

    def scaled(self, factor: float) -> "NoCEnergyBreakdown":
        return NoCEnergyBreakdown(self.buffer * factor, self.crossbar * factor,
                                  self.links * factor, self.other * factor)


class NoCPowerModel:
    """Turns a topology inventory + activity into area and energy reports."""

    def __init__(self, vcs_per_port: int = 1, flits_per_vc: int = 8,
                 coeffs: NoCPowerCoefficients | None = None):
        self.vcs = vcs_per_port
        self.flits_per_vc = flits_per_vc
        self.coeffs = coeffs or NoCPowerCoefficients()

    # ---------------------------------------------------------------- area
    def area(self, inv: NoCInventory) -> NoCAreaBreakdown:
        c = self.coeffs
        out = NoCAreaBreakdown()
        for router, width in inv.routers:
            out.crossbar += c.xbar_area_per_unit * router.port_product * width * width
            buffered_bytes = router.n_in * self.vcs * self.flits_per_vc * width
            out.buffer += c.buffer_area_per_byte * buffered_bytes
            out.other += c.other_area_per_port * (router.n_in + router.n_out)
        for link, length_mm, width in inv.links:
            out.links += c.link_area_per_byte_mm * length_mm * width
        for wire, length_mm, width in inv.wires:
            out.links += c.link_area_per_byte_mm * length_mm * width
        return out

    def _router_area(self, router, width: int) -> float:
        c = self.coeffs
        buffered_bytes = router.n_in * self.vcs * self.flits_per_vc * width
        return (c.xbar_area_per_unit * router.port_product * width * width
                + c.buffer_area_per_byte * buffered_bytes
                + c.other_area_per_port * (router.n_in + router.n_out))

    # -------------------------------------------------------------- energy
    def energy(self, inv: NoCInventory, elapsed_cycles: float,
               gated_cycles: float = 0.0) -> NoCEnergyBreakdown:
        """Total NoC energy over ``elapsed_cycles``.

        ``gated_cycles`` is the time the gateable routers (H-Xbar MC-routers)
        spent power-gated; their leakage is suppressed for that span.  Their
        dynamic energy needs no correction: a bypassed router forwards no
        packets, so its activity counters simply stop increasing.
        """
        if elapsed_cycles < 0 or gated_cycles < 0 or gated_cycles > elapsed_cycles + 1e-9:
            raise ValueError("need 0 <= gated_cycles <= elapsed_cycles")
        c = self.coeffs
        out = NoCEnergyBreakdown()
        gated = set(map(id, inv.gated_routers))
        leak = c.leakage_pj_per_cycle_per_mm2

        for router, width in inv.routers:
            out.buffer += c.buffer_pj_per_byte * width * router.buffer_flits
            out.crossbar += c.xbar_pj_per_byte * width * router.xbar_flits
            out.other += c.other_pj_per_flit * router.xbar_flits
            active = elapsed_cycles
            if id(router) in gated:
                active -= gated_cycles
            out.other += leak * self._router_area(router, width) * active

        for link, length_mm, width in inv.links:
            flits = link.server.busy_cycles  # occupancy == flits by design
            out.links += c.link_pj_per_byte_mm * width * length_mm * flits
            out.links += leak * c.link_area_per_byte_mm * length_mm * width * elapsed_cycles
        for wire, length_mm, width in inv.wires:
            out.links += c.link_pj_per_byte_mm * width * length_mm * wire.flits
            out.links += leak * c.link_area_per_byte_mm * length_mm * width * elapsed_cycles
        return out

    def power_watts(self, inv: NoCInventory, elapsed_cycles: float,
                    gated_cycles: float = 0.0) -> float:
        """Mean NoC power over the run, in watts."""
        if elapsed_cycles <= 0:
            return 0.0
        energy_pj = self.energy(inv, elapsed_cycles, gated_cycles).total
        seconds = elapsed_cycles / self.coeffs.clock_hz
        return energy_pj * 1e-12 / seconds
