"""GPU substrate: SMs, clusters, CTA scheduling, and the assembled system.

* :mod:`repro.gpu.sm` — streaming multiprocessors issuing L1-filtered
  memory traffic;
* :mod:`repro.gpu.cta` — CTA-to-SM assignment policies (two-level RR,
  BCS, DCS);
* :mod:`repro.gpu.system` — :class:`~repro.gpu.system.GPUSystem`, which
  wires SMs, NoC, LLC slices and memory controllers onto one event engine
  and harvests a :class:`~repro.gpu.results.RunResult`;
* :mod:`repro.gpu.results` — that result record and its dict form, which
  imports no simulator code.

The package re-exports nothing: importing it (as reading a stored result
does) loads no simulator module.  Import from the submodules.
"""
