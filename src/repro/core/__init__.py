"""The paper's contribution: adaptive memory-side last-level caching.

* :mod:`repro.core.modes` — shared/private slice indexing and the atomics
  escape hatch;
* :mod:`repro.core.sampler` — online profiling state (ATD + LSP counters);
* :mod:`repro.core.bandwidth_model` — the LSP/bandwidth performance model of
  Section 4.4;
* :mod:`repro.core.controller` — the mode-controller skeleton every
  dynamic policy shares, and the epoch/profile state machine applying
  transition Rules #1–#3;
* :mod:`repro.core.reconfig` — the drain/flush/power-gate sequence and its
  cycle cost.
"""
