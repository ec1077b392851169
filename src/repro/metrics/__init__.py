"""Performance metrics and characterization analyses.

* :mod:`repro.metrics.perf` — summary metrics the drivers and trend checks
  share: normalized performance, multi-program STP, HM/geomean speedup
  summaries;
* :mod:`repro.metrics.locality` — the inter-cluster locality tracker behind
  Figure 3's sharing histograms.
"""
