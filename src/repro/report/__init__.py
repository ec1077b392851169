"""Reproduction report: campaign results → verifiable, navigable artifact.

The consumer-facing output layer.  ``repro report`` runs the entire
fig02–fig16 campaign through the shared
:class:`~repro.experiments.campaign.Campaign` and renders a static
HTML + Markdown directory — one page per figure with its chart, raw rows,
RunSpec cache keys and paper-claimed trends — plus a fidelity-check pass
that badges every figure PASS/WARN from the trends each driver declares
via ``expected_trends()``.

* :mod:`repro.report.trends` — the :class:`~repro.report.trends.Trend`
  declaration (measure, comparison, bar) and its evaluation into status,
  value and margin;
* :mod:`repro.report.builder` — campaign orchestration and page rendering;
* :mod:`repro.report.templates` — stdlib HTML/Markdown templates;
* :mod:`repro.report.manifest` — config/git/cache-key provenance JSON.

The package re-exports nothing: import from the submodule that defines a
name.
"""
