"""The report builder: one campaign in, one navigable artifact out.

:class:`ReportBuilder` drives the whole fig02–fig16 campaign through the
shared :class:`~repro.experiments.campaign.Campaign` (dedup + disk cache +
worker pool), then renders each figure into a page directory::

    report/
      index.html / index.md     overview with per-figure fidelity badges
      manifest.json             config + git + cache-key provenance
      fig02/
        index.html / index.md   chart, raw rows, trend badges, cache keys
        rows.json               the driver's row dicts, machine-readable
        chart.png | chart.txt   matplotlib PNG, or text-chart fallback

Every figure module self-describes (``TITLE``/``SLUG``/``PAPER_CLAIM``/
``CHART``/``expected_trends()``), so adding a figure to the report means
adding it to :data:`~repro.experiments.FIGURE_MODULES` — nothing here
changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments import FIGURE_MODULES, figure_module, figure_rows, \
    figure_sort_key
from repro.experiments.campaign import Campaign, trace_key
from repro.experiments.plotting import render_chart_file
from repro.experiments.runner import experiment_config
from repro.report import manifest as manifest_mod
from repro.report import templates
from repro.report.trends import ERROR, TrendResult, evaluate_trends, \
    overall_status

REPORT_TITLE = "Adaptive memory-side LLC GPU caching — reproduction report"


@dataclass
class FigureReport:
    """Everything the builder produced for one figure."""

    number: str
    slug: str
    title: str
    paper_claim: str
    status: str
    trends: list[TrendResult]
    rows: list[dict]
    cache_keys: list[str]
    spec_labels: list[str] = field(default_factory=list)
    chart_file: Optional[str] = None  # out-dir-relative
    pages: dict = field(default_factory=dict)  # format -> relative path

    def manifest_entry(self) -> dict:
        return {
            "number": self.number,
            "slug": self.slug,
            "title": self.title,
            "status": self.status,
            "trends": [t.to_dict() for t in self.trends],
            "cache_keys": self.cache_keys,
            # Human-readable spec provenance: benchmark/policy@scale, with
            # per-program policies spelled out for Scenario-API mixes.
            "specs": self.spec_labels,
            "chart": self.chart_file,
            "pages": dict(self.pages),
        }


@dataclass
class ReportResult:
    """What a :meth:`ReportBuilder.build` run returned.

    ``has_errors`` is the CI gate: ``True`` when any trend check raised
    (status ``ERROR``); plain WARN badges do not set it.
    """

    out_dir: str
    figures: list[FigureReport]
    manifest_path: str
    index_paths: list[str]

    @property
    def has_errors(self) -> bool:
        return any(t.status == ERROR for f in self.figures for t in f.trends)


class ReportBuilder:
    """Builds the self-documenting paper artifact.

    Args:
        out_dir: artifact directory (created if missing).
        scale: trace-scale factor forwarded to every figure driver.
        campaign: the shared campaign to execute specs through; supply a
            ``Campaign(jobs=..., cache_dir=...)`` to parallelize / memoize.
        formats: any subset of ``{"html", "md"}``.
        figures: figure numbers to include (default: the full registry);
            an empty list, a repeated figure or an unknown one raises
            ``ValueError``.
    """

    def __init__(self, out_dir: str, scale: float = 1.0,
                 campaign: Optional[Campaign] = None,
                 formats: Sequence[str] = ("html", "md"),
                 figures: Optional[Sequence[str]] = None):
        unknown_fmt = set(formats) - {"html", "md"}
        if unknown_fmt:
            raise ValueError(f"unknown report formats: {sorted(unknown_fmt)}")
        numbers = list(figures) if figures is not None \
            else sorted(FIGURE_MODULES, key=figure_sort_key)
        unknown_fig = [n for n in numbers if n not in FIGURE_MODULES]
        if unknown_fig:
            raise ValueError(f"unknown figures: {unknown_fig}")
        if not numbers:
            raise ValueError("no figures requested")
        repeated = sorted({n for n in numbers if numbers.count(n) > 1},
                          key=figure_sort_key)
        if repeated:
            raise ValueError(f"figures requested more than once: {repeated}")
        self.out_dir = out_dir
        self.scale = scale
        self.campaign = campaign or Campaign()
        self.formats = list(formats)
        self.numbers = numbers

    # ------------------------------------------------------------- build
    def build(self, progress: bool = False) -> ReportResult:
        """Run the campaign and render the artifact.

        Args:
            progress: print one line per phase/figure to stdout.

        Returns:
            A :class:`ReportResult`; inspect ``has_errors`` for the CI
            gate (any trend check that *raised*).
        """
        os.makedirs(self.out_dir, exist_ok=True)
        modules = [(num, figure_module(num)) for num in self.numbers]

        # One prefetch for the whole campaign: identical specs collapse
        # across figures and the worker pool sees the full batch at once.
        specs_by_figure = [(num, module, module.specs(scale=self.scale))
                           for num, module in modules]
        all_specs = [s for _, _, specs in specs_by_figure for s in specs]
        if progress:
            uniq = len({s.cache_key() for s in all_specs})
            traces = len({trace_key(s) for s in all_specs})
            print(f"[report] {len(all_specs)} specs declared "
                  f"({uniq} unique, {traces} traces) "
                  f"across {len(modules)} figures")
        self.campaign.prefetch(all_specs)

        figures = [self._build_figure(num, module, specs, progress)
                   for num, module, specs in specs_by_figure]

        index_paths = self._write_indexes(figures)
        manifest_path = self._write_manifest(figures)
        if progress:
            print(f"[report] wrote {manifest_path} and "
                  f"{', '.join(index_paths)}")
        return ReportResult(out_dir=self.out_dir, figures=figures,
                            manifest_path=manifest_path,
                            index_paths=index_paths)

    # ------------------------------------------------------- per figure
    def _build_figure(self, number: str, module, specs,
                      progress: bool) -> FigureReport:
        rows = figure_rows(module, self.scale, self.campaign)
        trends = evaluate_trends(module.expected_trends(), rows)
        status = overall_status(trends)
        cache_keys = sorted({spec.cache_key() for spec in specs})
        fig_dir = os.path.join(self.out_dir, module.SLUG)
        os.makedirs(fig_dir, exist_ok=True)

        with open(os.path.join(fig_dir, "rows.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, default=str)
            fh.write("\n")

        label_key, value_keys = module.CHART
        chart_path = render_chart_file(rows, label_key, value_keys,
                                       module.TITLE,
                                       os.path.join(fig_dir, "chart"))
        chart_name = os.path.basename(chart_path)
        chart_rel = chart_name if chart_name.endswith(".png") else None
        chart_text = None
        if chart_rel is None:
            with open(chart_path, encoding="utf-8") as fh:
                chart_text = fh.read().rstrip("\n")

        report = FigureReport(
            number=number, slug=module.SLUG, title=module.TITLE,
            paper_claim=module.PAPER_CLAIM, status=status, trends=trends,
            rows=rows, cache_keys=cache_keys,
            spec_labels=sorted({spec.label() for spec in specs}),
            chart_file=f"{module.SLUG}/{chart_name}")
        renderers = {"html": templates.figure_page_html,
                     "md": templates.figure_page_md}
        for fmt in self.formats:
            page = renderers[fmt](module.TITLE, status, module.PAPER_CLAIM,
                                  trends, rows, chart_rel, chart_text,
                                  cache_keys)
            name = f"index.{fmt}"
            with open(os.path.join(fig_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(page)
            report.pages[fmt] = f"{module.SLUG}/{name}"
        if progress:
            print(f"[report] fig {number} ({module.SLUG}): {status}")
        return report

    # ----------------------------------------------------------- output
    def _summary(self) -> dict:
        git = manifest_mod.git_provenance()
        return {
            "scale": self.scale,
            "jobs": self.campaign.jobs,
            "cache_dir": self.campaign.cache_dir or "(none)",
            "simulations_executed": self.campaign.executed,
            "disk_cache_hits": self.campaign.cache_hits,
            "memo_hits": self.campaign.memo_hits,
            "git_commit": git["commit"] or "(unknown)",
        }

    def _write_indexes(self, figures: list[FigureReport]) -> list[str]:
        summary = self._summary()
        entries = [{"number": f.number, "slug": f.slug, "title": f.title,
                    "status": f.status} for f in figures]
        renderers = {"html": templates.index_html, "md": templates.index_md}
        paths = []
        for fmt in self.formats:
            entries_fmt = [dict(e, page=fig.pages[fmt])
                           for e, fig in zip(entries, figures)]
            path = os.path.join(self.out_dir, f"index.{fmt}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(renderers[fmt](REPORT_TITLE, entries_fmt, summary))
            paths.append(path)
        return paths

    def _write_manifest(self, figures: list[FigureReport]) -> str:
        cfg = experiment_config()
        manifest = manifest_mod.build_manifest(
            scale=self.scale, jobs=self.campaign.jobs, formats=self.formats,
            cache_dir=self.campaign.cache_dir, config_dict=cfg.to_dict(),
            config_key=cfg.cache_key(),
            campaign_counters={"executed": self.campaign.executed,
                               "cache_hits": self.campaign.cache_hits,
                               "memo_hits": self.campaign.memo_hits},
            figures=[f.manifest_entry() for f in figures])
        path = os.path.join(self.out_dir, "manifest.json")
        manifest_mod.write_manifest(manifest, path)
        return path
