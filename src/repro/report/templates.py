"""HTML and Markdown page templates for the reproduction report.

Pure-stdlib string templating: each figure page shows the rendered chart,
the raw row data, the paper's claim, the trend badges, and the RunSpec
cache keys that produced it; the index links every figure with its badge.
The report is a static artifact — no scripts, one small inline stylesheet
— so it can be archived, diffed, and served from anywhere.
"""

from __future__ import annotations

import html
from typing import Optional, Sequence

from repro.experiments.tables import rows_to_html, rows_to_markdown
from repro.report.trends import TrendResult

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; padding: 0 1rem; color: #1a1a2e; }
h1, h2 { line-height: 1.25; }
table { border-collapse: collapse; margin: 1rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #cbd2d9; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #f0f4f8; }
pre { background: #f0f4f8; padding: 0.75rem; overflow-x: auto;
      font-size: 0.8rem; }
code { background: #f0f4f8; padding: 0.1rem 0.25rem; }
.badge { display: inline-block; padding: 0.1rem 0.55rem; border-radius: 1rem;
         font-size: 0.8rem; font-weight: 600; color: #fff; }
.badge-PASS { background: #2f855a; }
.badge-WARN { background: #b7791f; }
.badge-ERROR { background: #c53030; }
.claim { border-left: 4px solid #627d98; background: #f0f4f8;
         padding: 0.6rem 1rem; margin: 1rem 0; }
.keys { font-size: 0.75rem; color: #486581; }
img.chart { max-width: 100%; }
footer { margin-top: 2rem; font-size: 0.8rem; color: #627d98; }
"""


def badge_html(status: str) -> str:
    """An inline PASS/WARN/ERROR badge."""
    return f'<span class="badge badge-{status}">{status}</span>'


def badge_md(status: str) -> str:
    """The Markdown rendition of a badge (bold tag, survives any viewer)."""
    return f"**[{status}]**"


def _page_html(title: str, body: str) -> str:
    return (f"<!DOCTYPE html>\n<html lang=\"en\"><head>"
            f"<meta charset=\"utf-8\">"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head>\n"
            f"<body>\n{body}\n"
            f"<footer>Generated by <code>repro report</code> — adaptive "
            f"memory-side last-level GPU caching (ISCA'19) reproduction."
            f"</footer>\n</body></html>\n")


def _trend_rows(trends: Sequence[TrendResult]) -> list[dict]:
    """The fidelity-check table: each claim with our value against its
    bar, the margin it clears the bar by, and the paper's number."""
    return [{"trend": t.name, "status": t.status, "claim": t.claim,
             "observed": t.observed, "margin": t.margin, "paper": t.paper}
            for t in trends]


def figure_page_html(title: str, status: str, paper_claim: str,
                     trends: Sequence[TrendResult], rows: list[dict],
                     chart_rel: Optional[str], chart_text: Optional[str],
                     cache_keys: Sequence[str]) -> str:
    """One figure's HTML page.

    Args:
        title: the figure's ``TITLE``.
        status: figure-level badge (worst trend status).
        paper_claim: the figure's ``PAPER_CLAIM`` sentence.
        trends: evaluated trend results.
        rows: the driver's raw row dicts.
        chart_rel: page-relative path to a PNG chart, if one was rendered.
        chart_text: text-chart contents, when matplotlib was unavailable.
        cache_keys: content keys of every RunSpec behind the figure.
    """
    parts = [f"<h1>{html.escape(title)} {badge_html(status)}</h1>",
             '<p><a href="../index.html">&larr; report index</a></p>',
             f'<div class="claim"><strong>Paper claim.</strong> '
             f'{html.escape(paper_claim)}</div>']
    if chart_rel:
        parts.append(f'<img class="chart" src="{html.escape(chart_rel)}" '
                     f'alt="{html.escape(title)}">')
    elif chart_text:
        parts.append(f"<pre>{html.escape(chart_text)}</pre>")
    parts.append("<h2>Fidelity checks</h2>")
    parts.append(rows_to_html(_trend_rows(trends)))
    parts.append("<h2>Raw data</h2>")
    parts.append(rows_to_html(rows))
    parts.append("<h2>Provenance</h2>")
    parts.append(f'<p class="keys">{len(cache_keys)} RunSpec content keys '
                 f"(see <code>rows.json</code> for the row data and "
                 f"<code>../manifest.json</code> for config provenance):</p>")
    keys = "\n".join(cache_keys)
    parts.append(f'<pre class="keys">{html.escape(keys)}</pre>')
    return _page_html(title, "\n".join(parts))


def figure_page_md(title: str, status: str, paper_claim: str,
                   trends: Sequence[TrendResult], rows: list[dict],
                   chart_rel: Optional[str], chart_text: Optional[str],
                   cache_keys: Sequence[str]) -> str:
    """The Markdown rendition of :func:`figure_page_html`."""
    parts = [f"# {title} {badge_md(status)}", "",
             f"> **Paper claim.** {paper_claim}", ""]
    if chart_rel:
        parts += [f"![{title}]({chart_rel})", ""]
    elif chart_text:
        parts += ["```", chart_text, "```", ""]
    parts += ["## Fidelity checks", "",
              rows_to_markdown(_trend_rows(trends)), "",
              "## Raw data", "", rows_to_markdown(rows), "",
              "## Provenance", "",
              f"{len(cache_keys)} RunSpec content keys (config provenance "
              f"in `../manifest.json`):", "", "```"]
    parts += list(cache_keys)
    parts += ["```", ""]
    return "\n".join(parts)


def index_html(title: str, figures: list[dict], summary: dict) -> str:
    """The report's ``index.html``.

    Args:
        title: report heading.
        figures: dicts with ``number``/``slug``/``title``/``status``/
            ``page`` (index-relative path) keys.
        summary: manifest-style run summary (scale, jobs, counters, git).
    """
    items = []
    for fig in figures:
        items.append(
            f'<tr><td>Fig. {html.escape(fig["number"])}</td>'
            f'<td><a href="{html.escape(fig["page"])}">'
            f'{html.escape(fig["title"])}</a></td>'
            f'<td>{badge_html(fig["status"])}</td></tr>')
    table = ("<table><thead><tr><th>Figure</th><th>Title</th>"
             "<th>Fidelity</th></tr></thead><tbody>"
             + "".join(items) + "</tbody></table>")
    meta = "".join(f"<li><code>{html.escape(str(k))}</code>: "
                   f"{html.escape(str(v))}</li>"
                   for k, v in summary.items())
    body = (f"<h1>{html.escape(title)}</h1>"
            f"<p>Every paper figure, regenerated by one campaign; each page "
            f"carries its chart, raw rows, RunSpec cache keys, and the "
            f"paper-claimed trend with a PASS/WARN badge.</p>"
            f"{table}<h2>Run provenance</h2><ul>{meta}</ul>"
            f'<p>Machine-readable provenance: '
            f'<a href="manifest.json"><code>manifest.json</code></a></p>')
    return _page_html(title, body)


def index_md(title: str, figures: list[dict], summary: dict) -> str:
    """The Markdown rendition of :func:`index_html`."""
    rows = [{"figure": f"Fig. {fig['number']}",
             "title": f"[{fig['title']}]({fig['page']})",
             "fidelity": badge_md(fig["status"])} for fig in figures]
    parts = [f"# {title}", "",
             "Every paper figure, regenerated by one campaign; each page "
             "carries its chart, raw rows, RunSpec cache keys, and the "
             "paper-claimed trend with a PASS/WARN badge.", "",
             rows_to_markdown(rows), "", "## Run provenance", ""]
    parts += [f"- `{k}`: {v}" for k, v in summary.items()]
    parts += ["", "Machine-readable provenance: `manifest.json`", ""]
    return "\n".join(parts)
