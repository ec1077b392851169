"""Bar charts for the experiment drivers: terminal, file, and PNG backends.

The paper's figures are grouped bar charts; these helpers render the same
series as Unicode bars so a reproduction run reads like the paper without
leaving the terminal.  :func:`render_chart_file` additionally writes a
chart to disk for the report subsystem — as a PNG when matplotlib is
importable, degrading gracefully to a plain-text chart file otherwise
(the simulator itself is stdlib-only and matplotlib is an optional
extra, never a requirement).
"""

from __future__ import annotations

import importlib
from typing import Mapping, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"


def hbar(value: float, vmax: float, width: int = 40) -> str:
    """A horizontal bar of ``value`` against full-scale ``vmax``."""
    if vmax <= 0:
        raise ValueError("vmax must be positive")
    frac = max(0.0, min(1.0, value / vmax))
    cells = frac * width
    full = int(cells)
    rem = int((cells - full) * (len(_BLOCKS) - 1))
    bar = "█" * full
    if full < width and rem:
        bar += _BLOCKS[rem]
    return bar.ljust(width)


def grouped_chart(rows: Sequence[Mapping], label_key: str,
                  value_keys: Sequence[str], title: str = "",
                  width: int = 32) -> str:
    """Render multiple series per row (the paper's grouped bars)."""
    if not rows:
        return "(empty chart)"
    peak = max((float(r[k]) for r in rows for k in value_keys
                if isinstance(r.get(k), (int, float)) and r[k] == r[k]),
               default=1.0)
    lines = [title] if title else []
    label_w = max(len(str(r[label_key])) for r in rows)
    key_w = max(len(k) for k in value_keys)
    for r in rows:
        lines.append(str(r[label_key]))
        for k in value_keys:
            v = r.get(k)
            if not isinstance(v, (int, float)) or v != v:  # NaN guard
                continue
            lines.append(f"  {k.ljust(key_w)} "
                         f"{hbar(float(v), peak, width)} {float(v):.3f}")
    return "\n".join(lines)


# -------------------------------------------------------- file backends
def matplotlib_module():
    """``matplotlib.pyplot`` if importable, else ``None``.

    Isolated in a function so tests (and headless deployments) can force
    the text fallback by monkeypatching it.
    """
    try:
        mpl = importlib.import_module("matplotlib")
        mpl.use("Agg")  # never require a display
        return importlib.import_module("matplotlib.pyplot")
    except Exception:  # pragma: no cover - depends on the environment
        return None


def _render_png(rows: Sequence[Mapping], label_key: str,
                value_keys: Sequence[str], title: str, path: str,
                plt) -> None:
    labels = [str(r[label_key]) for r in rows]
    x = range(len(rows))
    group = max(len(value_keys), 1)
    bar_w = 0.8 / group
    fig, ax = plt.subplots(figsize=(max(6.0, 0.5 * len(rows) + 2), 3.5))
    for i, key in enumerate(value_keys):
        values = [(float(r[key]) if isinstance(r.get(key), (int, float))
                   and r[key] == r[key] else 0.0) for r in rows]
        ax.bar([xi + i * bar_w for xi in x], values, bar_w, label=key)
    ax.set_xticks([xi + 0.4 - bar_w / 2 for xi in x])
    ax.set_xticklabels(labels, rotation=60, ha="right", fontsize=7)
    ax.set_title(title, fontsize=9)
    ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)


def render_chart_file(rows: Sequence[Mapping], label_key: str,
                      value_keys: Sequence[str], title: str,
                      path_base: str) -> str:
    """Write a grouped bar chart for ``rows`` next to ``path_base``.

    Args:
        rows: row dicts from a figure driver's ``rows()``.
        label_key: the column naming each bar group.
        value_keys: the numeric columns, one bar per key per group.
        title: chart heading.
        path_base: output path *without* extension; the backend appends
            ``.png`` (matplotlib available) or ``.txt`` (text fallback).

    Returns:
        The path actually written, extension included.
    """
    plt = matplotlib_module()
    if plt is not None:
        path = f"{path_base}.png"
        _render_png(rows, label_key, value_keys, title, path, plt)
        return path
    path = f"{path_base}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grouped_chart(rows, label_key, value_keys, title=title))
        fh.write("\n")
    return path
