"""Fidelity checks: does a reproduced figure show the paper-claimed trend?

Every figure driver declares its claims as :class:`Trend` objects: a
name, the sentence the paper would use, a ``measure`` that reduces the
driver's row dicts to one number, a comparison ``op`` and the ``bar``
that number must clear.  The report builder evaluates them with
:func:`evaluate_trends`, the one place that derives a status, a message
and a signed margin from a declaration, and badges each figure:

* ``PASS``  — the measured value cleared its bar;
* ``WARN``  — it did not (the reproduction ran, but the rows disagree
  with the paper's claim; a NaN value, such as an empty selection,
  clears no bar);
* ``ERROR`` — the measure or the bar raised (missing columns, empty
  rows): the *check itself* is broken, which CI treats as a hard failure
  while WARN is allowed.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, Union

#: Badge states, in increasing severity order.
PASS, WARN, ERROR = "PASS", "WARN", "ERROR"

_SEVERITY = {PASS: 0, WARN: 1, ERROR: 2}

#: The comparisons a trend may declare, each with the margin it implies:
#: how far the value clears its bar, positive when the claim holds.
_OPS = {
    ">=": (operator.ge, operator.sub),
    ">": (operator.gt, operator.sub),
    "<=": (operator.le, lambda value, bar: bar - value),
    "<": (operator.lt, lambda value, bar: bar - value),
}

Measure = Callable[[Sequence[dict]], float]


@dataclass(frozen=True)
class Trend:
    """One paper-claimed trend, stated declaratively by a figure driver.

    The claim holds when ``measure(rows) <op> bar``.

    Args:
        name: short stable identifier (used in the manifest and tests).
        claim: the paper's claim, as a sentence.
        measure: ``rows -> float``, the reproduced value.
        op: one of ``>=``, ``>``, ``<=``, ``<``.
        bar: the value to clear, or ``rows -> float`` when the bar is
            itself measured (e.g. "best static - 0.02").
        paper: the number the paper states for the same value, where it
            states one.
    """

    name: str
    claim: str
    measure: Measure
    op: str
    bar: Union[float, Measure]
    paper: Optional[float] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"trend {self.name!r}: unknown op {self.op!r} "
                             f"(expected one of {', '.join(_OPS)})")


@dataclass(frozen=True)
class TrendResult:
    """Outcome of evaluating one :class:`Trend` against reproduced rows.

    ``status`` is ``PASS``/``WARN``/``ERROR``; ``observed`` reads
    ``"<value> <op> <bar>"``, or for ``ERROR`` the exception text, in
    which case ``value``, ``bar`` and ``margin`` are ``None``.
    ``margin`` is positive when the claim holds with room to spare.
    """

    name: str
    claim: str
    status: str
    observed: str
    op: str
    value: Optional[float] = None
    bar: Optional[float] = None
    margin: Optional[float] = None
    paper: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_trends(trends: Sequence[Trend],
                    rows: Sequence[dict]) -> list[TrendResult]:
    """Evaluate every trend, mapping measure/bar exceptions to ``ERROR``.

    Args:
        trends: the figure's declared :class:`Trend` list.
        rows: the row dicts the figure's ``rows()`` produced.

    Returns:
        One :class:`TrendResult` per trend, in declaration order.
    """
    results = []
    for trend in trends:
        try:
            value = float(trend.measure(rows))
            bar = float(trend.bar(rows) if callable(trend.bar)
                        else trend.bar)
        except Exception as exc:  # noqa: BLE001 — any failure is the verdict
            results.append(TrendResult(
                name=trend.name, claim=trend.claim, status=ERROR,
                observed=f"{type(exc).__name__}: {exc}", op=trend.op,
                paper=trend.paper))
            continue
        compare, margin = _OPS[trend.op]
        results.append(TrendResult(
            name=trend.name, claim=trend.claim,
            status=PASS if compare(value, bar) else WARN,
            observed=f"{value:.4g} {trend.op} {bar:.4g}", op=trend.op,
            value=value, bar=bar, margin=margin(value, bar),
            paper=trend.paper))
    return results


def overall_status(results: Sequence[TrendResult]) -> str:
    """The figure-level badge: the worst status among its trends."""
    if not results:
        return WARN  # a figure with no declared trends cannot claim PASS
    return max(results, key=lambda r: _SEVERITY[r.status]).status


# ---------------------------------------------------------------- helpers
# Row lookups the figure drivers' measures share.

def summary_row(rows: Sequence[dict], label_key: str,
                label: str) -> dict:
    """The driver's summary row (``HM`` / ``AVG``), located by its label."""
    for row in rows:
        if row.get(label_key) == label:
            return row
    raise KeyError(f"no {label!r} summary row under {label_key!r}")


def category_row(rows: Sequence[dict], label: str, category: str) -> dict:
    """A per-category summary row (``HM`` / ``AVG`` under ``benchmark``)."""
    for row in rows:
        if row.get("benchmark") == label and row.get("category") == category:
            return row
    raise KeyError(f"no {label!r} row for category {category!r}")


def summary_value(key: str, label_key: str, label: str) -> Measure:
    """A measure reading ``key`` from the named summary row."""
    return lambda rows: summary_row(rows, label_key, label)[key]
