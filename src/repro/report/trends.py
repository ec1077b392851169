"""Fidelity checks: does a reproduced figure show the paper-claimed trend?

Every figure driver declares its qualitative claims as :class:`Trend`
objects — a name, the sentence the paper would use, and a predicate over
the driver's row dicts.  The report builder evaluates them with
:func:`evaluate_trends` and badges each figure:

* ``PASS``  — every trend predicate held on the reproduced rows;
* ``WARN``  — at least one predicate did not hold (the reproduction ran,
  but the rows disagree with the paper's qualitative claim);
* ``ERROR`` — a predicate raised (missing columns, empty rows, NaNs where
  numbers were promised): the *check itself* is broken, which CI treats
  as a hard failure while WARN is allowed.

Predicates are plain functions ``rows -> (ok, observed)`` where
``observed`` is a short human-readable measurement (shown next to the
badge so a reader can judge how close the run came).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

#: Badge states, in increasing severity order.
PASS, WARN, ERROR = "PASS", "WARN", "ERROR"

_SEVERITY = {PASS: 0, WARN: 1, ERROR: 2}

CheckFn = Callable[[Sequence[dict]], tuple[bool, str]]


@dataclass(frozen=True)
class Trend:
    """One paper-claimed trend, stated declaratively by a figure driver.

    Args:
        name: short stable identifier (used in the manifest and tests).
        claim: the paper's qualitative claim, as a sentence.
        check: predicate ``rows -> (ok, observed)``; ``observed`` is a short
            measurement string rendered next to the badge.
    """

    name: str
    claim: str
    check: CheckFn


@dataclass(frozen=True)
class TrendResult:
    """Outcome of evaluating one :class:`Trend` against reproduced rows.

    ``status`` is ``PASS``/``WARN``/``ERROR``; ``observed`` carries either
    the measurement or, for ``ERROR``, the exception text.
    """

    name: str
    claim: str
    status: str
    observed: str

    def to_dict(self) -> dict:
        return {"name": self.name, "claim": self.claim,
                "status": self.status, "observed": self.observed}


def evaluate_trends(trends: Sequence[Trend],
                    rows: Sequence[dict]) -> list[TrendResult]:
    """Evaluate every trend, mapping predicate exceptions to ``ERROR``.

    Args:
        trends: the figure's declared :class:`Trend` list.
        rows: the row dicts the figure's ``rows()`` produced.

    Returns:
        One :class:`TrendResult` per trend, in declaration order.
    """
    results = []
    for trend in trends:
        try:
            ok, observed = trend.check(rows)
            status = PASS if ok else WARN
        except Exception as exc:  # noqa: BLE001 — any failure is the verdict
            status, observed = ERROR, f"{type(exc).__name__}: {exc}"
        results.append(TrendResult(name=trend.name, claim=trend.claim,
                                   status=status, observed=observed))
    return results


def overall_status(results: Sequence[TrendResult]) -> str:
    """The figure-level badge: the worst status among its trends."""
    if not results:
        return WARN  # a figure with no declared trends cannot claim PASS
    return max(results, key=lambda r: _SEVERITY[r.status]).status


# ---------------------------------------------------------------- helpers
# Small combinators the figure drivers share, so each expected_trends()
# stays a handful of declarative lines.

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


def ratio_at_least(num_key: str, den_key: str, threshold: float,
                   label_key: str, label: str) -> CheckFn:
    """Check ``summary[num_key] / summary[den_key] >= threshold``."""

    def check(rows: Sequence[dict]) -> tuple[bool, str]:
        row = summary_row(rows, label_key, label)
        ratio = float(row[num_key]) / float(row[den_key])
        return (ratio >= threshold,
                f"{num_key}/{den_key} @ {label} = {ratio:.3f} "
                f"(want >= {threshold:g})")

    return check


def value_at_least(key: str, threshold: float, label_key: str,
                   label: str) -> CheckFn:
    """Check ``summary[key] >= threshold`` on the named summary row."""

    def check(rows: Sequence[dict]) -> tuple[bool, str]:
        value = float(summary_row(rows, label_key, label)[key])
        return (value >= threshold,
                f"{key} @ {label} = {value:.3f} (want >= {threshold:g})")

    return check


def value_at_most(key: str, threshold: float, label_key: str,
                  label: str) -> CheckFn:
    """Check ``summary[key] <= threshold`` on the named summary row."""

    def check(rows: Sequence[dict]) -> tuple[bool, str]:
        value = float(summary_row(rows, label_key, label)[key])
        return (value <= threshold,
                f"{key} @ {label} = {value:.3f} (want <= {threshold:g})")

    return check
