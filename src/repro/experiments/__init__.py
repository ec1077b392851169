"""Experiment drivers: one module per paper table/figure.

Every figure driver declares its simulations once, as
``cells(scale) -> {cell: RunSpec}`` (a cell is a tuple such as
``(category, benchmark, mode)``; ``specs(scale)`` is the list view of the
same mapping), and turns their results into row dicts in the shape of the
paper's plot with ``rows({cell: RunResult})``.  :func:`figure_rows` joins
the two through a :class:`~repro.experiments.campaign.Campaign`; ``repro
figure``, ``repro report`` and the tests all read a figure that way.
Tests narrow a figure by filtering its cells, and ``rows()`` reports only
the cells it is given.

Each figure module also declares ``TITLE``/``SLUG``/``PAPER_CLAIM``
metadata, a ``CHART = (label_key, value_keys)`` rendering hint, and
``expected_trends()`` — the paper's claims as
:class:`~repro.report.trends.Trend` declarations (a measure, a comparison
and a bar) that the report subsystem badges PASS/WARN per figure.

The ``scale`` knob multiplies trace lengths so CI-speed smoke runs and
paper-scale runs share one code path; the shared campaign deduplicates,
caches, and parallelizes the simulations behind every driver.
"""

import importlib

from repro.experiments.campaign import Campaign, RunSpec
from repro.experiments.runner import (
    DEFAULT_ACCESSES,
    experiment_config,
    scaled_adaptive_config,
)

#: Figure number -> driver module path, the one registry every consumer
#: (CLI ``figure`` verb, report builder, tests) resolves figures through.
#: Keys are paper figure numbers plus named extension experiments (the
#: policy shootout is not a paper figure; it measures the paper's policy
#: against the rest of the registered LLC-policy space).
FIGURE_MODULES = {
    "2": "repro.experiments.fig02_shared_vs_private",
    "3": "repro.experiments.fig03_locality",
    "7": "repro.experiments.fig07_noc_design_space",
    "11": "repro.experiments.fig11_adaptive_performance",
    "12": "repro.experiments.fig12_response_rate",
    "13": "repro.experiments.fig13_miss_rate",
    "14": "repro.experiments.fig14_noc_energy",
    "15": "repro.experiments.fig15_multiprogram",
    "16": "repro.experiments.fig16_sensitivity",
    "consolidation": "repro.experiments.figx_consolidation",
    "mixed_policy": "repro.experiments.figx_mixed_policy",
    "policy_shootout": "repro.experiments.figx_policy_shootout",
}


def figure_sort_key(number: str) -> tuple:
    """Display/run order for :data:`FIGURE_MODULES` keys: numeric figures
    first in numeric order, then named extension experiments
    alphabetically (``sorted(FIGURE_MODULES, key=int)`` stopped working
    the day a non-numeric key joined the registry)."""
    if number.isdigit():
        return (0, int(number), "")
    return (1, 0, number)


def figure_module(number: str):
    """Import and return the driver module for figure ``number``.

    Args:
        number: the paper figure number as a string (a
            :data:`FIGURE_MODULES` key).

    Raises:
        KeyError: if the figure number is not in the registry.
    """
    return importlib.import_module(FIGURE_MODULES[number])


def figure_rows(module, scale: float, campaign: Campaign) -> list[dict]:
    """A figure's rows: its cells' results through ``campaign``, handed
    to the driver's ``rows()``.

    Args:
        module: a figure driver (see :func:`figure_module`).
        scale: trace-scale factor for every cell.
        campaign: runs, or serves from memory and disk, each cell's spec.
    """
    cells = module.cells(scale)
    results = campaign.results(list(cells.values()))
    return module.rows(dict(zip(cells, results)))


__all__ = [
    "Campaign",
    "RunSpec",
    "DEFAULT_ACCESSES",
    "FIGURE_MODULES",
    "experiment_config",
    "figure_module",
    "figure_rows",
    "figure_sort_key",
    "scaled_adaptive_config",
]
