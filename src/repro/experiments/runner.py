"""Shared experiment settings: the scaled config and policy windows, the
trace budgets, the cell grouping the figure drivers read results through,
and the plain-text row table.

Nothing here runs a simulation: a run is a
:class:`~repro.experiments.campaign.RunSpec`, which
:func:`~repro.experiments.campaign.spec_system` builds into a
:class:`~repro.gpu.system.GPUSystem` and
:func:`~repro.experiments.campaign.execute_spec` runs.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AdaptiveConfig, GPUConfig
from repro.workloads.catalog import benchmark

#: Trace budget per benchmark category (accesses at scale=1.0).  Private-
#: friendly workloads reach contention steady state quickly; neutral
#: streaming needs enough distinct lines to cycle the 6 MB LLC.
DEFAULT_ACCESSES = {
    "shared": 80_000,
    "private": 100_000,
    "neutral": 150_000,
}


def scaled_adaptive_config() -> AdaptiveConfig:
    """Adaptive-controller parameters for scaled traces.

    The paper profiles 50 K cycles per 1 M-cycle epoch on billion-
    instruction runs; scaled runs keep a comparable profile share but need
    denser ATD sampling (all 48 sets of the shadow slice) and a slightly
    wider Rule-1 margin to offset small-sample noise.
    """
    return AdaptiveConfig(
        epoch_cycles=150_000,
        profile_cycles=800,
        profile_warmup_cycles=500,
        atd_sampled_sets=48,
        miss_rate_margin=0.05,
    )


def experiment_config(**overrides) -> GPUConfig:
    """Table 1 baseline + scaled adaptive parameters + overrides."""
    cfg = GPUConfig.baseline().replace(adaptive=scaled_adaptive_config())
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg


#: Scale at which the interval policies' default windows are calibrated
#: (``medium``); below it, windows must shrink with the trace or the
#: policies never see enough full windows to act.
INTERVAL_REFERENCE_SCALE = 0.25


def scaled_policy_params(policy: str, scale: float,
                         params: Optional[dict] = None) -> dict:
    """Derive interval-policy window parameters from the trace scale.

    The dynamic heuristics' defaults (``interval=1500``,
    ``min_samples=128``) are tuned for scales >= 0.25; a ``smoke`` run is
    a few thousand cycles long, so at default settings the controllers
    silently stay static — the same problem
    :func:`scaled_adaptive_config` solves for the paper controller.  This
    shrinks ``interval`` and ``min_samples`` proportionally (with floors)
    for the interval-window policies (subclasses of
    :class:`~repro.policy.interval.IntervalPolicy`); explicitly supplied
    parameters always win, and other policies pass through untouched.
    """
    from repro.policy import policy_class
    from repro.policy.interval import IntervalPolicy

    out = dict(params or {})
    cls = policy_class(policy)
    if not issubclass(cls, IntervalPolicy) \
            or scale >= INTERVAL_REFERENCE_SCALE:
        return out
    factor = scale / INTERVAL_REFERENCE_SCALE
    schema = cls.param_schema()
    out.setdefault("interval",
                   max(200, round(schema["interval"].default * factor)))
    out.setdefault("min_samples",
                   max(16, round(schema["min_samples"].default * factor)))
    return out


def _accesses_for(abbr: str, scale: float) -> int:
    """Trace budget of one benchmark running alone."""
    spec = benchmark(abbr)
    return max(2_000, int(DEFAULT_ACCESSES[spec.category] * scale))


def _mix_accesses(scale: float) -> int:
    """Per-program trace budget of a co-run (pair or consolidation mix)."""
    return max(4_000, int(60_000 * scale))


def nested(results: dict) -> dict:
    """``{(a, b, ..., z): value}`` regrouped as ``{a: {b: ... {z: value}}}``.

    Figure drivers key their cells by tuples; their ``rows()`` walk this
    view, so every level keeps the order the cells were declared in, and
    a test that filters cells out gets rows for only the cells it kept.
    """
    out: dict = {}
    for cell, value in results.items():
        node = out
        for part in cell[:-1]:
            node = node.setdefault(part, {})
        node[cell[-1]] = value
    return out


def print_rows(rows: list[dict], columns: Optional[list[str]] = None) -> None:
    """Aligned plain-text table, one dict per row."""
    if not rows:
        print("(no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows))
              for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
