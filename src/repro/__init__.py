"""repro — Adaptive Memory-Side Last-Level GPU Caching (ISCA 2019).

A from-scratch reproduction of Zhao et al.'s adaptive LLC: an event-driven
GPU memory-hierarchy simulator, shared/private/adaptive memory-side LLC
organizations, the ATD + LSP online performance model with transition Rules
#1-#3, three crossbar NoC models with DSENT-like power/area estimation, and
one experiment driver per paper table and figure.

Public entry points
-------------------
:class:`repro.config.GPUConfig`
    Table 1 baseline; override fields with :meth:`~repro.config.GPUConfig.replace`.
:func:`repro.workloads.catalog.build`
    Generate one of the 17 Table 2 benchmarks.
:class:`repro.gpu.system.GPUSystem`
    Assemble and run a simulation under ``"shared"``, ``"private"`` or
    ``"adaptive"`` LLC policy.
:mod:`repro.experiments`
    Figure/table drivers (also exposed via ``python -m repro``).

Importing the package loads only the configuration.  The simulator loads
when something builds a :class:`~repro.gpu.system.GPUSystem`, so a command
served from the result cache never imports it; import ``GPUSystem`` and
``RunResult`` from :mod:`repro.gpu.system`.
"""

from repro.config import AdaptiveConfig, DRAMTiming, GPUConfig, NoCConfig

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "DRAMTiming",
    "GPUConfig",
    "NoCConfig",
    "__version__",
]
