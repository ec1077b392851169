"""``repro.analysis``: the simulator-aware static analysis pass.

The reproduction's guarantees — byte-identical golden captures,
content-keyed caching, event≡batch parity, a zero-allocation hot
path — are invariants of *how the code is written*, not just what it
computes.  This package checks them statically: an AST-based rule engine
(``determinism``, ``hot-path``, ``continuation``, ``serialization``,
``registry``), ``# repro:`` source pragmas, and a committed baseline for
grandfathered findings.  Entry point: ``repro check``
(:func:`repro.analysis.checker.run_check`).

Rules are registered components in the one ``NAME[:k=v,...]`` registry
idiom of :mod:`repro.analysis.registry`, which LLC policies, placements
and arrival processes share: one
:class:`~repro.analysis.registry.Param` schema, one
:class:`~repro.analysis.registry.Registry` and one spec parser
(:func:`~repro.analysis.registry.parse_spec`).

The package imports nothing from the simulator (stdlib only) and
type-checks under ``mypy --strict``; the simulator's registries import
:mod:`repro.analysis.registry` from it.  The package itself re-exports
nothing, so those registries load the registry module alone, not the
rule engine: import from the submodules.
"""
