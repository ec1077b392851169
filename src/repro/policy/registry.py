"""Name → class registry for LLC policies.

Policies register with the :func:`register_policy` class decorator; every
consumer — :class:`~repro.gpu.system.GPUSystem`, the campaign layer, the
``repro policy`` CLI verb, the shootout experiment — resolves names through
this one table.  Aliases keep the historical string triad
(``"shared"``/``"private"``/``"adaptive"``) working unchanged.

The CLI grammar, parsed by :meth:`~repro.config.PolicyConfig.from_spec`,
is ``NAME[:key=value,key=value,...]`` with JSON-typed values (bare words
fall back to strings), e.g.::

    --policy hysteresis:dwell=3,low=0.3
    --policy paper-adaptive
"""

from __future__ import annotations

from typing import Optional

from repro.policy.base import LLCPolicy

_REGISTRY: dict[str, type[LLCPolicy]] = {}
_ALIASES: dict[str, str] = {}


def register_policy(cls: type[LLCPolicy]) -> type[LLCPolicy]:
    """Class decorator: add ``cls`` to the registry under its ``NAME`` and
    every alias.  Duplicate names are a programming error and raise."""
    if not cls.NAME:
        raise ValueError(f"{cls.__name__} declares no NAME")
    for name in (cls.NAME, *cls.ALIASES):
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"LLC policy name {name!r} already registered")
    _REGISTRY[cls.NAME] = cls
    for alias in cls.ALIASES:
        _ALIASES[alias] = cls.NAME
    return cls


def canonical_policy_name(name: str) -> str:
    """Resolve an alias to its canonical registered name.

    Raises:
        ValueError: for unregistered names (message kept compatible with
            the historical ``GPUSystem`` error).
    """
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise ValueError(
        f"unknown LLC policy {name!r} (registered: "
        f"{', '.join(sorted(_REGISTRY))})")


def policy_class(name: str) -> type[LLCPolicy]:
    """The policy class registered under ``name`` (aliases resolve)."""
    return _REGISTRY[canonical_policy_name(name)]


def create_policy(name: str, params: Optional[dict] = None) -> LLCPolicy:
    """Instantiate a registered policy with validated parameters."""
    return policy_class(name)(**(params or {}))


def available_policies() -> dict[str, type[LLCPolicy]]:
    """Canonical name → class, sorted by name (aliases excluded)."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def canonical_policy_params(name: str, params: Optional[dict]) -> dict:
    """Schema-coerced parameter dict for cache keys (defaults NOT filled,
    so later-added defaults cannot silently re-key old specs)."""
    return policy_class(name).canonical_params(params, fill_defaults=False)
