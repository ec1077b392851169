"""One registry for named, parameterized components.

LLC policies (:mod:`repro.policy`), SM placements and arrival processes
(:mod:`repro.consolidate`) and check rules (:mod:`repro.analysis`) are the
same idiom: a class with a registered ``NAME`` (plus optional
``ALIASES``), a one-line ``DESCRIPTION`` and a declared :class:`Param`
schema, built from spec text in the grammar ``NAME[:key=value,...]``
with JSON-typed values (bare words fall back to strings)::

    --policy hysteresis:dwell=3,low=0.3
    --arrivals poisson:gap=2000
    repro check --rules hot-path:slots=false

This module holds the idiom once: :class:`Param` (typed, validated
parameter), :class:`Component` (the base every kind subclasses),
:class:`Registry` (one per kind: register, resolve, list, create) and the
grammar's parser and renderer (:func:`parse_spec`, :func:`format_spec`).

It lives in the analysis package because that package is the tree's
stdlib-only, strictly typed island: the analysis package imports nothing
from the simulator, and the simulator's registries import only this
module from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar, Generic, Mapping, Optional, TypeVar


def parse_spec(text: str) -> tuple[str, dict[str, object]]:
    """Parse ``NAME[:key=value,...]`` into ``(name, params)``.

    The name is not resolved here, so parse errors and unknown-name
    errors stay distinguishable.

    Raises:
        ValueError: for a missing name or a token without ``=``.
    """
    name, sep, rest = text.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"spec {text!r} has no name")
    params: dict[str, object] = {}
    if sep and rest.strip():
        for token in rest.split(","):
            key, eq, raw = token.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"parameter {token!r} is not of the form key=value "
                    f"(in {text!r})")
            try:
                value: object = json.loads(raw.strip())
            except ValueError:
                value = raw.strip()
            params[key] = value
    return name, params


def format_spec(name: str, params: Mapping[str, object]) -> str:
    """The canonical spec text (inverse of :func:`parse_spec`): keys
    sorted, values JSON-rendered."""
    if not params:
        return name
    body = ",".join(f"{k}={json.dumps(v)}" for k, v in sorted(params.items()))
    return f"{name}:{body}"


@dataclass(frozen=True)
class Param:
    """One declared, typed component parameter (the ``k=v`` of a spec).

    Attributes:
        name: parameter key as it appears in spec text.
        type: expected Python type (``int``/``float``/``bool``/``str``).
        default: value used when the parameter is omitted.
        doc: one-line description for listings.
        choices: optional closed set of allowed values.
        bounds: optional inclusive ``(low, high)`` range of allowed
            values; ``high`` may be ``None`` (unbounded above).
    """

    name: str
    type: type
    default: object
    doc: str = ""
    choices: Optional[tuple[object, ...]] = None
    bounds: Optional[tuple[float, Optional[float]]] = None

    def coerce(self, value: object) -> object:
        """Validate ``value`` against the schema, widening int → float.

        Raises:
            ValueError: on a type mismatch, a value outside ``choices``
                or ``bounds``, or a float that is not finite.
        """
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if self.type is int and isinstance(value, bool):
            raise ValueError(
                f"parameter {self.name!r} expects int, got bool {value!r}")
        if not isinstance(value, self.type):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {value!r} ({type(value).__name__})")
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of "
                f"{list(self.choices)}, got {value!r}")
        if self.bounds is not None:
            assert isinstance(value, (int, float))
            low, high = self.bounds
            # ``not >=`` / ``not <=`` so a NaN fails the check too.
            if not value >= low or (high is not None and not value <= high):
                allowed = f">= {low}" if high is None else \
                    f"in [{low}, {high}]"
                raise ValueError(f"parameter {self.name!r} must be "
                                 f"{allowed}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"parameter {self.name!r} must be finite, got {value!r}")
        return value


class Component:
    """Base of every registered component kind.

    A kind's base sets ``KIND`` (the noun error messages use); each
    concrete class sets ``NAME`` and optionally ``ALIASES``,
    ``DESCRIPTION`` and ``PARAMS``.  Construction validates and coerces
    keyword parameters against ``PARAMS``; the canonical values, with
    defaults filled in, land in ``self.params``.
    """

    #: The component kind, as error messages name it.
    KIND: ClassVar[str] = "component"
    #: Canonical registered name.
    NAME: ClassVar[str] = ""
    #: Alternate names that resolve to this class.
    ALIASES: ClassVar[tuple[str, ...]] = ()
    #: One-line description for listings.
    DESCRIPTION: ClassVar[str] = ""
    #: Declared parameter schema.
    PARAMS: ClassVar[tuple[Param, ...]] = ()

    def __init__(self, **params: object) -> None:
        self.params: dict[str, object] = self.canonical_params(
            params, fill_defaults=True)

    @classmethod
    def param_schema(cls) -> dict[str, Param]:
        return {p.name: p for p in cls.PARAMS}

    @classmethod
    def canonical_params(cls, params: Optional[Mapping[str, object]],
                         fill_defaults: bool = False) -> dict[str, object]:
        """Validate/coerce ``params`` against the schema.

        With ``fill_defaults`` every declared parameter is present in the
        result (construction); without, only the explicitly given ones
        are (cache-key canonicalization: adding a default later must not
        reshuffle previously computed keys).

        Raises:
            ValueError: for an undeclared parameter or a value
                :meth:`Param.coerce` rejects.
        """
        schema = cls.param_schema()
        given = dict(params or {})
        unknown = set(given) - set(schema)
        if unknown:
            raise ValueError(
                f"{cls.KIND} {cls.NAME!r} has no parameters "
                f"{sorted(unknown)} (available: {sorted(schema) or 'none'})")
        out = {name: schema[name].coerce(value)
               for name, value in given.items()}
        if fill_defaults:
            for param in cls.PARAMS:
                out.setdefault(param.name, param.default)
        return out

    def spec(self) -> str:
        """Canonical spec text of this instance, parameters at their
        default elided."""
        schema = self.param_schema()
        return format_spec(self.NAME, {
            k: v for k, v in self.params.items() if schema[k].default != v})


C = TypeVar("C", bound=Component)


class Registry(Generic[C]):
    """Name → class table of one component kind.

    Args:
        base: the kind's base class (its ``KIND`` names the kind in
            error messages).
        default: spec that :meth:`from_spec` builds for empty text and
            that :meth:`canonical_spec` elides to ``None``.
    """

    def __init__(self, base: type[C], default: Optional[str] = None) -> None:
        self.kind = base.KIND
        self.default = default
        self._classes: dict[str, type[C]] = {}

    def register(self, cls: type[C]) -> type[C]:
        """Class decorator: add ``cls`` under its ``NAME`` and every alias.
        Duplicate names are a programming error and raise."""
        if not cls.NAME:
            raise ValueError(f"{cls.__name__} declares no NAME")
        names = (cls.NAME, *cls.ALIASES)
        for name in names:
            if name in self._classes:
                raise ValueError(
                    f"{self.kind} name {name!r} already registered")
        for name in names:
            self._classes[name] = cls
        return cls

    def resolve(self, name: str) -> type[C]:
        """The class registered under ``name`` (aliases resolve).

        Raises:
            ValueError: for an unregistered name, listing the registered
                ones.
        """
        cls = self._classes.get(name)
        if cls is None:
            raise ValueError(
                f"unknown {self.kind} {name!r} (registered: "
                f"{', '.join(self.available())})")
        return cls

    def canonical_name(self, name: str) -> str:
        """Resolve an alias to its canonical registered name."""
        return self.resolve(name).NAME

    def available(self) -> dict[str, type[C]]:
        """Canonical name → class, sorted by name (aliases excluded)."""
        return {name: cls for name, cls in sorted(self._classes.items())
                if cls.NAME == name}

    def canonical_params(self, name: str,
                         params: Optional[Mapping[str, object]]
                         ) -> dict[str, object]:
        """Schema-coerced explicit parameters of ``name`` (defaults not
        filled in; see :meth:`Component.canonical_params`)."""
        return self.resolve(name).canonical_params(params)

    def create(self, name: str,
               params: Optional[Mapping[str, object]] = None) -> C:
        """Instantiate a registered class with validated parameters."""
        return self.resolve(name)(**(params or {}))

    def from_spec(self, text: Optional[str]) -> C:
        """Instantiate from ``NAME[:k=v,...]`` spec text (empty or
        ``None`` text means the registry's default)."""
        return self.create(*parse_spec(text or self.default or ""))

    def canonical_spec(self, text: Optional[str]) -> Optional[str]:
        """Canonical spec text with default parameters dropped, or
        ``None`` when ``text`` is empty or names the default with default
        parameters."""
        if not text:
            return None
        rendered = self.from_spec(text).spec()
        return None if rendered == self.default else rendered
