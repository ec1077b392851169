"""Checker pragmas: structured ``# repro: ...`` comments.

The checker is configured *in the source it checks*, through four comment
directives (one directive per comment):

``# repro: hot-path``
    Marks the whole module as hot-path code; the ``hot-path`` rule only
    runs on modules carrying this pragma (engine, batchpath, setassoc,
    server).  Placement: any line, conventionally right below the module
    docstring.

``# repro: cold``
    On (or immediately above) a ``def`` line inside a hot module: this
    function runs off the hot path (install-time factories, amortized
    compaction), so allocations in its *direct* body are fine.  Nested
    functions it creates are still checked as hot — an install-time
    factory may allocate freely while building its closures, but the
    closures themselves fire per event.

``# repro: allow(rule[, rule...])``
    Trailing comment suppressing the named rules' findings on that line
    (``allow(*)`` suppresses every rule).  Reserved for findings that are
    provably fine; prefer fixing, then baselining.

``# repro: key-exempt(field[, field...])``
    Permits the named dataclass fields to be dropped from ``to_dict()``
    without a ``serialization`` finding — the sanctioned spelling for
    elide-at-default fields that must stay out of the content key.

Comments are read with :mod:`tokenize`, so strings and docstrings can
mention pragmas without activating them.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*(?P<directive>[\w*-]+)\s*(?:\((?P<args>[^)]*)\))?\s*$")

#: Directives the scanner understands; anything else is reported so typos
#: fail loudly instead of silently deactivating a pragma.
KNOWN_DIRECTIVES = ("hot-path", "cold", "allow", "key-exempt")


@dataclass
class FilePragmas:
    """Every pragma found in one source file.

    Attributes:
        hot_path: the module carries ``# repro: hot-path``.
        cold_lines: line numbers bearing ``# repro: cold`` (a ``def`` on
            or directly below such a line is cold).
        allows: line number → rule names allowed on that line (``"*"``
            allows all rules).
        key_exempt: dataclass field names exempted from cache-key
            coverage.
        unknown: ``(line, directive)`` pairs for unrecognized directives.
    """

    hot_path: bool = False
    cold_lines: frozenset[int] = frozenset()
    allows: dict[int, frozenset[str]] = field(default_factory=dict)
    key_exempt: frozenset[str] = frozenset()
    unknown: tuple[tuple[int, str], ...] = ()

    def allows_on(self, line: int, rule: str) -> bool:
        """True when ``rule`` findings on ``line`` are suppressed."""
        names = self.allows.get(line)
        return names is not None and ("*" in names or rule in names)

    def is_cold_def(self, def_line: int) -> bool:
        """True when a ``def`` starting at ``def_line`` is marked cold
        (pragma on the def line itself or the line above it)."""
        return (def_line in self.cold_lines
                or def_line - 1 in self.cold_lines)


def _split_args(raw: str | None) -> frozenset[str]:
    if not raw:
        return frozenset()
    return frozenset(tok.strip() for tok in raw.split(",") if tok.strip())


def scan_pragmas(source: str) -> FilePragmas:
    """Extract every ``# repro:`` pragma from ``source``.

    Tolerates syntactically broken files (the tokenizer error is
    swallowed; pragmas seen before the error still apply) — the checker
    reports the parse failure separately.
    """
    hot = False
    cold: set[int] = set()
    allows: dict[int, frozenset[str]] = {}
    key_exempt: set[str] = set()
    unknown: list[tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.match(tok.string.strip())
        if match is None:
            continue
        line = tok.start[0]
        directive = match.group("directive")
        args = _split_args(match.group("args"))
        if directive == "hot-path":
            hot = True
        elif directive == "cold":
            cold.add(line)
        elif directive == "allow":
            allows[line] = allows.get(line, frozenset()) | args
        elif directive == "key-exempt":
            key_exempt |= args
        else:
            unknown.append((line, directive))
    return FilePragmas(hot_path=hot, cold_lines=frozenset(cold),
                       allows=allows, key_exempt=frozenset(key_exempt),
                       unknown=tuple(unknown))
