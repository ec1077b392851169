"""Fixture-driven tests for every checker rule.

Each rule gets at least one snippet it must flag (true positive) and one
it must not (the precision half of the contract — a checker that cries
wolf gets ``allow``-ed into uselessness).  Snippets run through
:func:`repro.analysis.check_source` so pragma handling is exercised on
the same path the CLI uses.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.base import available_rules, create_rule
from repro.analysis.checker import check_source
from repro.analysis.pragmas import scan_pragmas
from repro.analysis.registry import parse_spec
from repro.analysis.config import is_sim_path


def findings_for(source: str, rule: str, path: str = "snippet.py"):
    """Findings of one rule over a dedented snippet (sim-classified:
    ``snippet.py`` is not under a repro package)."""
    out = check_source(path, textwrap.dedent(source), [create_rule(rule)])
    return [f for f in out if f.rule != "parse-error"]


# --------------------------------------------------------------- registry
def test_all_five_rules_registered():
    assert set(available_rules()) >= {
        "determinism", "hot-path", "continuation", "serialization",
        "registry"}


def test_rule_spec_grammar_parses_json_values():
    name, params = parse_spec("hot-path:slots=false")
    assert name == "hot-path"
    assert params == {"slots": False}


def test_rule_spec_bare_words_fall_back_to_strings():
    _, params = parse_spec("hot-path:slots=nope")
    assert params == {"slots": "nope"}


def test_cli_list_rules_output_is_pinned(capsys):
    """``repro check --list-rules`` stdout, pinned by its sha256 digest."""
    import hashlib

    from repro.cli import main

    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a912272fff788c62bd0bee70c8b5d074bafbe1530f20dfc83e65d2fae88333ec")


def test_unknown_rule_name_raises_with_listing():
    with pytest.raises(ValueError, match="determinism"):
        create_rule("no-such-rule")


def test_unknown_rule_param_raises():
    with pytest.raises(ValueError, match="slots"):
        create_rule("hot-path:wrong=1")


def test_param_type_mismatch_raises():
    with pytest.raises(ValueError, match="expects bool"):
        create_rule("hot-path:slots=3")


# ------------------------------------------------------------ determinism
def test_determinism_flags_for_loop_over_set():
    findings = findings_for("""
        def drain(pending):
            waiting = set(pending)
            for req in waiting:
                req.fire()
    """, "determinism")
    assert len(findings) == 1
    assert "iterates a set" in findings[0].message


def test_determinism_flags_set_literal_comprehension():
    findings = findings_for("""
        order = [x for x in {3, 1, 2}]
    """, "determinism")
    assert len(findings) == 1


def test_determinism_allows_sorted_set_iteration():
    findings = findings_for("""
        def drain(pending):
            waiting = set(pending)
            for req in sorted(waiting):
                req.fire()
    """, "determinism")
    assert findings == []


def test_determinism_allows_order_insensitive_reducers():
    findings = findings_for("""
        def total(keys, table):
            shared = set(keys)
            return sum(table[k] for k in shared)
    """, "determinism")
    assert findings == []


def test_determinism_flags_id_as_dict_key():
    findings = findings_for("""
        def index(objs):
            return {id(o): o for o in objs}
    """, "determinism")
    assert len(findings) == 1
    assert "id()" in findings[0].message


def test_determinism_allows_id_membership_and_counting():
    # Identity checks are deterministic; only *key* uses are flagged.
    findings = findings_for("""
        def count_distinct(objs, gated):
            seen = frozenset(map(id, objs))
            return len(seen) if id(objs) in gated else 0
    """, "determinism")
    assert findings == []


def test_determinism_flags_module_level_random():
    findings = findings_for("""
        import random

        def jitter():
            return random.random()
    """, "determinism")
    assert len(findings) == 1
    assert "seeded" in findings[0].message


def test_determinism_allows_seeded_rng_instance():
    findings = findings_for("""
        import random

        def make_rng(seed):
            return random.Random(seed)
    """, "determinism")
    assert findings == []


def test_determinism_flags_wall_clock():
    findings = findings_for("""
        import time

        def stamp():
            return time.time()
    """, "determinism")
    assert len(findings) == 1
    assert "wall clock" in findings[0].message


def test_determinism_skips_infra_paths():
    # The same wall-clock read in a service/ module is fine.
    findings = findings_for("""
        import time

        def stamp():
            return time.time()
    """, "determinism", path="src/repro/service/jobs.py")
    assert findings == []
    assert not is_sim_path("src/repro/service/jobs.py")
    assert is_sim_path("src/repro/gpu/system.py")


# --------------------------------------------------------------- hot-path
def hot_findings(source: str, rule: str = "hot-path"):
    """Findings over a snippet with the hot-path pragma prepended
    (after dedent, so the snippet indentation survives)."""
    src = "# repro: hot-path\n" + textwrap.dedent(source)
    out = check_source("snippet.py", src, [create_rule(rule)])
    assert all(f.rule != "parse-error" for f in out), out
    return out


def test_hotpath_inactive_without_pragma():
    findings = findings_for("""
        def step(xs):
            return [x + 1 for x in xs]
    """, "hot-path")
    assert findings == []


def test_hotpath_flags_comprehension_in_hot_function():
    findings = hot_findings("""
        def step(xs):
            return [x + 1 for x in xs]
    """)
    assert len(findings) == 1
    assert "list comprehension" in findings[0].message


def test_hotpath_flags_lambda_and_nested_def():
    findings = hot_findings("""
        def step(xs, cb):
            k = lambda x: x + 1
            def inner():
                return cb()
            return inner
    """)
    assert {("lambda" in f.message or "nested function" in f.message)
            for f in findings} == {True}
    assert len(findings) == 2


def test_hotpath_cold_factory_exempt_but_closures_hot():
    findings = hot_findings("""
        # repro: cold
        def install(parts):
            table = {p.key: p for p in parts}  # install-time: fine
            def fire(now):
                return [p for p in table]  # per-event: flagged
            return fire
    """)
    assert len(findings) == 1
    assert findings[0].line == 7


def test_hotpath_flags_nested_def_inside_compound_statement():
    findings = hot_findings("""
        def step(flag):
            if flag:
                def retry():
                    return 1
                return retry
    """)
    assert len(findings) == 1
    assert "nested function" in findings[0].message


def test_hotpath_flags_class_without_slots():
    findings = hot_findings("""
        class Request:
            def __init__(self):
                self.addr = 0
    """)
    assert any("__slots__" in f.message for f in findings)


def test_hotpath_accepts_slots_and_dataclass_slots():
    findings = hot_findings("""
        from dataclasses import dataclass

        class Request:
            __slots__ = ("addr",)

        @dataclass(frozen=True, slots=True)
        class Result:
            hit: bool
    """)
    assert findings == []


def test_hotpath_slots_param_disables_slots_check():
    findings = hot_findings("""
        class Request:
            pass
    """, "hot-path:slots=false")
    assert findings == []


def test_hotpath_module_level_comprehension_is_import_time():
    findings = hot_findings("""
        TABLE = [i * 2 for i in range(64)]
    """)
    assert findings == []


# ------------------------------------------------------------ continuation
def test_continuation_flags_wrong_arity_tuple():
    findings = findings_for("""
        def fire(arg):
            return (1.0, fire)

        engine.schedule_call(0.0, fire, None)
    """, "continuation")
    assert len(findings) == 1
    assert "2-tuple" in findings[0].message


def test_continuation_flags_constant_return():
    findings = findings_for("""
        def fire(arg):
            if arg:
                return True
            return None

        engine.schedule_call(0.0, fire, None)
    """, "continuation")
    assert len(findings) == 1
    assert "True" in findings[0].message


def test_continuation_accepts_triple_none_and_bare_return():
    findings = findings_for("""
        def follow(arg):
            return None

        def fire(arg):
            if arg > 1:
                return (arg + 1.0, follow, arg)
            if arg:
                return
            return None

        engine.schedule_call(0.0, fire, None)
    """, "continuation")
    assert findings == []


def test_continuation_follows_chains_through_returned_triples():
    # `follow` is never passed to schedule_call directly; it is only
    # reachable as the middle element of fire's continuation triple.
    findings = findings_for("""
        def follow(arg):
            return [1, 2, 3]

        def fire(arg):
            return (1.0, follow, arg)

        engine.schedule_call(0.0, fire, None)
    """, "continuation")
    assert len(findings) == 1
    assert "follow" in findings[0].message


def test_continuation_checks_schedule_batch_tuples():
    findings = findings_for("""
        def wake(arg):
            return 42

        engine.schedule_batch([(1.0, wake, None)])
    """, "continuation")
    assert len(findings) == 1


def test_continuation_ignores_uninvolved_functions():
    findings = findings_for("""
        def helper(x):
            return x + 1

        engine.cancel([helper(seq)])
    """, "continuation")
    assert findings == []


def test_continuation_checks_lambda_callbacks():
    # A lambda's body is its return value, so a lambda callback whose body
    # is a wrong-shaped tuple or a constant is flagged; calls are trusted,
    # and a triple it returns continues into a named callback.
    findings = findings_for("""
        def follow(arg):
            return [1]

        engine.schedule_call(0.0, lambda arg: (1.0, arg), None)
        engine.schedule_batch([(1.0, lambda arg: 42, None)])
        engine.schedule_call(0.0, lambda arg: log.append(arg), None)
        engine.schedule_call(0.0, lambda arg: arg or (2.0, follow, arg), None)
    """, "continuation")
    messages = sorted(f.message for f in findings)
    assert len(messages) == 3, messages
    assert "engine callback 'follow' returns a list" in messages[0]
    assert "engine callback lambda returns a 2-tuple" in messages[1]
    assert "engine callback lambda returns the constant 42" in messages[2]


# ----------------------------------------------------------- serialization
def test_serialization_flags_missing_to_dict_field():
    findings = findings_for("""
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            beta: int

            def to_dict(self):
                return {"alpha": self.alpha}

            @classmethod
            def from_dict(cls, data):
                return cls(alpha=data["alpha"], beta=data["beta"])
    """, "serialization")
    assert len(findings) == 1
    assert "'beta'" in findings[0].message
    assert "to_dict" in findings[0].message


def test_serialization_flags_missing_from_dict_field():
    findings = findings_for("""
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            beta: int

            def to_dict(self):
                return {"alpha": self.alpha, "beta": self.beta}

            @classmethod
            def from_dict(cls, data):
                return cls(data["alpha"], 0)
    """, "serialization")
    assert len(findings) == 1
    assert "'beta'" in findings[0].message
    assert "from_dict" in findings[0].message


def test_serialization_keyword_restore_counts_as_coverage():
    findings = findings_for("""
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            beta: int

            def to_dict(self):
                return {"alpha": self.alpha, "beta": self.beta}

            @classmethod
            def from_dict(cls, data):
                return cls(alpha=data["alpha"], beta=int(data["beta"]))
    """, "serialization")
    assert findings == []


def test_serialization_accepts_splat_from_dict_and_asdict():
    findings = findings_for("""
        import dataclasses
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            beta: int

            def to_dict(self):
                return dataclasses.asdict(self)

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
    """, "serialization")
    assert findings == []


def test_serialization_accepts_scalar_fields_idiom():
    findings = findings_for("""
        from dataclasses import dataclass

        @dataclass
        class Result:
            ipc: float
            cycles: int

            _SCALAR_FIELDS = ("ipc", "cycles")

            def to_dict(self):
                return {n: getattr(self, n) for n in self._SCALAR_FIELDS}

            @classmethod
            def from_dict(cls, data):
                return cls(**{n: data[n] for n in cls._SCALAR_FIELDS})
    """, "serialization")
    assert findings == []


def test_serialization_flags_unexempted_key_drop():
    findings = findings_for("""
        import dataclasses
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            tier: str

            def to_dict(self):
                data = dataclasses.asdict(self)
                del data["tier"]
                return data

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
    """, "serialization")
    assert len(findings) == 1
    assert "key-exempt" in findings[0].message


def test_serialization_key_exempt_pragma_sanctions_drop():
    findings = findings_for("""
        import dataclasses
        from dataclasses import dataclass

        @dataclass
        class Spec:
            alpha: int
            tier: str

            def to_dict(self):
                data = dataclasses.asdict(self)
                # repro: key-exempt(tier)
                del data["tier"]
                return data

            @classmethod
            def from_dict(cls, data):
                return cls(**data)
    """, "serialization")
    assert findings == []


def test_serialization_skips_classes_without_own_methods():
    findings = findings_for("""
        from dataclasses import dataclass

        @dataclass
        class Plain:
            alpha: int
    """, "serialization")
    assert findings == []


# ---------------------------------------------------------------- registry
def test_registry_flags_named_but_unregistered_policy():
    findings = findings_for("""
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"
    """, "registry")
    assert len(findings) == 1
    assert "register_policy" in findings[0].message


def test_registry_accepts_registered_policy():
    findings = findings_for("""
        @register_policy
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"
            PARAMS = (Param("interval", int, 10, "epoch length"),)

            def on_epoch(self):
                return self.params["interval"]
    """, "registry")
    assert findings == []


def test_registry_flags_undeclared_params_read_via_alias():
    findings = findings_for("""
        @register_policy
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"
            PARAMS = (Param("interval", int, 10, "epoch length"),)

            def on_epoch(self):
                p = self.params
                return p["threshold"]
    """, "registry")
    assert len(findings) == 1
    assert "threshold" in findings[0].message


def test_registry_flags_duplicate_param_declaration():
    findings = findings_for("""
        @register_policy
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"
            PARAMS = (Param("k", int, 1, ""),
                      Param("k", int, 2, ""))
    """, "registry")
    assert any("twice" in f.message for f in findings)


def test_registry_covers_subclasses_of_every_policy_base():
    """A subclass of ``IntervalPolicy`` (or any other policy base) gets
    the same checks as a direct ``LLCPolicy`` subclass; a placement does
    not."""
    for base in ("LLCPolicy", "IntervalPolicy"):
        findings = findings_for(f"""
            class ShinyPolicy({base}):
                NAME = "shiny"
                PARAMS = (Param("k", int, 1, ""),
                          Param("k", int, 2, ""))
        """, "registry")
        assert len(findings) == 2, base
        assert "register_policy" in findings[0].message
        assert "'repro policy list'" in findings[0].message
        assert "twice" in findings[1].message
    # other registered components are not policies
    assert findings_for("""
        class ShinyPlacement(Placement):
            NAME = "shiny"
            PARAMS = (Param("k", int, 1, ""),
                      Param("k", int, 2, ""))
    """, "registry") == []


def test_registry_flags_init_param_not_in_schema():
    findings = findings_for("""
        @register_policy
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"
            PARAMS = (Param("k", int, 1, ""),)

            def __init__(self, k=1, secret=0):
                super().__init__(k=k)
    """, "registry")
    assert len(findings) == 1
    assert "secret" in findings[0].message


def test_registry_skips_paramless_subclasses_key_reads():
    # No own PARAMS: the class may consume a base schema we cannot see.
    findings = findings_for("""
        @register_policy
        class ShinyPolicy(LLCPolicy):
            NAME = "shiny"

            def on_epoch(self):
                return self.params["interval"]
    """, "registry")
    assert findings == []


# ----------------------------------------------------------------- pragmas
def test_allow_pragma_suppresses_named_rule_on_line():
    findings = findings_for("""
        import time

        def stamp():
            return time.time()  # repro: allow(determinism)
    """, "determinism")
    assert findings == []


def test_allow_star_suppresses_all_rules():
    findings = findings_for("""
        import time

        def stamp():
            return time.time()  # repro: allow(*)
    """, "determinism")
    assert findings == []


def test_pragmas_in_docstrings_are_inert():
    pragmas = scan_pragmas('"""docs mention # repro: hot-path here"""\n')
    assert not pragmas.hot_path


def test_unknown_pragma_directive_is_reported():
    pragmas = scan_pragmas("# repro: hot-pth\n")
    assert pragmas.unknown == ((1, "hot-pth"),)


def test_parse_error_becomes_finding():
    out = check_source("broken.py", "def f(:\n", [create_rule("determinism")])
    assert len(out) == 1
    assert out[0].rule == "parse-error"


def test_partial_scan_scopes_stale_detection(tmp_path, monkeypatch):
    """A subset scan (one file / one rule) must not report out-of-scope
    baseline entries as stale — only a scan that could have refreshed an
    entry may expire it."""
    from repro.analysis.baseline import Baseline, BaselineEntry
    from repro.analysis.checker import run_check

    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n")
    monkeypatch.chdir(tmp_path)
    base = Baseline([BaselineEntry(
        "b.py", "determinism",
        "time.time() reads wall clock/entropy; simulator code must be a "
        "pure function of its inputs")])

    assert run_check(("a.py", "b.py"), baseline=base).ok
    assert run_check(("a.py",), baseline=base).ok  # b.py out of scope
    assert run_check(("b.py",), rules=[create_rule("hot-path")],
                     baseline=base).ok  # rule out of scope

    (tmp_path / "b.py").write_text("x = 2\n")  # violation fixed
    report = run_check(("b.py",), baseline=base)
    assert not report.ok
    assert len(report.stale) == 1


# --------------------------------------------------------------- self-host
def test_repo_checks_clean_against_committed_baseline(monkeypatch):
    """The acceptance criterion, as a test: `repro check` over the tree
    reports zero non-baselined findings and no stale baseline entries."""
    from pathlib import Path

    from repro.analysis.baseline import Baseline
    from repro.analysis.checker import run_check

    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    report = run_check(("src/repro",),
                       baseline=Baseline.load(".repro-check-baseline.json"))
    assert report.files_checked > 100
    assert report.unknown_pragmas == []
    assert report.stale == []
    assert report.new_findings == [], "\n".join(
        f.render() for f in report.new_findings)
