"""Property-style round trips for the mix grammar — the service wire format.

``BENCH[:POLICY[:k=v,...]]+...`` is how mixes travel over HTTP (and how
the CLI spells them), so the grammar gets the serialization treatment
every other wire format in this repo has: a canonical formatter
(:func:`~repro.scenario.format_mix`), parse→format→parse idempotence
over randomized well-formed inputs, and pinned rejection messages for
the malformed ones.
"""

import random

import pytest

from repro.config import PolicyConfig
from repro.experiments.campaign import RunSpec, spec_from_mix
from repro.policy import available_policies
from repro.scenario import (format_mix, format_mix_entry, parse_mix,
                            parse_mix_entry)
from repro.workloads.catalog import ALL_ABBRS

TINY = 0.02


def _random_policy(rng: random.Random) -> PolicyConfig:
    """A registered policy with a random subset of its parameters set to
    schema-plausible values (ints/floats jittered off their defaults)."""
    name, cls = rng.choice(sorted(available_policies().items()))
    params = {}
    for param in cls.PARAMS:
        if rng.random() < 0.5:
            continue
        if param.choices:
            params[param.name] = rng.choice(sorted(param.choices))
        elif param.type is int:
            params[param.name] = max(1, param.default + rng.randint(0, 3))
        elif param.type is float:
            # Grammar restriction: values must not render with '+'
            # (scientific notation), so keep them tame.
            params[param.name] = round(min(0.9, abs(param.default) + 0.1
                                           * rng.random()), 3)
        else:
            continue
    return PolicyConfig.of(name, params)


def _random_entries(rng: random.Random) -> list:
    n = rng.choice((1, 2, 3, 4))
    return [(rng.choice(ALL_ABBRS),
             _random_policy(rng) if rng.random() < 0.8 else None)
            for _ in range(n)]


# ------------------------------------------------------------ round trips
def test_parse_format_parse_is_idempotent_over_random_mixes():
    """parse∘format == id on entries, and format∘parse == id on canonical
    text, across 200 seeded random mixes over the full catalog and the
    full policy registry."""
    rng = random.Random(20260808)
    for _ in range(200):
        entries = _random_entries(rng)
        text = format_mix(entries)
        reparsed = parse_mix(text)
        assert reparsed == entries, text
        assert format_mix(reparsed) == text
        # One more lap to pin idempotence (not just involution on this
        # particular input).
        assert parse_mix(format_mix(reparsed)) == reparsed


def test_round_trip_preserves_content_keys():
    """The content key — the service's job id — must be identical whether
    a mix arrives as text or as parsed entries, across random mixes."""
    rng = random.Random(7)
    for _ in range(25):
        entries = _random_entries(rng)
        text = format_mix(entries)
        via_text = spec_from_mix(text, scale=TINY)
        via_entries = spec_from_mix(entries, scale=TINY)
        assert via_text == via_entries
        assert via_text.cache_key() == via_entries.cache_key()


def test_format_normalizes_parameter_order_and_spacing():
    """Two spellings of one mix (parameter order, whitespace) format to
    one canonical text — which is what makes the text form safe to key
    on."""
    a = parse_mix("GEMM:hysteresis:dwell=3,interval=800+SN")
    b = parse_mix("  GEMM : hysteresis:interval=800,dwell=3 +  SN ")
    # parse_mix_entry strips the benchmark but not inside policy text;
    # compare through the canonical formatter.
    assert format_mix(a) == "GEMM:hysteresis:dwell=3,interval=800+SN"
    assert format_mix(b) == format_mix(a)


def test_spec_from_mix_matches_cli_shapes():
    """A one-entry mix is a single-benchmark spec; a two-entry mix with
    two policies is a heterogeneous pair; a homogeneous pair collapses
    to the legacy one-policy spec (and key)."""
    single = spec_from_mix("VA:static-shared", scale=TINY)
    assert single == RunSpec.single("VA", "static-shared", scale=TINY)
    hetero = spec_from_mix("GEMM:static-shared+SN:static-private",
                           scale=TINY)
    assert hetero.mode_b is not None
    homo = spec_from_mix("GEMM:static-shared+SN:static-shared", scale=TINY)
    assert homo.mode_b is None
    assert homo.cache_key() == RunSpec.pair("GEMM", "SN", "static-shared",
                                            scale=TINY).cache_key()


def test_spec_from_mix_lifts_n_tenant_mixes_into_extra():
    """Three or more entries land in ``RunSpec.extra`` (in order, with
    per-tenant policies), and the resulting spec round-trips through
    ``to_dict``/``from_dict`` with an unchanged content key."""
    spec = spec_from_mix("VA:static-shared+GEMM:static-private+SN+LUD",
                         scale=TINY)
    assert spec.benchmark == "VA" and spec.pair_with == "GEMM"
    assert [abbr for abbr, _, _ in spec.extra] == ["SN", "LUD"]
    assert spec.program_entries()[2][0] == "SN"
    again = RunSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.cache_key() == spec.cache_key()


# -------------------------------------------------------------- rejections
@pytest.mark.parametrize("text,message", [
    ("GEMM++SN", "empty program entry"),
    ("", "empty program entry"),
    (":static-shared", "has no benchmark"),
    ("GEMM:hysteresis:dwell", "not of the form key=value"),
    ("GEMM:hysteresis:=3", "not of the form key=value"),
])
def test_malformed_mix_text_is_rejected_with_a_message(text, message):
    with pytest.raises(ValueError, match=message):
        parse_mix(text)


@pytest.mark.parametrize("mix,message", [
    ("NOPE:static-shared", "unknown benchmark"),
    ("VA:warp-speed", "warp-speed"),
    ("VA:hysteresis:dwell=high", "expects int"),
    ("VA:hysteresis:bogus_param=1", "no parameters"),
    ("VA:hysteresis:low=NaN", "'low' must be finite"),
    ("VA:miss-rate-threshold:go_private_below=Infinity",
     "'go_private_below' must be finite"),
])
def test_spec_from_mix_rejects_semantic_errors(mix, message):
    with pytest.raises(ValueError, match=message):
        spec_from_mix(mix, scale=TINY)


def test_formatter_rejects_unrenderable_entries():
    with pytest.raises(ValueError, match="at least one program"):
        format_mix([])
    with pytest.raises(ValueError, match="no benchmark"):
        format_mix_entry("  ")
    with pytest.raises(ValueError, match="'\\+'"):
        format_mix_entry(
            "VA", PolicyConfig.of("hysteresis", {"interval": 1e99}))


def test_one_entry_without_policy_round_trips():
    assert parse_mix_entry("GEMM") == ("GEMM", None)
    assert format_mix_entry("GEMM") == "GEMM"
    assert parse_mix(format_mix([("GEMM", None)])) == [("GEMM", None)]
