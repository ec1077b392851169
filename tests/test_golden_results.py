"""Golden-result guard for the simulator's refactor-safety contract.

``tests/data/golden_runresults.json`` holds ``RunResult.to_dict()``
captures from the pre-hot-path-rewrite closure-chain pipeline (one shared,
one private, one adaptive, and one two-program spec); the spec keys were
re-captured when the policy layer added ``policy_params`` to the spec
serialization (cache schema v2) after verifying every result stayed
byte-identical, and re-captured once more at cache schema v6, when every
dirty LLC line started reaching DRAM through its slice's memory controller
(transition flushes timed by the DRAM model, the run-end residue drained):
that moved the LUD+VA, LUD/shared and VA/adaptive results and every key,
and left MM/private's result as it was.  Two invariants are pinned:

* optimizations and refactors must leave every simulation result
  byte-identical, so campaign cache keys keep addressing the same payload;
* the registry-routed ``paper-adaptive`` policy is the *same machine* as
  the historical ``"adaptive"`` string — identical results, different
  label.

Both run on the event tier, the parity reference the captures came from;
``test_tier_parity.py`` pins the default batch tier against the same
captures.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.campaign import RunSpec, execute_spec

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "golden_runresults.json")

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _event_spec(spec: RunSpec) -> RunSpec:
    return dataclasses.replace(spec, cfg=spec.cfg.replace(tier="event"))


@pytest.mark.parametrize("key", sorted(GOLDEN),
                         ids=[GOLDEN[k]["label"] for k in sorted(GOLDEN)])
def test_runresult_byte_identical_to_pre_rewrite(key):
    entry = GOLDEN[key]
    spec = _event_spec(RunSpec.from_dict(entry["spec"]))
    # The spec's content key itself must not drift, or the campaign's
    # on-disk cache would silently re-run (or worse, mis-serve) old specs.
    assert spec.cache_key() == key
    result = execute_spec(spec).to_dict()
    assert result == entry["result"], (
        f"{entry['label']}: RunResult dict diverged from the pre-rewrite "
        f"golden capture")


def test_golden_covers_all_three_policies_and_a_pair():
    labels = [entry["label"] for entry in GOLDEN.values()]
    modes = {entry["spec"]["mode"] for entry in GOLDEN.values()}
    assert modes == {"shared", "private", "adaptive"}
    assert any(entry["spec"]["pair_with"] for entry in GOLDEN.values()), labels


_ADAPTIVE_KEYS = [k for k in sorted(GOLDEN)
                  if GOLDEN[k]["spec"]["mode"] == "adaptive"]


@pytest.mark.parametrize("key", _ADAPTIVE_KEYS,
                         ids=[GOLDEN[k]["label"] for k in _ADAPTIVE_KEYS])
def test_paper_adaptive_policy_byte_identical_to_adaptive_golden(key):
    """The registry-routed ``paper-adaptive`` policy must be the legacy
    ``"adaptive"`` machinery exactly: running the golden adaptive specs
    under the canonical policy name reproduces every captured field
    byte-for-byte (only the requested-name label may differ)."""
    entry = GOLDEN[key]
    spec = _event_spec(
        RunSpec.from_dict({**entry["spec"], "mode": "paper-adaptive"}))
    result = execute_spec(spec).to_dict()
    assert result == {**entry["result"], "mode": "paper-adaptive"}, (
        f"{entry['label']}: paper-adaptive diverged from the golden "
        f"'adaptive' capture")
