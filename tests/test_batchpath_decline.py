"""The batch-tier install-decline matrix: refuse politely, change nothing.

:func:`~repro.gpu.batchpath.install_batchpath` specializes a system only
when its shape is inside the closed-form envelope; outside it, the install
must *decline* — return False, leave the event tier active with no tier
flush hook, and leave the system so untouched that its run is
byte-identical to one that never saw the installer.  One test per decline
reason:

* a non-``HierarchicalCrossbar`` topology, on a static run and on an
  adaptive run whose controller switches LLC modes and flushes caches
  mid-run (the paths an installed tier hooks through ``tier_flush``);
* a non-PAE address mapping (the inlined folds encode the PAE hash), be
  it the Hynix mapping or a ``PAEMapping`` subclass;
* a failed install-time self-check (the inlined folds disagree with the
  mapping's own methods).

The topology and Hynix cases are reachable from configuration alone, so
they pin the end-to-end contract: a ``tier="batch"`` config silently falls
back to the event tier and produces byte-identical results.  The other two
cannot be configured, so they are created by mutating *two identical
systems the same way* and attempting the install on only one — any state
the declined installer perturbed would show up as a result divergence
between the twins.
"""

import dataclasses

import pytest

from repro.experiments.runner import experiment_config
from repro.gpu.batchpath import install_batchpath
from repro.gpu.system import GPUSystem
from repro.mem.address_map import PAEMapping
from repro.workloads.catalog import build


def _system(cfg, bench: str = "VA", policy: str = "shared") -> GPUSystem:
    workload = build(bench, total_accesses=2_000, num_ctas=32, max_kernels=1)
    return GPUSystem(cfg, workload, policy=policy)


def _assert_config_falls_back(cfg, bench: str = "VA",
                              policy: str = "shared") -> dict:
    """``cfg`` with tier="batch" keeps the event tier, hooks no tier flush
    and runs byte-identically to ``cfg`` with tier="event".  Returns the
    run's result."""
    results = []
    for tier in ("batch", "event"):
        system = _system(cfg.replace(tier=tier), bench, policy)
        assert system.tier == "event"
        assert system._tier_flush is None, (
            "a declined install must not leave a tier flush hook behind")
        results.append(system.run().to_dict())
    assert results[0] == results[1]
    return results[0]


def _twin_systems(bench: str = "VA", policy: str = "shared"):
    """Two independently built, identical event-tier systems."""
    cfg = experiment_config().replace(tier="event")  # no install
    return _system(cfg, bench, policy), _system(cfg, bench, policy)


def _assert_declined_and_untouched(declined: GPUSystem,
                                   untouched: GPUSystem) -> None:
    assert install_batchpath(declined) is False
    assert declined.tier == "event"
    assert declined._tier_flush is None
    assert declined.run().to_dict() == untouched.run().to_dict(), (
        "a declined install must leave the system byte-identical to one "
        "that never attempted installation")


# ------------------------------------------------ config-reachable reasons
# LUD switches the adaptive controller's LLC mode even at this size, so
# the adaptive case covers a mid-run transition and its cache flush.
@pytest.mark.parametrize("bench, policy",
                         [("VA", "shared"), ("LUD", "adaptive")])
def test_decline_non_hierarchical_crossbar_topology(bench, policy):
    noc_full = dataclasses.replace(experiment_config().noc, topology="full")
    result = _assert_config_falls_back(
        experiment_config().replace(noc=noc_full), bench, policy)
    if policy == "adaptive":
        assert result["transitions"] >= 1, "the run must reconfigure mid-run"


def test_decline_hynix_mapping():
    _assert_config_falls_back(
        experiment_config().replace(address_mapping="hynix"))


def test_fastpath_tier_is_rejected():
    with pytest.raises(ValueError, match="unknown execution tier") as exc:
        experiment_config().replace(tier="fastpath").validate()
    assert "event, batch" in str(exc.value)


# ------------------------------------------------- mutation-only reasons
class _TracingMapping(PAEMapping):
    """Behaviourally identical subclass: the exact-type guard must decline
    it anyway, because the inlined folds encode PAEMapping's hash and a
    subclass may override any of the fold methods."""


def test_decline_non_pae_mapping_subclass():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        system.mapping.__class__ = _TracingMapping
    _assert_declined_and_untouched(declined, untouched)


def test_decline_failed_self_check(monkeypatch):
    """A ``PAEMapping`` whose bank fold no longer matches the inlined one
    (still a valid bank, so the event tier runs fine) is caught by the
    install-time self-check."""
    bank_of = PAEMapping.bank_of
    monkeypatch.setattr(PAEMapping, "bank_of", lambda self, key:
                        (bank_of(self, key) + 1) % self.num_banks)
    declined, untouched = _twin_systems()
    _assert_declined_and_untouched(declined, untouched)


# ----------------------------------------------------------------- control
def test_unmutated_twin_installs():
    """The mutation harness itself must not be why installs decline: an
    untouched twin accepts the batch tier, static or adaptive, and the
    install hooks the tier flush that the controller's mode transitions
    call."""
    for bench, policy in (("VA", "shared"), ("LUD", "adaptive")):
        system, _ = _twin_systems(bench, policy)
        assert install_batchpath(system) is True, (bench, policy)
        assert system._tier_flush is not None, (bench, policy)
