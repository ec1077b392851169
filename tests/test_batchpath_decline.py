"""The batch-tier install-decline matrix: refuse politely, change nothing.

:func:`~repro.gpu.batchpath.install_batchpath` specializes a system only
when its shape is inside the closed-form envelope; outside it, the install
must *decline* — return False, leave the event tier active, and leave the
system so untouched that its run is byte-identical to a twin system that
never saw the installer.  One test per documented decline reason:

* non-``HierarchicalCrossbar`` topology,
* a nonzero tag-store ``index_shift``,
* non-uniform set counts across slices (or across L1s),
* a non-PAE address mapping (the inlined folds encode the PAE hash), be
  it the Hynix mapping or a ``PAEMapping`` subclass,
* an engine that is not the stock binary-heap ``Engine`` (the tier pushes
  fully-formed entries into ``engine._heap`` directly).

The topology and Hynix cases are reachable from configuration alone, so
they also pin the end-to-end contract: a ``tier="batch"`` config silently
falls back to the event tier and produces byte-identical results.  The
other shapes cannot be configured today, so they are created by mutating
*two identical systems the same way* and attempting the install on only
one — any state the declined installer perturbed would show up as a
result divergence between the twins.
"""

import dataclasses

import pytest

from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import experiment_config
from repro.gpu.batchpath import install_batchpath
from repro.gpu.system import GPUSystem
from repro.mem.address_map import PAEMapping
from repro.sim.engine import Engine
from repro.workloads.catalog import build

TINY = 0.02


def _twin_systems(policy: str = "shared"):
    """Two independently built, identical event-tier systems."""
    def make():
        cfg = experiment_config().replace(tier="event")  # no install
        workload = build("VA", total_accesses=2_000, num_ctas=32,
                         max_kernels=1)
        return GPUSystem(cfg, workload, policy=policy)
    return make(), make()


def _assert_declined_and_untouched(declined: GPUSystem,
                                   untouched: GPUSystem) -> None:
    assert install_batchpath(declined) is False
    assert declined.tier == "event"
    assert declined.run().to_dict() == untouched.run().to_dict(), (
        "a declined install must leave the system byte-identical to one "
        "that never attempted installation")


def _assert_config_falls_back(cfg) -> None:
    """``cfg`` with tier="batch" installs the event tier and runs
    byte-identically to ``cfg`` with tier="event"."""
    cfg_batch = cfg.replace(tier="batch")
    cfg_event = cfg.replace(tier="event")
    workload = build("VA", total_accesses=2_000, num_ctas=32, max_kernels=1)
    system = GPUSystem(cfg_batch, workload, policy="shared")
    assert system.tier == "event"

    batch_spec = RunSpec.single("VA", "shared", cfg_batch, scale=TINY)
    event_spec = RunSpec.single("VA", "shared", cfg_event, scale=TINY)
    assert execute_spec(batch_spec).to_dict() == \
        execute_spec(event_spec).to_dict()


# ------------------------------------------------ config-reachable reasons
def test_decline_non_hierarchical_crossbar_topology():
    noc_full = dataclasses.replace(experiment_config().noc, topology="full")
    _assert_config_falls_back(experiment_config().replace(noc=noc_full))


def test_decline_hynix_mapping():
    _assert_config_falls_back(
        experiment_config().replace(address_mapping="hynix"))


def test_fastpath_tier_is_rejected():
    with pytest.raises(ValueError, match="unknown execution tier") as exc:
        experiment_config().replace(tier="fastpath").validate()
    assert "event, batch" in str(exc.value)


# ------------------------------------------------- mutation-only reasons
def test_decline_nonzero_index_shift():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        system.llc_slices[0].store.index_shift = 1
    _assert_declined_and_untouched(declined, untouched)


def test_decline_non_uniform_set_counts():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        store = system.llc_slices[0].store
        # Half the sets: indexes stay in range (modulo shrinks), so the
        # event tier still runs fine — the shape is just non-uniform.
        store.num_sets //= 2
    _assert_declined_and_untouched(declined, untouched)


def test_decline_non_uniform_l1_set_counts():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        system.sms[0].l1._store.num_sets //= 2
    _assert_declined_and_untouched(declined, untouched)


class _TracingMapping(PAEMapping):
    """Behaviourally identical subclass: the exact-type guard must decline
    it anyway, because the inlined folds encode PAEMapping's hash and a
    subclass may override any of the fold methods."""


def test_decline_non_pae_mapping_subclass():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        system.mapping.__class__ = _TracingMapping
    _assert_declined_and_untouched(declined, untouched)


class _InstrumentedEngine(Engine):
    """Behaviourally identical subclass: declined because the batch tier
    bypasses the engine API and pushes into ``_heap`` directly, which is
    only safe against the stock engine's queue representation."""

    __slots__ = ()  # keep the layout __class__-assignment compatible


def test_decline_non_stock_engine_subclass():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        system.engine.__class__ = _InstrumentedEngine
    _assert_declined_and_untouched(declined, untouched)


# ----------------------------------------------------------------- control
def test_unmutated_twin_installs():
    """The mutation harness itself must not be why installs decline: an
    untouched twin accepts the batch tier."""
    system, _ = _twin_systems()
    assert install_batchpath(system) is True
