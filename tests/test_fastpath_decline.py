"""The install-decline matrix under a reconfiguring policy.

This matrix was first written against the fast-path tier; that tier is
gone, and the shapes it declined bound the batch tier's envelope too.
:mod:`tests.test_batchpath_decline` pins each decline reason on a static
``shared`` run.  Here the same reasons are pinned on an ``adaptive`` run,
whose controller profiles, switches LLC modes and flushes caches
mid-run — the paths an installed tier hooks through ``tier_flush``.  A
declined install must still return False, leave the event tier active
and leave the system so untouched that its run (every mode transition
included) is byte-identical to a twin that never saw the installer:

* non-``HierarchicalCrossbar`` topology,
* non-LRU replacement anywhere in the L1/LLC tag stores,
* a nonzero tag-store ``index_shift``,
* non-uniform set counts across slices.

The topology case is reachable from configuration alone, so it also pins
the end-to-end contract: an adaptive ``tier="batch"`` config on a full
crossbar falls back and produces the event tier's exact results.  The
other shapes cannot be configured, so they are created by mutating *two
identical systems the same way* and attempting the install on only one.
"""

import dataclasses

from repro.cache.replacement import FIFOPolicy
from repro.experiments.campaign import RunSpec, execute_spec
from repro.experiments.runner import experiment_config
from repro.gpu.batchpath import install_batchpath
from repro.gpu.system import GPUSystem
from repro.workloads.catalog import build

TINY = 0.02
POLICY = "adaptive"
# LUD switches the adaptive controller's LLC mode even at this size, so
# the twin runs below cover a mid-run transition and its cache flush.
BENCH = "LUD"


def _twin_systems():
    """Two independently built, identical event-tier adaptive systems."""
    def make():
        cfg = experiment_config()  # tier defaults to "event": no install
        workload = build(BENCH, total_accesses=2_000, num_ctas=32,
                         max_kernels=1)
        return GPUSystem(cfg, workload, policy=POLICY)
    return make(), make()


def _assert_declined_and_untouched(declined: GPUSystem,
                                   untouched: GPUSystem) -> None:
    assert install_batchpath(declined) is False
    assert declined.tier == "event"
    assert declined._tier_flush is None, (
        "a declined install must not leave a tier flush hook behind")
    result = untouched.run().to_dict()
    assert result["transitions"] >= 1, "the twins must reconfigure mid-run"
    assert declined.run().to_dict() == result, (
        "a declined install must leave the system byte-identical to one "
        "that never attempted installation")


# ------------------------------------------------- config-reachable reason
def test_decline_non_hierarchical_crossbar_topology():
    """A full-crossbar adaptive config with tier="batch" falls back to
    the event tier end to end: same spec, same results, tier honest."""
    noc_full = dataclasses.replace(experiment_config().noc, topology="full")
    cfg_batch = experiment_config().replace(noc=noc_full, tier="batch")
    cfg_event = experiment_config().replace(noc=noc_full)

    workload = build(BENCH, total_accesses=2_000, num_ctas=32, max_kernels=1)
    system = GPUSystem(cfg_batch, workload, policy=POLICY)
    assert system.tier == "event", "batch must decline off-hxbar"

    batch_spec = RunSpec.single(BENCH, POLICY, cfg_batch, scale=TINY)
    event_spec = RunSpec.single(BENCH, POLICY, cfg_event, scale=TINY)
    assert execute_spec(batch_spec).to_dict() == \
        execute_spec(event_spec).to_dict()


# ------------------------------------------------- mutation-only reasons
def test_decline_non_lru_replacement():
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        store = system.llc_slices[0].store
        store._policies[0] = FIFOPolicy(store.assoc)
    _assert_declined_and_untouched(declined, untouched)


def test_decline_non_lru_l1_replacement():
    """The guard covers the L1 tag stores too, not just the LLC."""
    declined, untouched = _twin_systems()
    for system in (declined, untouched):
        store = system.sms[0].l1._store
        store._policies[0] = FIFOPolicy(store.assoc)
    _assert_declined_and_untouched(declined, untouched)


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


# ----------------------------------------------------------------- control
def test_unmutated_twin_installs():
    """The mutation harness itself must not be why installs decline: an
    untouched adaptive twin accepts the batch tier, and the install
    hooks the tier flush that the controller's mode transitions call."""
    system, _ = _twin_systems()
    assert install_batchpath(system) is True
    assert system._tier_flush is not None
