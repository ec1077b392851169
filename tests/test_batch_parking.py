"""Parked wakes: the batch tier's edge cases, each against the event tier.

The batch tier keeps a wake that can only stall on the full MSHR file out
of the event queue (``StreamingMultiprocessor.parked_wake``) until an
event that could change its outcome settles it: this SM's fill, its
write retirement, or a reconfiguration stall (``_stall_all``).  Each
test below runs a shape where the edge case really happens (a spy counts
it, so no test passes vacuously) and requires the batch run to match the
event tier in ``RunResult`` bytes and in every counter outside it, and
to end with no park left: a park waits on its SM's outstanding fills, so
a drained queue has settled it.
"""

import collections
import json

from repro.experiments.runner import experiment_config
from repro.gpu.system import GPUSystem
from repro.workloads.catalog import build
from repro.workloads.generator import WorkloadSpec, generate_workload

#: 16 SMs in 4 clusters, 2 MCs with 4 slices each.
SMALL = dict(num_sms=16, num_clusters=4, num_memory_controllers=2,
             llc_slices_per_mc=4)


def _slow_issue_workload():
    """Few MSHRs and a 20-cycle issue gap: fills land on parked issue
    slots, ordered by seq on either side of the park."""
    spec = WorkloadSpec("fz", "FZ", "neutral", shared_mb=0.5, num_kernels=1,
                        shared_frac=0.3, write_frac=0.3,
                        instrs_per_access=40.0)
    return generate_workload(spec, num_ctas=32, total_accesses=2000)


def _va(accesses=3000):
    return build("VA", total_accesses=accesses, num_ctas=160, max_kernels=2)


def _spy(system, seen):
    """Count what settles a parked wake, by kind and by order against it."""
    engine = system.engine

    def wrap(sm, attr, kind):
        handler = getattr(sm, attr)

        def spy(arg):
            park = sm.parked_wake
            if park is not None:
                seq = engine._heap[0][1]  # the running event
                if engine.now != park[0]:
                    order = "earlier" if engine.now < park[0] else "later"
                else:
                    order = "same-before" if seq < park[1] else "same-after"
                seen[f"{kind}.{order}"] += 1
            return handler(arg)

        setattr(sm, attr, spy)

    for sm in system.sms:
        wrap(sm, "_bp_fill", "fill")
        wrap(sm, "_bp_retired", "retired")
    stall_all = system._stall_all

    def stall_spy(until):
        if until > system.global_stall_until:
            seen["stall_all"] += sum(sm.parked_wake is not None
                                     for sm in system.sms)
        stall_all(until)

    system._stall_all = stall_spy


def _twins(cfg, workload, policy, tier_state, seen=None):
    """Run one shape on both tiers and require them to agree."""
    systems = {}
    for tier in ("event", "batch"):
        system = GPUSystem(cfg.replace(tier=tier), workload, policy=policy)
        assert system.tier == tier
        if tier == "batch":
            _spy(system, seen)
        result = system.run()
        systems[tier] = (system, json.dumps(result.to_dict(),
                                            sort_keys=True))
    (event, event_bytes), (batch, batch_bytes) = (systems["event"],
                                                  systems["batch"])
    assert batch_bytes == event_bytes
    tier_state(event, batch)
    assert batch.engine.drained() and event.engine.drained()
    assert all(sm.parked_wake is None for sm in batch.sms)
    assert batch.engine.events_processed <= event.engine.events_processed
    return event, batch


def test_fill_or_retirement_at_the_parked_time(tier_state):
    """A fill or a write retirement landing exactly on a parked wake's
    time, ordered before it by seq (the park is queued, or kept) and
    after it (its stall is replayed first)."""
    seen = collections.Counter()
    small = experiment_config().replace(max_outstanding_misses=3, **SMALL)
    _twins(small, _slow_issue_workload(), "shared", tier_state, seen=seen)
    _twins(experiment_config().replace(max_outstanding_misses=8), _va(),
           "shared", tier_state, seen=seen)
    for kind in ("fill.same-before", "fill.same-after",
                 "retired.same-before", "retired.same-after"):
        assert seen[kind] >= 1, (kind, dict(seen))


def test_reconfiguration_stall_while_parked(tier_state):
    """An adaptive transition's ``_stall_all`` moves every SM's next
    issue slot: parked wakes are settled against it first."""
    seen = collections.Counter()
    cfg = experiment_config().replace(max_outstanding_misses=4)
    event, _ = _twins(cfg, _va(), "adaptive", tier_state, seen=seen)
    assert seen["stall_all"] >= 1, dict(seen)
    assert event.global_stall_until > 0.0

