"""Batch execution tier: closed-form round trips, deferred tallies.

The event tier (:mod:`repro.gpu.system`) routes every access through
generic stage methods, server objects and per-access statistics bumps.
This tier swaps those stage methods for per-SM and per-slice closures that
keep the event tier's exact schedule but strip its per-event overhead:

* **Closed-form round trips.**  Each request or reply crosses its NoC
  route, tag/data ports and DRAM bank as inline arithmetic over the same
  ``busy_until`` serialization points the event tier's servers keep.  A
  hop's port is picked by plain list indexing into the topology's own
  per-cluster and per-MC port rows (plus one per-SM reply-port row), so
  no per-(SM, slice) route table is built.

* **Issue-time route decode.**  A NoC-bound access folds its memory
  controller (and, in shared mode, its LLC slice) from the line key with
  the PAE expressions the install-time self-check verifies.  Only accesses
  that leave the SM pay the folds; L1 hits never do.  *Per-event* vector
  batching was measured and rejected — 59% of event timestamps are
  singletons and the shared-server ``busy_until`` max-chains force exact
  serial event order, so there is never a same-time cohort big enough to
  amortize array overhead.  A launch-time DRAM bank/row table was likewise
  measured and rejected: the per-access dict probe costs what the two
  inline folds cost, while the table build penalizes small kernels.

* **Direct queue access.**  Issue sites build fully-formed heap entries
  and push them into the engine's binary heap themselves, drawing batches
  of sequence numbers in one read-modify-write per drain instead of one
  per push.  (A per-integer-cycle calendar queue was built and measured
  first: at this workload's queue shape — ~20 events per cycle, with
  continuations almost always crossing into a later cycle — the bucket
  bookkeeping cost more than the binary heap's C-speed sift saved.)

* **Deferred commutative counters.**  Statistics with no mid-run reader
  (slice hit/miss/eviction tallies, server job counts, channel and MC
  totals, L1 and MSHR counters) accumulate in closure-local integers and
  fold into the real objects once, when ``_collect`` runs.  Route legs
  fold per group that shares them: a request leg depends only on the
  requester's cluster and the destination slice, so each cluster's SMs
  share one set of per-slice counts; a reply leg depends only on the MC
  and the destination SM, so each MC's slices share one set of per-SM
  counts.  Integer sums commute exactly; the float folds are sums of
  *identical* integral values (flit counts, ``1.0`` tag occupancies),
  which stay exact under any grouping below 2**53, so the folded totals
  are bit-identical to the event tier's per-access accumulation.
  Counters a controller, profiler or scheduler reads mid-run
  (``prog.llc_accesses``, retired instructions, sampler observations,
  every ``busy_until``) stay live.

* **Parked wakes.**  A wake that would re-schedule itself for a later
  issue slot, while its head warp's read has no MSHR entry and the MSHR
  file is full, can only stall when it fires.  Its sequence number is
  drawn as usual but the entry is kept on the SM (``parked_wake``)
  instead of the queue.  Only three things can change what that wake
  does: this SM's fill, its write retirement and a reconfiguration stall
  (``_stall_all``).  Each settles the park first: an event ordered before
  the parked ``(time, seq)`` pushes the entry unchanged, a later one
  replays the stall the wake would have recorded.  Likewise a
  write retirement on an SM stalled on its full MSHR file with no fill
  since records the identical stall without running the drain loop, and
  a fill or retirement that leaves no warp ready skips the drain, which
  would find nothing to issue.

* **MSHR entry pooling.**  Fill handlers recycle their
  :class:`~repro.cache.mshr.MSHREntry` into a free pool instead of
  leaving it to the allocator.

Byte-identity contract
----------------------
The same event schedule with the same FIFO sequence numbers, less
the parked wakes whose outcome is known, float expressions mirrored
operation for operation, and all stateful control flow (MSHR merge/stall,
store-buffer credits, barriers, reconfiguration flushes, profiling epochs)
kept evented and scalar.  The tier-parity
suite pins ``RunResult.to_dict()`` against the golden captures.

Decline contract
----------------
``install_batchpath`` returns False — leaving the system un-mutated — for
three reasons only: the topology is not the hierarchical crossbar, the
address mapping is not exactly the PAE hash (the inlined folds encode it,
so the Hynix mapping and any subclass decline), or the install-time
self-check (inlined folds against the mapping's own
``mc_of``/``slice_of``/``bank_of``) fails.  Everything else the tier
relies on is how ``GPUSystem`` builds every system: one set count per
store kind (``cfg.llc_sets_per_slice`` and ``cfg.l1_sets``), modulo set
indexing, and the stock binary-heap ``Engine`` whose ``_heap`` the issue
sites push into.
``GPUSystem`` then runs the event tier; results are byte-identical either
way.  Consolidation runs install: per-request latency is stamped at issue
and recorded at fill with the event tier's float expression, and a
mid-run admission reaches the tier through ``update_bypass`` (mode flags)
before any of its wakes fire.

Lifetime
--------
The tier lives for one run.  Its ``_collect`` folds the deferred tallies
and then detaches: every SM's handler triple is cleared, the system's
instance overrides are removed and ``_tier_flush`` is reset, so no
closure keeps the finished system alive and dropping it frees it by
reference counting.  (The closures read SM state on every event, so
weak references are no option while the run lasts.)
"""

# repro: hot-path
from __future__ import annotations

from heapq import heappush
from typing import Any

from repro.cache.mshr import MSHREntry
from repro.core.modes import LLCMode
from repro.mem.address_map import PAEMapping
from repro.mem.dram import DRAMBank
from repro.noc.hierarchical_xbar import BYPASS_CYCLES, HierarchicalCrossbar
from repro.noc.topology import LONG_LINK_CYCLES, SHORT_LINK_CYCLES


# repro: cold
def install_batchpath(system: Any) -> bool:
    """Specialize ``system``'s pipeline stage methods in place.

    Returns True when the batch tier was installed, False when the
    system's shape is outside the specialized envelope (see module
    docstring); a False return leaves the system untouched so the caller
    can keep the event tier.
    """
    from repro.gpu.system import Request

    topo = system.topology
    if not isinstance(topo, HierarchicalCrossbar):
        return False
    mapping = system.mapping
    if type(mapping) is not PAEMapping:
        return False

    num_mcs = mapping.num_mcs
    map_spm = mapping.slices_per_mc
    num_banks = mapping.num_banks

    # Install-time self-check: the inlined folds must agree with the
    # mapping's own methods on a sample before the tier is allowed to own
    # the run.
    for key in (0, 1, 17, 4097, (1 << 22) + 5, (1 << 33) + 12345):
        r = key >> 4
        rb = key >> 6
        if (((r ^ (r >> 7) ^ (r >> 14) ^ (r >> 21)) & 0x7F) % num_mcs
                != mapping.mc_of(key)
                or ((key ^ (key >> 11) ^ (key >> 22) ^ (key >> 33))
                    & 0x7FF) % map_spm != mapping.slice_of(key)
                or ((rb ^ (rb >> 9) ^ (rb >> 18) ^ (rb >> 27))
                    & 0x1FF) % num_banks != mapping.bank_of(key)):
            return False

    # ---------------------------------------------------------- constants
    engine = system.engine
    programs = system.programs
    llc_slices = system.llc_slices
    mcs = system.mcs
    pool = system._req_pool
    locality = system.locality
    loc_note = locality.note if locality is not None else None
    maybe_finish_sm = system._maybe_finish_sm

    num_slices = system.cfg.num_llc_slices
    spm = topo.slices_per_mc
    spc = topo.sms_per_cluster
    pipeline = topo.pipeline            # int, as RouterModel.forward adds it
    SHORT = SHORT_LINK_CYCLES
    LONG = LONG_LINK_CYCLES
    BYPASS = BYPASS_CYCLES
    req_r_i = topo._req_flits[False]
    req_w_i = topo._req_flits[True]
    rep_i = topo._rep_flits[False]      # writes retire at the slice
    req_r_f = float(req_r_i)
    req_w_f = float(req_w_i)
    rep_f = float(rep_i)
    line_flits_i = system.cfg.line_flits
    line_flits_f = float(line_flits_i)
    resp_incr = line_flits_i + 1        # body + head flit, as LLCSlice adds
    llc_latency = float(system.cfg.llc_latency_cycles)

    # Queue internals: the heap list is only ever mutated in place
    # (Engine.cancel filters with ``_heap[:] = ...``), so capturing it once
    # is safe; ``_seq`` is read/written through the engine because the
    # continuation dispatch draws numbers between callbacks.
    heap = engine._heap

    # Tag arrays (recency-ordered key lists plus one dirty-key set per
    # store, see repro.cache.setassoc) are captured per store by the
    # closure factories; every path including flush/clean mutates them in
    # place, so the captures stay valid.
    llc_num_sets = system.cfg.llc_sets_per_slice
    tag_ports = [sl.tag_port for sl in llc_slices]
    data_ports = [sl.data_port for sl in llc_slices]
    l1_num_sets = system.cfg.l1_sets

    # DRAM internals (channels are built uniformly from one config).
    ch0 = mcs[0].channel
    lines_per_row = ch0.lines_per_row
    xfer_cycles = ch0._xfer_cycles
    # The bus occupancy fold multiplies only when repeated addition of
    # xfer_cycles is provably exact (integral value); otherwise it replays
    # the adds, which is still exact for identical addends.
    xfer_integral = float(xfer_cycles).is_integer()
    timing = ch0.timing
    tCL = timing.tCL
    tCCD = timing.tCCD
    tRP = timing.tRP
    tRCD = timing.tRCD
    tRC = timing.tRC
    wr_extra = timing.tWR - tCCD if timing.tWR > tCCD else 0  # exact: ints
    REORDER = DRAMBank.REORDER_BASE
    ROW_LIMIT = DRAMBank._ROW_TABLE_LIMIT
    channels = [mc.channel for mc in mcs]
    banks_of = [mc.channel.banks for mc in mcs]
    busses = [mc.channel.bus for mc in mcs]

    # MSHR entry free pool, shared by every SM's fill/alloc path.
    mshr_pool: list[MSHREntry] = []

    # Deferred-counter folds, one per closure factory; run by the wrapped
    # _collect before anything reads the real counters.
    fold_fns: list[Any] = []

    # Mode specialization: one bool per program, refreshed by tier_flush().
    mode_private = [False] * len(programs)

    # repro: cold
    def tier_flush() -> None:
        """Re-derive the per-program mode flags.  Runs at install and from
        every reconfiguration (update_bypass), i.e. at each epoch boundary
        a policy controller can move, so no request is ever routed under a
        stale mode."""
        for i, prog in enumerate(programs):
            mode_private[i] = prog.mode is LLCMode.PRIVATE

    # Route ports.  A request crosses its cluster's SM-router port toward
    # the MC (``req_sm_routers[cl].output_ports[mc]``) and, unless
    # bypassed, the MC-router port toward the slice (``req_mcr_ports`` by
    # slice_global).  A reply crosses its MC-router port toward the
    # cluster (``rep_mc_routers[mc].output_ports[cl]``) and the SM-router
    # port toward the SM (``rep_smr_ports`` by sm_id).  The wires and
    # routers around them only carry tallies, derived from the topology
    # when the deferred counts fold.
    req_mcr_ports = [port for mcr in topo.req_mc_routers
                     for port in mcr.output_ports]
    rep_smr_ports = [topo.rep_sm_routers[sm_id // spc]
                     .output_ports[sm_id % spc]
                     for sm_id in range(system.cfg.num_sms)]

    # ---------------------------------------------------- route-leg tallies
    # repro: cold
    def make_request_legs(
            cl: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """Per-destination-slice issue counts shared by cluster ``cl``'s
        SMs, folded over the request route legs at collect time.  The
        ``*_all`` counts cover the legs every issue crosses (SM-router
        port, long wire); ``*_routed`` the MC-router legs only non-bypass
        issues cross.  Recording the bypass decision per issue keeps the
        fold exact across mid-run bypass flips (adaptive reconfigurations
        power the MC-routers on and off)."""
        rd_all = [0] * num_slices
        wr_all = [0] * num_slices
        rd_routed = [0] * num_slices
        wr_routed = [0] * num_slices
        smr_ports = topo.req_sm_routers[cl].output_ports

        def fold() -> None:
            # req_r_f/req_w_f are integral, so the n * flits products are
            # exact sums of the event tier's one-per-issue increments, in
            # any fold order.
            for sg in range(num_slices):
                nr = rd_all[sg]
                nw = wr_all[sg]
                if not (nr or nw):
                    continue
                mc = sg // spm
                port = smr_ports[mc]
                port.busy_cycles += nr * req_r_f + nw * req_w_f
                port.jobs += nr + nw
                topo.req_long[cl][mc].flits += nr * req_r_i + nw * req_w_i
                mr = rd_routed[sg]
                mw = wr_routed[sg]
                if mr or mw:
                    fi = mr * req_r_i + mw * req_w_i
                    port = req_mcr_ports[sg]
                    port.busy_cycles += mr * req_r_f + mw * req_w_f
                    port.jobs += mr + mw
                    mcr = topo.req_mc_routers[mc]
                    mcr.buffer_flits += fi
                    mcr.xbar_flits += fi
                    mcr.packets += mr + mw
                    topo.req_dist[sg].flits += fi
                    rd_routed[sg] = wr_routed[sg] = 0
                rd_all[sg] = wr_all[sg] = 0

        fold_fns.append(fold)
        return rd_all, wr_all, rd_routed, wr_routed

    # repro: cold
    def make_reply_legs(mc: int) -> tuple[list[int], list[int]]:
        """Per-destination-SM reply counts shared by MC ``mc``'s slices:
        all replies (long wire, SM-router, distribution wire) and the
        subset that crossed the MC router, folded over the reply route
        legs at collect time so a reply only touches ``busy_until``
        live."""
        rep_all = [0] * system.cfg.num_sms
        rep_routed = [0] * system.cfg.num_sms
        rep_mcr = topo.rep_mc_routers[mc]
        mcr_ports = rep_mcr.output_ports

        def fold() -> None:
            # rep_f/rep_i are integral, so n * rep_f is an exact sum of n
            # event-tier increments.
            for sm_id, n in enumerate(rep_all):
                if not n:
                    continue
                cl = sm_id // spc
                topo.rep_long[mc][cl].flits += n * rep_i
                port = rep_smr_ports[sm_id]
                port.busy_cycles += n * rep_f
                port.jobs += n
                smr = topo.rep_sm_routers[cl]
                smr.buffer_flits += n * rep_i
                smr.xbar_flits += n * rep_i
                smr.packets += n
                topo.rep_dist[sm_id].flits += n * rep_i
                m = rep_routed[sm_id]
                if m:
                    port = mcr_ports[cl]
                    port.busy_cycles += m * rep_f
                    port.jobs += m
                    rep_mcr.buffer_flits += m * rep_i
                    rep_mcr.xbar_flits += m * rep_i
                    rep_mcr.packets += m
                    rep_routed[sm_id] = 0
                rep_all[sm_id] = 0

        fold_fns.append(fold)
        return rep_all, rep_routed

    request_legs = [make_request_legs(cl)
                    for cl in range(system.cfg.num_clusters)]
    reply_legs = [make_reply_legs(mc) for mc in range(num_mcs)]

    # ------------------------------------------------------ slice stages
    # Specialized per slice: every counter with no mid-run reader
    # accumulates in a closure cell and folds at collect time.
    # repro: cold
    def make_slice_closures(sg: int) -> tuple[Any, Any]:
        sl = llc_slices[sg]
        tag = tag_ports[sg]
        data = data_ports[sg]
        store = sl.store
        keys_by_set = store._sets
        dirty = store._dirty
        assoc = store.assoc
        mc = sg // spm
        mc_stats = mcs[mc]
        chan = channels[mc]
        banks = banks_of[mc]
        bus = busses[mc]
        sl_srv = topo.slice_links[sg].server
        # This MC-router's reply ports, indexed by destination cluster.
        rep_mcr_ports = topo.rep_mc_routers[mc].output_ports

        rep_all, rep_routed = reply_legs[mc]

        # Deferred tallies: read/write hits+misses, evictions, dirty
        # writebacks, write-through stores, fills, replies.
        a_rh = a_rm = a_wh = a_wm = a_ev = a_wb = a_wt = a_fill = a_rep = 0

        def dram_write(at: float, key: int) -> None:
            """Bank state machine + bus occupancy for a DRAM write
            (writeback or write-through).  Mirrors ``DRAMChannel.access``
            with ``is_write=True`` minus the deferred counters."""
            r = key >> 6
            bank = ((r ^ (r >> 9) ^ (r >> 18) ^ (r >> 27))
                    & 0x1FF) % num_banks
            row = key // lines_per_row
            b = banks[bank]
            busy = b.busy_until
            start = busy if busy > at else at
            backlog = busy - at
            if backlog < 0.0:
                backlog = 0.0
            window = backlog + REORDER
            seen = b._row_last_seen
            last = seen.get(row)
            if row == b.open_row or (last is not None
                                     and at - last <= window):
                b.row_hits += 1
                ready = start + tCCD
            else:
                b.row_misses += 1
                la = b.last_activate + tRC
                activate_at = la if la > start else start
                ready = activate_at + tRP + tRCD
                b.last_activate = activate_at
            b.open_row = row
            seen[row] = at
            if len(seen) > ROW_LIMIT:
                cutoff = at - 4 * window
                b._row_last_seen = {rw: ts for rw, ts in seen.items()
                                    if ts >= cutoff}
            ready += wr_extra
            b.busy_until = ready
            busy = bus.busy_until
            bus.busy_until = (busy if busy > ready else ready) + xfer_cycles

        def read_s(req: Any) -> Any:
            nonlocal a_rh, a_rm, a_ev, a_wb
            now = engine.now
            key = req.key
            busy = tag.busy_until
            tag_done = (busy if busy > now else now) + 1.0
            tag.busy_until = tag_done
            keys = keys_by_set[key % llc_num_sets]
            if key in keys:
                a_rh += 1
                keys.remove(key)
                keys.append(key)
                busy = data.busy_until
                exit_time = (busy if busy > tag_done
                             else tag_done) + line_flits_f
                data.busy_until = exit_time
                sm = req.sm
                prog = programs[sm.program_id]
                if system.count_program_llc:
                    prog.llc_accesses += 1
                    prog.llc_hits += 1
                ctrl = prog.controller
                if ctrl is not None and not mode_private[sm.program_id]:
                    profiler = ctrl.profiler
                    if profiler is not None and profiler.active:
                        profiler.observe_request(key, sm.cluster_id, mc,
                                                 sg, True)
                return (exit_time + llc_latency, reply_s, req)
            a_rm += 1
            # Inlined SetAssocCache._fill, read fills are clean: a full set
            # first evicts its LRU head.
            wb_key = None
            if len(keys) >= assoc:
                victim = keys.pop(0)
                a_ev += 1
                if victim in dirty:
                    dirty.remove(victim)
                    a_wb += 1
                    wb_key = victim
            keys.append(key)
            sm = req.sm
            prog = programs[sm.program_id]
            if system.count_program_llc:
                prog.llc_accesses += 1
            ctrl = prog.controller
            if ctrl is not None and not mode_private[sm.program_id]:
                profiler = ctrl.profiler
                if profiler is not None and profiler.active:
                    profiler.observe_request(key, sm.cluster_id, mc,
                                             sg, False)
            if wb_key is not None:
                dram_write(tag_done, wb_key)
            # Inlined DRAM read: PAE bank fold + row extraction.  (A
            # launch-time key -> (bank, row) table was measured: the dict
            # probe costs as much as the two folds it replaces, and the
            # table build made small-kernel launches strictly slower.)
            r = key >> 6
            bank = ((r ^ (r >> 9) ^ (r >> 18) ^ (r >> 27))
                    & 0x1FF) % num_banks
            row = key // lines_per_row
            b = banks[bank]
            busy = b.busy_until
            start = busy if busy > tag_done else tag_done
            backlog = busy - tag_done
            if backlog < 0.0:
                backlog = 0.0
            window = backlog + REORDER
            seen = b._row_last_seen
            last = seen.get(row)
            if row == b.open_row or (last is not None
                                     and tag_done - last <= window):
                b.row_hits += 1
                dram_ready = start + tCCD
            else:
                b.row_misses += 1
                la = b.last_activate + tRC
                activate_at = la if la > start else start
                dram_ready = activate_at + tRP + tRCD
                b.last_activate = activate_at
            b.open_row = row
            seen[row] = tag_done
            if len(seen) > ROW_LIMIT:
                cutoff = tag_done - 4 * window
                b._row_last_seen = {rw: ts for rw, ts in seen.items()
                                    if ts >= cutoff}
            b.busy_until = dram_ready
            busy = bus.busy_until
            bus_done = (busy if busy > dram_ready
                        else dram_ready) + xfer_cycles
            bus.busy_until = bus_done
            return (bus_done + tCL, fill_s, req)

        def fill_s(req: Any) -> Any:
            nonlocal a_fill
            busy = data.busy_until
            now = engine.now
            exit_time = (busy if busy > now else now) + line_flits_f
            data.busy_until = exit_time
            a_fill += 1
            return (exit_time + llc_latency, reply_s, req)

        def reply_s(req: Any) -> Any:
            """Closed-form reply traversal; every tally is deferred — the
            slice link's as a scalar, the per-destination-SM route legs as
            counts folded at collect time.  Only the ``busy_until``
            serialization points mutate live (they feed the next reply's
            queueing delay, so they cannot wait)."""
            nonlocal a_rep
            now = engine.now
            sm = req.sm
            sm_id = sm.sm_id
            busy = sl_srv.busy_until
            t = (busy if busy > now else now) + rep_f
            sl_srv.busy_until = t
            a_rep += 1
            rep_all[sm_id] += 1
            t = t + SHORT
            if topo.bypass and req.slice_local == sm.cluster_id:
                t = t + BYPASS
            else:
                # Shared mode, or an in-flight reply draining through a
                # still-powered MC-router after a switch to private.
                mcr_port = rep_mcr_ports[sm.cluster_id]
                busy = mcr_port.busy_until
                done = (busy if busy > t else t) + rep_f
                mcr_port.busy_until = done
                rep_routed[sm_id] += 1
                t = done + pipeline
            t = t + LONG
            smr_port = rep_smr_ports[sm_id]
            busy = smr_port.busy_until
            done = (busy if busy > t else t) + rep_f
            smr_port.busy_until = done
            t = done + pipeline
            return (t + SHORT, sm._bp_fill, req)

        def write_s(req: Any) -> Any:
            nonlocal a_wh, a_wm, a_ev, a_wb, a_wt
            now = engine.now
            sm = req.sm
            key = req.key
            write_through = mode_private[sm.program_id]
            busy = tag.busy_until
            tag_done = (busy if busy > now else now) + 1.0
            tag.busy_until = tag_done
            keys = keys_by_set[key % llc_num_sets]
            wb_key = None
            hit = key in keys
            if hit:
                a_wh += 1
                keys.remove(key)
            else:
                a_wm += 1
                if len(keys) >= assoc:
                    victim = keys.pop(0)
                    a_ev += 1
                    if victim in dirty:
                        dirty.remove(victim)
                        a_wb += 1
                        wb_key = victim
            keys.append(key)
            if not write_through:
                dirty.add(key)
            busy = data.busy_until
            done = (busy if busy > tag_done else tag_done) + line_flits_f
            data.busy_until = done
            if write_through:
                a_wt += 1
            prog = programs[sm.program_id]
            if system.count_program_llc:
                prog.llc_accesses += 1
                if hit:
                    prog.llc_hits += 1
            ctrl = prog.controller
            if ctrl is not None and not write_through:
                profiler = ctrl.profiler
                if profiler is not None and profiler.active:
                    profiler.observe_request(key, sm.cluster_id, mc, sg,
                                             hit)
            if wb_key is not None:
                dram_write(done, wb_key)
            if write_through:
                dram_write(done, key)
            req.sm = None
            pool.append(req)
            return (done if done > now else now, sm._bp_retired, sm)

        # repro: cold
        def fold() -> None:
            """Apply the deferred tallies to the real counters; resets the
            accumulators so a second _collect would fold zero deltas.
            Derivations mirror one event-tier access each: see the module
            docstring for why the float folds are exact."""
            nonlocal a_rh, a_rm, a_wh, a_wm, a_ev, a_wb, a_wt, a_fill, a_rep
            reads = a_rh + a_rm
            writes = a_wh + a_wm
            acc = reads + writes
            sl.window_accesses += acc
            sl.read_hits += a_rh
            sl.read_misses += a_rm
            sl.write_hits += a_wh
            sl.write_misses += a_wm
            sl.response_flits += float((a_rh + a_fill) * resp_incr)
            sl.dram_writes += a_wt
            tag.jobs += acc
            tag.busy_cycles += float(acc)
            data_jobs = a_rh + a_fill + writes
            data.jobs += data_jobs
            data.busy_cycles += data_jobs * line_flits_f
            store.hits += a_rh + a_wh
            store.misses += a_rm + a_wm
            store.evictions += a_ev
            store.writebacks += a_wb
            dram_w = a_wb + a_wt
            mc_stats.read_requests += a_rm
            mc_stats.write_requests += dram_w
            chan.reads += a_rm
            chan.writes += dram_w
            bus_jobs = a_rm + dram_w
            bus.jobs += bus_jobs
            if xfer_integral:
                bus.busy_cycles += bus_jobs * xfer_cycles
            else:
                bc = bus.busy_cycles
                for _ in range(bus_jobs):
                    bc += xfer_cycles
                bus.busy_cycles = bc
            sl_srv.jobs += a_rep
            sl_srv.busy_cycles += a_rep * rep_f
            a_rh = a_rm = a_wh = a_wm = a_ev = a_wb = a_wt = 0
            a_fill = a_rep = 0

        fold_fns.append(fold)
        return read_s, write_s

    # Slice entry points, indexed by slice_global; the fill and reply
    # stages are reached only through the continuations these return.
    read_by_sg: list[Any] = [None] * num_slices
    write_by_sg: list[Any] = [None] * num_slices
    for _sg in range(num_slices):
        read_by_sg[_sg], write_by_sg[_sg] = make_slice_closures(_sg)

    # ------------------------------------------------------------ SM loop
    # repro: cold
    def make_sm_closures(sm: Any) -> tuple[Any, Any, Any]:
        """Build ``sm``'s private (wake, fill, retired) handler triple.

        The event tier's ``_sm_wake``/``_on_fill``/``_on_write_retired``
        with four changes: routes are folded inline at issue, issue pushes
        go straight into the engine's heap, the L1/MSHR/issue tallies defer
        to closure cells folded at collect time, and a wake that can only
        stall is parked (module docstring).  Control flow (barriers, MSHR
        merge/stall, store-buffer credits, wake coalescing) stays copied
        verbatim — those are the stateful points that must not be
        collapsed."""
        l1 = sm.l1
        l1_store = l1._store
        smid = sm.sm_id
        l1_sets = l1_store._sets
        l1_assoc = l1_store.assoc
        mshr = sm.mshr
        mshr_entries = mshr._entries
        mshr_capacity = mshr.num_entries
        cluster_id = sm.cluster_id
        program_id = sm.program_id        # fixed in _build_programs
        # Per-request latency samples (None unless the run tracks them).
        lat = programs[program_id].latencies
        sm_srv = topo.sm_links[smid].server
        req_smr = topo.req_sm_routers[cluster_id]
        # This cluster's SM-router request ports, indexed by MC.
        req_smr_ports = req_smr.output_ports
        rd_all, wr_all, rd_routed, wr_routed = request_legs[cluster_id]

        # Deferred tallies: issued reads/writes, MSHR events, L1 events.
        b_ir = b_iw = b_mg = b_al = b_st = 0
        b_l1rh = b_l1rm = b_l1w = b_l1sh = b_l1sm = b_l1ev = 0

        def wake(_: Any) -> None:
            """The drain loop, specialized: inline route folds, direct heap
            pushes with locally-batched seq draws, deferred tallies instead
            of attribute bumps.  Follows the continuation protocol: a
            deferred self-wake is *returned*, never pushed, unless it can
            only stall, in which case it is parked."""
            nonlocal b_ir, b_iw, b_mg, b_al, b_st
            nonlocal b_l1rh, b_l1rm, b_l1w, b_l1sh, b_l1sm
            sm.wake_scheduled = False
            sm.mshr_blocked_at = -1.0
            now = engine.now
            stall_until = system.global_stall_until
            gap = sm.gap_cycles
            instrs = sm.instrs_per_access
            bypass_lo = sm.l1_bypass_lo
            bypass_hi = sm.l1_bypass_hi
            has_bypass = bypass_lo < bypass_hi
            ready = sm.ready
            popleft = ready.popleft
            append = ready.append
            # Sequence numbers are drawn into a local and written back at
            # every exit: nothing inside the drain reads engine._seq (the
            # engine only draws for the *returned* continuation, after the
            # write-back, and maybe_finish_sm runs after the loop).
            seq = engine._seq
            next_issue = sm.next_issue_time
            ri = sm.retired_instructions
            live = sm.live_accesses
            while ready:
                warp = ready[0]
                cursor = warp.cursor
                keys = warp.keys
                nb = warp.next_barrier

                # CTA barrier (__syncthreads): park until siblings arrive.
                if nb is not None and cursor >= nb and cursor < len(keys):
                    group = warp.group
                    warp.next_barrier = nb + group.interval * warp.stride
                    group.arrived += 1
                    popleft()
                    if group.arrived >= group.live:
                        group.arrived = 0
                        append(warp)
                        ready.extend(group.parked)
                        group.parked.clear()
                    else:
                        group.parked.append(warp)
                    continue

                issue_at = next_issue
                if stall_until > issue_at:
                    issue_at = stall_until
                if issue_at < now:
                    issue_at = now
                key = keys[cursor]
                is_write = warp.writes[cursor]
                bypass = has_bypass and bypass_lo <= key < bypass_hi

                if not is_write and not bypass:
                    # Inlined L1 read lookup: commit the hit, touch
                    # nothing on a miss.
                    tag_keys = l1_sets[key % l1_num_sets]
                    if key in tag_keys:
                        b_l1sh += 1
                        tag_keys.remove(key)
                        tag_keys.append(key)
                        b_l1rh += 1
                        # L1 hit: purely SM-local, consume eagerly.
                        cursor += warp.stride
                        warp.cursor = cursor
                        next_issue = issue_at + gap
                        ri += instrs
                        live -= 1
                        popleft()
                        if cursor < len(keys):
                            append(warp)
                        elif warp.group is not None:
                            warp.group.on_exhaust(ready)
                        continue

                # NoC-bound access: must be issued at its architectural
                # time, and must not mutate state before that time arrives.
                if issue_at > now:
                    sm.next_issue_time = next_issue
                    sm.retired_instructions = ri
                    sm.live_accesses = live
                    sm.wake_scheduled = True
                    if (not is_write and key not in mshr_entries
                            and len(mshr_entries) >= mshr_capacity):
                        # Only this SM's fill or write retirement, or a
                        # reconfiguration stall, can change what this
                        # wake does; until one settles it, it is a stall.
                        # Keep it here under the seq the engine would
                        # have drawn for the continuation.
                        sm.parked_wake = (issue_at, seq)
                        engine._seq = seq + 1
                        return None
                    engine._seq = seq
                    # Through the SM, not this closure's own cell, which
                    # would make the wake a reference cycle by itself.
                    return (issue_at, sm._bp_wake, sm)

                if is_write:
                    if sm.write_credits <= 0:
                        engine._seq = seq
                        sm.next_issue_time = next_issue
                        sm.retired_instructions = ri
                        sm.live_accesses = live
                        return None
                    sm.write_credits -= 1
                    # Inlined L1 write-through, no write-allocate: a
                    # hit only touches recency (the line stays clean).
                    b_l1w += 1
                    tag_keys = l1_sets[key % l1_num_sets]
                    if key in tag_keys:
                        b_l1sh += 1
                        tag_keys.remove(key)
                        tag_keys.append(key)
                    else:
                        b_l1sm += 1
                    cursor += warp.stride
                    warp.cursor = cursor
                    next_issue = issue_at + gap
                    ri += instrs
                    live -= 1
                    b_iw += 1
                    flits_f = req_w_f
                    cnt_all = wr_all
                    cnt_routed = wr_routed
                    stage_by_sg = write_by_sg
                else:
                    # L1 read miss: the warp blocks on the line (in-order
                    # warp).
                    entry_m = mshr_entries.get(key)
                    if entry_m is not None:
                        entry_m.waiters.append(warp)
                        b_mg += 1
                        if not bypass:
                            b_l1rm += 1
                        warp.waiting_on = key
                        cursor += warp.stride
                        warp.cursor = cursor
                        next_issue = issue_at + gap
                        ri += instrs
                        live -= 1
                        popleft()
                        if cursor >= len(keys) and warp.group is not None:
                            warp.group.on_exhaust(ready)
                        continue
                    if len(mshr_entries) >= mshr_capacity:
                        b_st += 1
                        engine._seq = seq
                        sm.mshr_blocked_at = now
                        sm.next_issue_time = next_issue
                        sm.retired_instructions = ri
                        sm.live_accesses = live
                        return None
                    if mshr_pool:
                        entry_m = mshr_pool.pop()
                        entry_m.key = key
                        entry_m.issue_time = issue_at
                    else:
                        entry_m = MSHREntry(key, issue_at)
                    mshr_entries[key] = entry_m
                    b_al += 1
                    entry_m.waiters.append(warp)
                    b_ir += 1
                    flits_f = req_r_f
                    cnt_all = rd_all
                    cnt_routed = rd_routed
                    stage_by_sg = read_by_sg

                # Route decode: the PAE MC fold; private mode pins the
                # slice to the requester's cluster, shared mode folds it.
                r = key >> 4
                mc = ((r ^ (r >> 7) ^ (r >> 14) ^ (r >> 21))
                      & 0x7F) % num_mcs
                if mode_private[program_id]:
                    slice_local = cluster_id
                else:
                    slice_local = ((key ^ (key >> 11) ^ (key >> 22)
                                    ^ (key >> 33)) & 0x7FF) % map_spm
                slice_global = mc * spm + slice_local
                if pool:
                    req = pool.pop()
                    req.sm = sm
                    req.key = key
                    req.mc = mc
                    req.slice_local = slice_local
                    req.slice_global = slice_global
                else:
                    req = Request(sm, key, mc, slice_local, slice_global)
                req.t0 = issue_at
                if loc_note is not None:
                    loc_note(key, cluster_id, issue_at)
                busy = sm_srv.busy_until
                t = (busy if busy > issue_at else issue_at) + flits_f
                sm_srv.busy_until = t
                t = t + SHORT
                smr_port = req_smr_ports[mc]
                busy = smr_port.busy_until
                done = (busy if busy > t else t) + flits_f
                smr_port.busy_until = done
                t = done + pipeline
                t = t + LONG
                cnt_all[slice_global] += 1
                if topo.bypass:
                    if slice_local != cluster_id:
                        raise ValueError(
                            "bypassed MC-router can only reach the "
                            "requester's own private slice (cluster "
                            f"{cluster_id}, asked {slice_local})")
                    arrive = t + BYPASS
                else:
                    mcr_port = req_mcr_ports[slice_global]
                    busy = mcr_port.busy_until
                    done = (busy if busy > t else t) + flits_f
                    mcr_port.busy_until = done
                    cnt_routed[slice_global] += 1
                    t = done + pipeline
                    arrive = t + SHORT
                heappush(heap, (arrive, seq, stage_by_sg[slice_global], req))
                seq += 1

                if is_write:
                    popleft()
                    if cursor < len(keys):
                        append(warp)
                    elif warp.group is not None:
                        warp.group.on_exhaust(ready)
                else:
                    if not bypass:
                        b_l1rm += 1
                    warp.waiting_on = key
                    cursor += warp.stride
                    warp.cursor = cursor
                    next_issue = issue_at + gap
                    ri += instrs
                    live -= 1
                    popleft()
                    if cursor >= len(keys) and warp.group is not None:
                        warp.group.on_exhaust(ready)
            engine._seq = seq
            sm.next_issue_time = next_issue
            sm.retired_instructions = ri
            sm.live_accesses = live
            if not live and not mshr_entries:
                maybe_finish_sm(sm)
            return None

        def fill(req: Any) -> None:
            nonlocal b_l1ev
            if sm.parked_wake is not None:
                settle(sm, engine.now, heap[0][1])
            key = req.key
            if lat is not None:
                lat.append(engine.now - req.t0)
            req.sm = None
            pool.append(req)
            entry_m = mshr_entries.pop(key)
            waiters = entry_m.waiters
            if not sm.l1_bypass_lo <= key < sm.l1_bypass_hi:
                # Inlined L1 allocate-on-fill: fills are clean;
                # re-inserting a resident line only touches recency.
                keys = l1_sets[key % l1_num_sets]
                if key in keys:
                    keys.remove(key)
                elif len(keys) >= l1_assoc:
                    keys.pop(0)
                    b_l1ev += 1
                keys.append(key)
            ready_append = sm.ready.append
            for warp in waiters:
                if warp.waiting_on == key:
                    warp.waiting_on = None
                    if warp.cursor < len(warp.keys):
                        ready_append(warp)
            waiters.clear()
            mshr_pool.append(entry_m)
            # With no warp ready (the filled ones were exhausted) a drain
            # would only repeat the finish check below; the stall marker
            # it clears is already clear, since a stalled SM keeps its
            # stalled warp ready.
            if not sm.wake_scheduled and sm.ready:
                return wake(sm)
            if not sm.live_accesses and not mshr_entries:
                maybe_finish_sm(sm)
            return None

        def retired(_: Any) -> None:
            """Store-buffer credit return; mirrors
            GPUSystem._on_write_retired (including the same-instant wake
            coalescing) but hands a provoked drain back to the engine as a
            continuation.  A credit cannot unblock a read stalled on the
            full MSHR file, so while no fill has come since that stall
            the drain is known to stall again: record it directly."""
            nonlocal b_st
            sm.write_credits += 1
            now = engine.now
            if sm.parked_wake is not None:
                # The parked wake stays parked if it comes later; a credit
                # leaves its stall unchanged.
                settle(sm, now, heap[0][1], keep_later=True)
            if not sm.wake_scheduled:
                blocked = sm.mshr_blocked_at
                if blocked >= 0.0:
                    if blocked != now:
                        b_st += 1
                        sm.mshr_blocked_at = now
                elif sm.ready:
                    return wake(sm)
                elif not sm.live_accesses and not mshr_entries:
                    # Nothing ready: the drain would only do this check.
                    maybe_finish_sm(sm)
            return None

        # repro: cold
        def fold() -> None:
            """Fold the deferred SM-side tallies (idempotent: resets)."""
            nonlocal b_ir, b_iw, b_mg, b_al, b_st
            nonlocal b_l1rh, b_l1rm, b_l1w, b_l1sh, b_l1sm, b_l1ev
            sm.issued_reads += b_ir
            sm.issued_writes += b_iw
            mshr.merges += b_mg
            mshr.allocations += b_al
            mshr.stalls += b_st
            l1.read_hits += b_l1rh
            l1.read_misses += b_l1rm
            l1.writes += b_l1w
            l1_store.hits += b_l1sh
            l1_store.misses += b_l1sm
            l1_store.evictions += b_l1ev
            issued = b_ir + b_iw
            sm_srv.jobs += issued
            sm_srv.busy_cycles += b_ir * req_r_f + b_iw * req_w_f
            req_smr.packets += issued
            flits = b_ir * req_r_i + b_iw * req_w_i
            req_smr.buffer_flits += flits
            req_smr.xbar_flits += flits
            b_ir = b_iw = b_mg = b_al = b_st = 0
            b_l1rh = b_l1rm = b_l1w = b_l1sh = b_l1sm = b_l1ev = 0

        fold_fns.append(fold)
        return wake, fill, retired

    # repro: cold
    def settle(sm: Any, now: float, seq: int,
               keep_later: bool = False) -> None:
        """Resolve ``sm``'s parked wake against the event ``(now, seq)``
        that is about to change what the wake would do.  A wake ordered
        after that event is queued unchanged (or, with ``keep_later``,
        left parked); one ordered before it has already fired in the
        event tier's schedule, so its stall is replayed."""
        park_at, park_seq = sm.parked_wake
        if now < park_at or (now == park_at and seq < park_seq):
            if keep_later:
                return
            heappush(heap, (park_at, park_seq, sm._bp_wake, sm))
        else:
            sm.mshr.stalls += 1
            sm.mshr_blocked_at = park_at
            sm.wake_scheduled = False
        sm.parked_wake = None

    for sm_obj in system.sms:
        (sm_obj._bp_wake, sm_obj._bp_fill,
         sm_obj._bp_retired) = make_sm_closures(sm_obj)

    # Event-tier signature for the kernel-launch wake batch.
    def sm_wake(sm: Any) -> None:
        return sm._bp_wake(sm)

    # ------------------------------------------------------------ install
    original_update_bypass = system.update_bypass

    # repro: cold
    def update_bypass(now: float) -> None:
        original_update_bypass(now)
        tier_flush()

    original_stall_all = system._stall_all

    # repro: cold
    def stall_all(until: float) -> None:
        """A reconfiguration stall moves every SM's next issue slot, so it
        settles every parked wake first (against the running event)."""
        if until > system.global_stall_until:
            for sm in system.sms:
                if sm.parked_wake is not None:
                    settle(sm, engine.now, heap[0][1])
        original_stall_all(until)

    original_collect = system._collect

    # repro: cold
    def collect() -> Any:
        """Fold the deferred tallies, then detach (module docstring,
        Lifetime).  A drained queue leaves no parked wake: a park waits on
        this SM's outstanding fills, whose events settle it."""
        for fold in fold_fns:
            fold()
        for sm in system.sms:
            sm._bp_wake = sm._bp_fill = sm._bp_retired = None
        del system._sm_wake, system.update_bypass, system._stall_all
        del system._collect
        system._tier_flush = None
        return original_collect()

    tier_flush()
    system._sm_wake = sm_wake
    system.update_bypass = update_bypass
    system._stall_all = stall_all
    system._collect = collect
    system._tier_flush = tier_flush
    return True
