"""Batch execution tier: closed-form round trips, deferred tallies.

The event tier (:mod:`repro.gpu.system`) routes every access through
generic stage methods, server objects and per-access statistics bumps.
This tier swaps those stage methods for per-SM and per-slice closures that
keep the event tier's exact schedule but strip its per-event overhead:

* **Closed-form round trips.**  Each request or reply crosses its NoC
  route, tag/data ports and DRAM bank as inline arithmetic over the same
  ``busy_until`` serialization points the event tier's servers keep, with
  every (SM, slice) server chain resolved once into dense route tables.

* **Launch-time route decode.**  At kernel launch one scalar sweep runs
  the PAE memory-controller and LLC-slice folds over the concatenation of
  every ``WarpContext.keys`` and lands the results in parallel per-warp
  columns (``mc_tab``/``sl_tab``/``sg_tab``).  The hot loops then read a
  precomputed column instead of re-deriving hashes per access.
  *Per-event* vector batching was measured and rejected — 59% of event
  timestamps are singletons and the shared-server ``busy_until``
  max-chains force exact serial event order, so there is never a
  same-time cohort big enough to amortize array overhead.  A launch-time
  DRAM bank/row table was likewise measured and rejected: the per-access
  dict probe costs what the two inline folds cost, while the table build
  penalizes small kernels.

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
  fold into the real objects once, when ``_collect`` runs.  Integer sums
  commute exactly; the float folds are sums of *identical* integral
  values (flit counts, ``1.0`` tag occupancies), which stay exact under
  any grouping below 2**53, so the folded totals are bit-identical to the
  event tier's per-access accumulation.  Counters a controller, profiler
  or scheduler reads mid-run (``prog.llc_accesses``, retired
  instructions, sampler observations, every ``busy_until``) stay live.

* **MSHR entry pooling.**  Fill handlers recycle their
  :class:`~repro.cache.mshr.MSHREntry` into a free pool instead of
  leaving it to the allocator.

Byte-identity contract
----------------------
The same 1:1 event schedule with the same FIFO sequence numbers, float
expressions mirrored operation for operation, and all stateful control
flow (MSHR merge/stall, store-buffer credits, barriers, reconfiguration
flushes, profiling epochs) kept evented and scalar.  The tier-parity
suite pins ``RunResult.to_dict()`` against the golden captures.

Decline contract
----------------
``install_batchpath`` returns False — leaving the system un-mutated — for
consolidation runs (mid-run admissions or latency tracking), when the
topology is not the hierarchical crossbar, any tag store uses non-LRU
replacement, a nonzero ``index_shift`` or non-uniform set counts, the
address mapping is not exactly the PAE hash (the inlined folds encode it,
so subclasses and the Hynix mapping decline), the engine is not the stock
binary-heap ``Engine``, or the install-time self-check (inlined folds
against the mapping's own ``mc_of``/``slice_of``/``bank_of``) fails.
``GPUSystem`` then runs the event tier; results are byte-identical either
way.
"""

# repro: hot-path
from __future__ import annotations

from heapq import heappush
from typing import Any

from repro.cache.mshr import MSHREntry
from repro.cache.replacement import LRUPolicy
from repro.core.modes import LLCMode
from repro.mem.address_map import PAEMapping
from repro.mem.dram import DRAMBank
from repro.noc.hierarchical_xbar import BYPASS_CYCLES, HierarchicalCrossbar
from repro.noc.topology import LONG_LINK_CYCLES, SHORT_LINK_CYCLES
from repro.sim.engine import Engine


# repro: cold
def install_batchpath(system: Any) -> bool:
    """Specialize ``system``'s pipeline stage methods in place.

    Returns True when the batch tier was installed, False when the
    system's shape is outside the specialized envelope (see module
    docstring); a False return leaves the system untouched so the caller
    can keep the event tier.
    """
    from repro.gpu.system import Request

    if getattr(system, "_tier_ineligible", False):
        # Consolidation runs: mid-run tenant admissions and per-request
        # latency tracking are outside the specialized envelope.
        return False
    topo = system.topology
    if not isinstance(topo, HierarchicalCrossbar):
        return False
    slice_stores = [sl.store for sl in system.llc_slices]
    l1_stores = [sm.l1._store for sm in system.sms]
    if any(st.index_shift for st in slice_stores + l1_stores):
        return False
    if any(type(p) is not LRUPolicy
           for st in slice_stores + l1_stores for p in st._policies):
        return False
    if (len({st.num_sets for st in slice_stores}) != 1
            or len({st.num_sets for st in l1_stores}) != 1):
        return False

    mapping = system.mapping
    if type(mapping) is not PAEMapping:
        return False
    engine = system.engine
    if type(engine) is not Engine:
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
    # (_compact filters with ``_heap[:] = ...``), so capturing it once is
    # safe; ``_seq`` is read/written through the engine because the
    # continuation dispatch draws numbers between callbacks.
    heap = engine._heap

    # Tag-array internals, indexed by slice / SM id (mutated in place by
    # every path including flush/clean, so the captures stay valid).
    llc_keysets = [st._keys for st in slice_stores]
    llc_dirty = [st._dirty for st in slice_stores]
    llc_orders = [[p._order for p in st._policies] for st in slice_stores]
    llc_num_sets = slice_stores[0].num_sets
    tag_ports = [sl.tag_port for sl in llc_slices]
    data_ports = [sl.data_port for sl in llc_slices]
    l1_keysets = [st._keys for st in l1_stores]
    l1_dirty_all = [st._dirty for st in l1_stores]
    l1_orders_all = [[p._order for p in st._policies] for st in l1_stores]
    l1_num_sets = l1_stores[0].num_sets

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
        stale mode.  A program leaving private mode gets its warps'
        slice columns re-swept: launches under private mode skip the
        slice folds (the route pins the slice to the requester's cluster,
        so the columns are never read), and the flip is the moment they
        become readable."""
        for i, prog in enumerate(programs):
            was_private = mode_private[i]
            mode_private[i] = prog.mode is LLCMode.PRIVATE
            if was_private and not mode_private[i]:
                precompute_program(prog)

    # ------------------------------------------------------- launch sweep
    # repro: cold
    def precompute_program(prog: Any) -> None:
        """Address decode for every warp ``prog`` just loaded: the PAE
        folds run once per access stream and land in the warp's SoA route
        columns, so the hot loop pays plain list indexing.

        One concatenated sweep per launch: every warp's stream is joined,
        folded once, and sliced back per warp with C-speed list slicing.

        A program in private mode pins every access's slice to the
        requester's cluster, so its slice columns would never be read:
        the sweep folds only the MC column and leaves the slice columns
        empty.  ``tier_flush`` re-sweeps the program the moment it leaves
        private mode, before any shared-mode access can be routed."""
        warps = [warp for sm_id in prog.sm_ids
                 for warp in system.sms[sm_id].warps]
        if not warps:
            return
        all_keys: list[int] = []
        for warp in warps:
            all_keys.extend(warp.keys)
        mc_list: list[int] = []
        sl_list: list[int] = []
        sg_list: list[int] = []
        if prog.mode is LLCMode.PRIVATE:
            for key in all_keys:
                r = key >> 4
                mc_list.append(((r ^ (r >> 7) ^ (r >> 14) ^ (r >> 21))
                                & 0x7F) % num_mcs)
        else:
            for key in all_keys:
                r = key >> 4
                mc = ((r ^ (r >> 7) ^ (r >> 14) ^ (r >> 21))
                      & 0x7F) % num_mcs
                sl = ((key ^ (key >> 11) ^ (key >> 22) ^ (key >> 33))
                      & 0x7FF) % map_spm
                mc_list.append(mc)
                sl_list.append(sl)
                sg_list.append(mc * spm + sl)
        base = 0
        for warp in warps:
            end = base + len(warp.keys)
            warp.mc_tab = mc_list[base:end]
            warp.sl_tab = sl_list[base:end]
            warp.sg_tab = sg_list[base:end]
            base = end

    # ------------------------------------------------------------- issue
    def acquire(sm: Any, key: int) -> Any:
        """Route + pooled-request acquisition for the out-of-loop issue
        dispatchers (kernel warmup, diagnostics).  The PAE folds run inline
        — batch only installs on PAE mappings."""
        r = key >> 4
        mc = ((r ^ (r >> 7) ^ (r >> 14) ^ (r >> 21)) & 0x7F) % num_mcs
        if mode_private[sm.program_id]:
            slice_local = sm.cluster_id
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
        return req

    def request_network(req: Any, when: float, flits_f: float,
                        flits_i: int) -> float:
        """Closed-form request traversal: the hierarchical crossbar's
        ``request_arrival`` as inline arithmetic over the route's servers."""
        (sm_srv, smr, smr_port, longw, mcr, mcr_port, distw) = \
            req_routes[req.sm.sm_id * num_slices + req.slice_global]
        busy: float = sm_srv.busy_until
        t = (busy if busy > when else when) + flits_f
        sm_srv.busy_until = t
        sm_srv.busy_cycles += flits_f
        sm_srv.jobs += 1
        t = t + SHORT
        busy = smr_port.busy_until
        done = (busy if busy > t else t) + flits_f
        smr_port.busy_until = done
        smr_port.busy_cycles += flits_f
        smr_port.jobs += 1
        smr.buffer_flits += flits_i
        smr.xbar_flits += flits_i
        smr.packets += 1
        t = done + pipeline
        longw.flits += flits_i
        t = t + LONG
        if topo.bypass:
            if req.slice_local != req.sm.cluster_id:
                raise ValueError(
                    "bypassed MC-router can only reach the requester's own "
                    f"private slice (cluster {req.sm.cluster_id}, asked "
                    f"{req.slice_local})")
            return t + BYPASS
        busy = mcr_port.busy_until
        done = (busy if busy > t else t) + flits_f
        mcr_port.busy_until = done
        mcr_port.busy_cycles += flits_f
        mcr_port.jobs += 1
        mcr.buffer_flits += flits_i
        mcr.xbar_flits += flits_i
        mcr.packets += 1
        t = done + pipeline
        distw.flits += flits_i
        return t + SHORT

    def issue_read(sm: Any, key: int, when: float) -> None:
        req = acquire(sm, key)
        if loc_note is not None:
            loc_note(key, sm.cluster_id, when)
        arrive = request_network(req, when, req_r_f, req_r_i)
        seq = engine._seq
        engine._seq = seq + 1
        engine.push_entry((arrive, seq, None,
                           read_by_sg[req.slice_global], req))

    def issue_write(sm: Any, key: int, when: float) -> None:
        req = acquire(sm, key)
        if loc_note is not None:
            loc_note(key, sm.cluster_id, when)
        arrive = request_network(req, when, req_w_f, req_w_i)
        seq = engine._seq
        engine._seq = seq + 1
        engine.push_entry((arrive, seq, None,
                           write_by_sg[req.slice_global], req))

    # Routes: every (sm, slice) pair's server chain, resolved once into
    # dense tables indexed by ``sm_id * num_slices + slice_global``.
    req_routes: list[Any] = [None] * (system.cfg.num_sms * num_slices)
    rep_routes: list[Any] = [None] * (system.cfg.num_sms * num_slices)
    for sm_id in range(system.cfg.num_sms):
        cl = sm_id // spc
        sm_srv = topo.sm_links[sm_id].server
        req_smr = topo.req_sm_routers[cl]
        rep_smr = topo.rep_sm_routers[cl]
        rep_smr_port = rep_smr.output_ports[sm_id % spc]
        rep_dist = topo.rep_dist[sm_id]
        for mc in range(topo.num_mcs):
            req_longw = topo.req_long[cl][mc]
            rep_longw = topo.rep_long[mc][cl]
            req_smr_port = req_smr.output_ports[mc]
            req_mcr = topo.req_mc_routers[mc]
            rep_mcr = topo.rep_mc_routers[mc]
            rep_mcr_port = rep_mcr.output_ports[cl]
            for sl_local in range(spm):
                sg = mc * spm + sl_local
                req_routes[sm_id * num_slices + sg] = (
                    sm_srv, req_smr, req_smr_port, req_longw,
                    req_mcr, req_mcr.output_ports[sl_local],
                    topo.req_dist[sg])
                rep_routes[sm_id * num_slices + sg] = (
                    topo.slice_links[sg].server, rep_mcr, rep_mcr_port,
                    rep_longw, rep_smr, rep_smr_port, rep_dist)

    # ------------------------------------------------------ slice stages
    # Specialized per slice: every counter with no mid-run reader
    # accumulates in a closure cell and folds at collect time.
    # repro: cold
    def make_slice_closures(sg: int) -> tuple[Any, Any, Any, Any]:
        sl = llc_slices[sg]
        tag = tag_ports[sg]
        data = data_ports[sg]
        store = slice_stores[sg]
        keys_by_set = llc_keysets[sg]
        dirty_by_set = llc_dirty[sg]
        orders_by_set = llc_orders[sg]
        mc = sg // spm
        mc_stats = mcs[mc]
        chan = channels[mc]
        banks = banks_of[mc]
        bus = busses[mc]
        sl_srv = topo.slice_links[sg].server
        # Reply routes for this slice, indexed by sm_id (rep_routes is laid
        # out sm-major, so a stride-num_slices slice extracts the column).
        routes_by_sm = rep_routes[sg::num_slices]

        # Deferred tallies: read/write hits+misses, evictions, dirty
        # writebacks, write-through stores, fills, replies.
        a_rh = a_rm = a_wh = a_wm = a_ev = a_wb = a_wt = a_fill = a_rep = 0
        # Per-destination-SM reply counts (all replies / the subset that
        # crossed the MC router), folded over ``routes_by_sm`` at collect
        # time so the reply traversal only touches ``busy_until`` live.
        rep_all = [0] * system.cfg.num_sms
        rep_routed = [0] * system.cfg.num_sms

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
            set_idx = key % llc_num_sets
            keys = keys_by_set[set_idx]
            if key in keys:
                a_rh += 1
                way = keys.index(key)
                order = orders_by_set[set_idx]
                order.remove(way)
                order.append(way)
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
            # Inlined SetAssocCache._allocate, read fills are clean: first
            # invalid way, else the LRU victim.
            dirty_bits = dirty_by_set[set_idx]
            order = orders_by_set[set_idx]
            wb_key = None
            if None in keys:
                way = keys.index(None)
            else:
                way = order[0]
                a_ev += 1
                if dirty_bits[way]:
                    a_wb += 1
                    wb_key = keys[way]
            keys[way] = key
            dirty_bits[way] = False
            order.remove(way)
            order.append(way)
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
            counts folded over ``routes_by_sm`` at collect time.  Only the
            ``busy_until`` serialization points mutate live (they feed the
            next reply's queueing delay, so they cannot wait)."""
            nonlocal a_rep
            now = engine.now
            sm = req.sm
            sm_id = sm.sm_id
            (_srv, mcr, mcr_port, longw, smr, smr_port, distw) = \
                routes_by_sm[sm_id]
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
                busy = mcr_port.busy_until
                done = (busy if busy > t else t) + rep_f
                mcr_port.busy_until = done
                rep_routed[sm_id] += 1
                t = done + pipeline
            t = t + LONG
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
            set_idx = key % llc_num_sets
            keys = keys_by_set[set_idx]
            wb_key = None
            if key in keys:
                way = keys.index(key)
                a_wh += 1
                order = orders_by_set[set_idx]
                order.remove(way)
                order.append(way)
                if not write_through:
                    dirty_by_set[set_idx][way] = True
                hit = True
            else:
                a_wm += 1
                dirty_bits = dirty_by_set[set_idx]
                order = orders_by_set[set_idx]
                if None in keys:
                    way = keys.index(None)
                else:
                    way = order[0]
                    a_ev += 1
                    if dirty_bits[way]:
                        a_wb += 1
                        wb_key = keys[way]
                keys[way] = key
                dirty_bits[way] = not write_through
                order.remove(way)
                order.append(way)
                hit = False
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
            # Reply route legs, per destination SM.  ``rep_all`` covers the
            # legs every reply crosses (long wire, SM-router, distribution
            # wire); ``rep_routed`` the MC-router legs only non-bypass
            # replies cross.  rep_f/rep_i are integral, so n * rep_f is an
            # exact sum of n event-tier increments.
            for sm_id, n in enumerate(rep_all):
                if n:
                    (_srv, mcr, mcr_port, longw, smr, smr_port, distw) = \
                        routes_by_sm[sm_id]
                    longw.flits += n * rep_i
                    smr_port.busy_cycles += n * rep_f
                    smr_port.jobs += n
                    smr.buffer_flits += n * rep_i
                    smr.xbar_flits += n * rep_i
                    smr.packets += n
                    distw.flits += n * rep_i
                    m = rep_routed[sm_id]
                    if m:
                        mcr_port.busy_cycles += m * rep_f
                        mcr_port.jobs += m
                        mcr.buffer_flits += m * rep_i
                        mcr.xbar_flits += m * rep_i
                        mcr.packets += m
                        rep_routed[sm_id] = 0
                    rep_all[sm_id] = 0
            a_rh = a_rm = a_wh = a_wm = a_ev = a_wb = a_wt = 0
            a_fill = a_rep = 0

        fold_fns.append(fold)
        return read_s, fill_s, reply_s, write_s

    read_by_sg: list[Any] = [None] * num_slices
    fill_by_sg: list[Any] = [None] * num_slices
    reply_by_sg: list[Any] = [None] * num_slices
    write_by_sg: list[Any] = [None] * num_slices
    for _sg in range(num_slices):
        (read_by_sg[_sg], fill_by_sg[_sg], reply_by_sg[_sg],
         write_by_sg[_sg]) = make_slice_closures(_sg)

    # Dispatchers with the event-tier signatures, for callers outside the
    # per-request path.
    def read_at_slice(req: Any) -> Any:
        return read_by_sg[req.slice_global](req)

    def fill_at_slice(req: Any) -> Any:
        return fill_by_sg[req.slice_global](req)

    def launch_reply(req: Any) -> Any:
        return reply_by_sg[req.slice_global](req)

    def write_at_slice(req: Any) -> Any:
        return write_by_sg[req.slice_global](req)

    # ------------------------------------------------------------ SM loop
    # repro: cold
    def make_sm_closures(sm: Any) -> tuple[Any, Any, Any]:
        """Build ``sm``'s private (wake, fill, retired) handler triple.

        The event tier's ``_sm_wake``/``_on_fill``/``_on_write_retired``
        with three changes: the address folds read the warp's precomputed
        SoA route columns, issue pushes go straight into the engine's
        heap, and the L1/MSHR/issue tallies defer to closure cells folded
        at collect time.  Control flow (barriers, MSHR merge/stall,
        store-buffer credits, wake coalescing) stays copied verbatim —
        those are the stateful points that must not be collapsed."""
        l1 = sm.l1
        l1_store = l1._store
        smid = sm.sm_id
        l1_sets = l1_keysets[smid]
        l1_orders = l1_orders_all[smid]
        l1_dirty = l1_dirty_all[smid]
        mshr = sm.mshr
        mshr_entries = mshr._entries
        mshr_capacity = mshr.num_entries
        cluster_id = sm.cluster_id
        program_id = sm.program_id        # fixed in _build_programs
        sm_srv = topo.sm_links[smid].server
        req_smr = topo.req_sm_routers[cluster_id]
        # This SM's request-route row, indexed by slice_global.
        req_routes_sm = req_routes[smid * num_slices:
                                   (smid + 1) * num_slices]

        # Deferred tallies: issued reads/writes, MSHR events, L1 events.
        b_ir = b_iw = b_mg = b_al = b_st = 0
        b_l1rh = b_l1rm = b_l1w = b_l1sh = b_l1sm = b_l1ev = b_l1wb = 0
        # Per-destination-slice issue counts, folded over ``req_routes_sm``
        # at collect time.  ``*_all`` covers the legs every issue crosses
        # (SM-router port, long wire); ``*_routed`` the MC-router legs only
        # non-bypass issues cross.  Recording the bypass decision per issue
        # keeps the fold exact across mid-run bypass flips (adaptive
        # reconfigurations power the MC-routers on and off).
        rd_all = [0] * num_slices
        wr_all = [0] * num_slices
        rd_routed = [0] * num_slices
        wr_routed = [0] * num_slices

        def wake(_: Any) -> None:
            """The drain loop, specialized: route columns instead of
            address folds, direct heap pushes with locally-batched seq
            draws, deferred tallies instead of attribute bumps.  Follows
            the continuation protocol: a deferred self-wake is *returned*,
            never pushed."""
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
                    warp.next_barrier = nb + group.interval
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
                acc_i = cursor
                bypass = has_bypass and bypass_lo <= key < bypass_hi

                if not is_write and not bypass:
                    # Inlined L1 read lookup: commit the hit, touch
                    # nothing on a miss.
                    set_idx = key % l1_num_sets
                    tag_keys = l1_sets[set_idx]
                    if key in tag_keys:
                        b_l1sh += 1
                        way = tag_keys.index(key)
                        order = l1_orders[set_idx]
                        order.remove(way)
                        order.append(way)
                        b_l1rh += 1
                        # L1 hit: purely SM-local, consume eagerly.
                        cursor += 1
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
                    engine._seq = seq
                    sm.next_issue_time = next_issue
                    sm.retired_instructions = ri
                    sm.live_accesses = live
                    if not sm.wake_scheduled:
                        sm.wake_scheduled = True
                        return (issue_at, wake, sm)
                    return None

                if is_write:
                    if sm.write_credits <= 0:
                        engine._seq = seq
                        sm.next_issue_time = next_issue
                        sm.retired_instructions = ri
                        sm.live_accesses = live
                        return None
                    sm.write_credits -= 1
                    # Inlined L1 write-through, no write-allocate.
                    b_l1w += 1
                    set_idx = key % l1_num_sets
                    tag_keys = l1_sets[set_idx]
                    if key in tag_keys:
                        way = tag_keys.index(key)
                        b_l1sh += 1
                        order = l1_orders[set_idx]
                        order.remove(way)
                        order.append(way)
                        l1_dirty[set_idx][way] = True
                    else:
                        b_l1sm += 1
                    cursor += 1
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
                        cursor += 1
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

                # Route lookup from the SoA columns (the launch sweep
                # decoded every access already); private mode pins the
                # slice to the requester's cluster.
                mc = warp.mc_tab[acc_i]
                if mode_private[program_id]:
                    slice_local = cluster_id
                    slice_global = mc * spm + cluster_id
                else:
                    slice_local = warp.sl_tab[acc_i]
                    slice_global = warp.sg_tab[acc_i]
                if pool:
                    req = pool.pop()
                    req.sm = sm
                    req.key = key
                    req.mc = mc
                    req.slice_local = slice_local
                    req.slice_global = slice_global
                else:
                    req = Request(sm, key, mc, slice_local, slice_global)
                if loc_note is not None:
                    loc_note(key, cluster_id, issue_at)
                (_srv, smr, smr_port, longw, mcr, mcr_port,
                 distw) = req_routes_sm[slice_global]
                busy = sm_srv.busy_until
                t = (busy if busy > issue_at else issue_at) + flits_f
                sm_srv.busy_until = t
                t = t + SHORT
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
                    busy = mcr_port.busy_until
                    done = (busy if busy > t else t) + flits_f
                    mcr_port.busy_until = done
                    cnt_routed[slice_global] += 1
                    t = done + pipeline
                    arrive = t + SHORT
                heappush(heap, (arrive, seq, None,
                                stage_by_sg[slice_global], req))
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
                    cursor += 1
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
            nonlocal b_l1ev, b_l1wb
            key = req.key
            req.sm = None
            pool.append(req)
            entry_m = mshr_entries.pop(key)
            waiters = entry_m.waiters
            if not sm.l1_bypass_lo <= key < sm.l1_bypass_hi:
                # Inlined L1 allocate-on-fill: fills are clean;
                # re-inserting a resident line only touches recency.
                set_idx = key % l1_num_sets
                keys = l1_sets[set_idx]
                order = l1_orders[set_idx]
                if key in keys:
                    way = keys.index(key)
                else:
                    dirty_bits = l1_dirty[set_idx]
                    if None in keys:
                        way = keys.index(None)
                    else:
                        way = order[0]
                        b_l1ev += 1
                        if dirty_bits[way]:
                            b_l1wb += 1
                    keys[way] = key
                    dirty_bits[way] = False
                order.remove(way)
                order.append(way)
            ready_append = sm.ready.append
            for warp in waiters:
                if warp.waiting_on == key:
                    warp.waiting_on = None
                    if warp.cursor < len(warp.keys):
                        ready_append(warp)
            waiters.clear()
            mshr_pool.append(entry_m)
            if not sm.wake_scheduled:
                return wake(sm)
            if not sm.live_accesses and not mshr_entries:
                maybe_finish_sm(sm)
            return None

        def retired(_: Any) -> None:
            """Store-buffer credit return; mirrors
            GPUSystem._on_write_retired (including the same-instant wake
            coalescing) but hands a provoked drain back to the engine as a
            continuation."""
            sm.write_credits += 1
            if not sm.wake_scheduled and sm.mshr_blocked_at != engine.now:
                return wake(sm)
            return None

        # repro: cold
        def fold() -> None:
            """Fold the deferred SM-side tallies (idempotent: resets)."""
            nonlocal b_ir, b_iw, b_mg, b_al, b_st
            nonlocal b_l1rh, b_l1rm, b_l1w, b_l1sh, b_l1sm, b_l1ev, b_l1wb
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
            l1_store.writebacks += b_l1wb
            issued = b_ir + b_iw
            sm_srv.jobs += issued
            sm_srv.busy_cycles += b_ir * req_r_f + b_iw * req_w_f
            req_smr.packets += issued
            flits = b_ir * req_r_i + b_iw * req_w_i
            req_smr.buffer_flits += flits
            req_smr.xbar_flits += flits
            # Request route legs, per destination slice.  req_r_f/req_w_f
            # are integral, so the n * flits products are exact sums of the
            # event tier's one-per-issue increments, in any fold order.
            for sg2 in range(num_slices):
                nr = rd_all[sg2]
                nw = wr_all[sg2]
                if nr or nw:
                    (_srv2, _smr2, smr_port2, longw2, mcr2, mcr_port2,
                     distw2) = req_routes_sm[sg2]
                    smr_port2.busy_cycles += nr * req_r_f + nw * req_w_f
                    smr_port2.jobs += nr + nw
                    longw2.flits += nr * req_r_i + nw * req_w_i
                    mr = rd_routed[sg2]
                    mw = wr_routed[sg2]
                    if mr or mw:
                        fi = mr * req_r_i + mw * req_w_i
                        mcr_port2.busy_cycles += (mr * req_r_f
                                                  + mw * req_w_f)
                        mcr_port2.jobs += mr + mw
                        mcr2.buffer_flits += fi
                        mcr2.xbar_flits += fi
                        mcr2.packets += mr + mw
                        distw2.flits += fi
                        rd_routed[sg2] = 0
                        wr_routed[sg2] = 0
                    rd_all[sg2] = 0
                    wr_all[sg2] = 0
            b_ir = b_iw = b_mg = b_al = b_st = 0
            b_l1rh = b_l1rm = b_l1w = b_l1sh = b_l1sm = 0
            b_l1ev = b_l1wb = 0

        fold_fns.append(fold)
        return wake, fill, retired

    for sm_obj in system.sms:
        (sm_obj._bp_wake, sm_obj._bp_fill,
         sm_obj._bp_retired) = make_sm_closures(sm_obj)

    # Dispatchers with the event-tier signatures, for the callers outside
    # the per-request path (kernel-launch batches, diagnostics).
    def sm_wake(sm: Any) -> None:
        return sm._bp_wake(sm)

    def on_fill(req: Any) -> None:
        return req.sm._bp_fill(req)

    # ------------------------------------------------------------ install
    original_update_bypass = system.update_bypass

    # repro: cold
    def update_bypass(now: float) -> None:
        original_update_bypass(now)
        tier_flush()

    original_launch = system._launch_kernel

    # repro: cold
    def launch_kernel(prog: Any, now: float) -> None:
        """Launch, then decode the fresh warps' SoA route columns.
        ``original_launch`` may recurse through _finish_kernel (zero-access
        kernels); re-sweeping the warps the inner call already decoded is
        idempotent."""
        original_launch(prog, now)
        precompute_program(prog)

    original_collect = system._collect

    # repro: cold
    def collect() -> Any:
        for fold in fold_fns:
            fold()
        return original_collect()

    tier_flush()
    system._sm_wake = sm_wake
    system._issue_read = issue_read
    system._issue_write = issue_write
    system._read_at_slice = read_at_slice
    system._fill_at_slice = fill_at_slice
    system._launch_reply = launch_reply
    system._write_at_slice = write_at_slice
    system._on_fill = on_fill
    system.update_bypass = update_bypass
    system._launch_kernel = launch_kernel
    system._collect = collect
    system._tier_flush = tier_flush
    return True
