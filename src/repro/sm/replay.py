"""Columnar replay engine: the ``engine="columnar"`` simulation core.

The event engine (:mod:`repro.sm.simulator`) visits one op per heap
pop, re-deriving dispatch, bank outcomes, dependences, and a dozen
counters from Python object graphs each time; this core *replays* the
columnar warp programs built by :mod:`repro.compiler.columnar`.  Each
dynamic instruction costs one fused-row unpack, a few float adds, and
(for memory ops) the cache/DRAM/MSHR calls that are the model itself.
Counters never appear in the hot loop -- they were summed per warp at
compile time and are added once at CTA spawn.  Warps also execute in
**run batches**: a popped warp keeps stepping inline while its next
ready time stays strictly below the earliest other heap entry, so
dependence-limited phases skip heap traffic entirely.

Bit-identity with the event engine follows from three facts:

* **Batching is a no-op.** After the event engine processes an op at
  time ``t`` it pushes the warp back keyed ``nr`` with a sequence
  number larger than every other heap entry's, so the warp pops next
  iff ``nr`` is *strictly* below the minimum other key -- in which
  case the pop returns exactly ``(nr, w)`` and nothing else ran in
  between.  Replaying those ops inline under ``nr < limit`` (where
  ``limit`` is the heap minimum after the pop, which nothing can
  change during the run) performs the same state updates in the same
  order on the same timestamps.
* **The dependency columns are the pending dict.** The event engine's
  ``pending`` maps a register to its last writer's completion; the
  compiled per-op ``deps`` are that last-writer relation, and
  ``comp[pc]`` stores exactly the value ``pending[dst]`` would have
  held (stores clamp to issue time, loads to data arrival).
* **Static totals are order-independent.** Every counter the event
  loop bumps per op (RF traffic, histogram buckets, conflict cycles,
  row/tag energy, arbitration) is a pure sum over the warp's plans
  and bank-memo outcomes, so adding the precomputed warp total at
  spawn yields the same number as accumulating per op.

All time quantities are integer-valued floats well below 2**53 under
every supported config, so float addition here is exact and replaying
the same additions in the same order reproduces bit-equal cycles.

One driver, two runners.  :func:`replay` is the only columnar loop: it
owns the CTA choreography (spawn, barrier release, retire) for any
number of :class:`~repro.sm.simulator.SMCore` cores behind one global
heap -- :func:`repro.sm.simulate` calls it with one core,
:func:`repro.chip.simulate_chip` with N.  Each core gets a *runner*
holding the only two warp-step bodies: :func:`make_warp_runner`
(uninstrumented) and :func:`make_warp_runner_obs` (a live collector,
whose hooks fire at exactly the event engine's call sites with the same
arguments, so stall attribution, interval metrics, and trace payloads
are byte-identical per cause -- enforced by
``tests/obs/test_replay_observability.py``).  A runner owns the heap
loop: on a yield it does one ``heappushpop`` and keeps going while the
popped entry is its own core's.  Barrier arrivals and retirements call
back into the driver's CTA coordination; the runner returns only when
the earliest entry is another core's or the sentinel, so a 1-SM run is
one runner call and pays no per-event call/return round trip.  Heap
entries of the two runners have different layouts but the same first
three fields -- ``(key, seq, warp, ...)`` -- so one heap can mix them;
each layout is built in exactly one place, the runner's ``release``.
"""

from __future__ import annotations

import heapq

from repro.compiler.columnar import N_TOTALS, _sig_table, cta_plan, sig_obs_rows
from repro.memory.dram import DRAMChannel
from repro.obs.collector import (
    CAUSE_BANK_CONFLICT,
    CAUSE_BARRIER,
    CAUSE_DESCHEDULE,
    CAUSE_ISSUE_PORT,
    CAUSE_MEMORY,
    CAUSE_MSHR_FULL,
    CAUSE_RAW,
    STALL_CAUSES,
)
from repro.obs.trace import PID_WARPS
from repro.sm.config import SMConfig
from repro.sm.simulator import SimulationError

#: Integer stall-cause indices: the instrumented runner accumulates into
#: per-warp float lists indexed by these (no dict traffic per op) and
#: folds them into ``_WarpObs.stalls`` once, when the warp completes.  The
#: fold is exact -- stall sums are integer-valued floats -- and invisible
#: to every report: ``stall_totals`` re-keys through ``STALL_CAUSES`` so
#: per-warp dict insertion order is never serialized.
CI_RAW = STALL_CAUSES.index(CAUSE_RAW)
CI_BANK = STALL_CAUSES.index(CAUSE_BANK_CONFLICT)
CI_MEMORY = STALL_CAUSES.index(CAUSE_MEMORY)
CI_MSHR = STALL_CAUSES.index(CAUSE_MSHR_FULL)
CI_PORT = STALL_CAUSES.index(CAUSE_ISSUE_PORT)
CI_DESCH = STALL_CAUSES.index(CAUSE_DESCHEDULE)
N_CAUSES = len(STALL_CAUSES)


class _ColWarp:
    """Replay state of one warp: fused rows, completions, position."""

    __slots__ = (
        "rows", "comp", "cta", "pc", "n_ops", "core", "wid", "obs_rows",
        "odst", "ws", "wcaus", "wconf", "wmshr", "wstal",
    )

    def __init__(self, prog, cta, core, wid=0, obs_rows=None) -> None:
        self.rows = prog.rows
        #: Completion cycle per op (the event engine's pending dict,
        #: indexed by producing pc instead of destination register).
        self.comp = [0.0] * prog.n_ops
        self.cta = cta
        #: Resume pc; only synchronised at barriers (a heap-parked warp
        #: carries its pc in the heap entry).
        self.pc = 0
        self.n_ops = prog.n_ops
        #: Owning :class:`~repro.sm.simulator.SMCore`.
        self.core = core
        #: Instrumented-replay state, set only when ``obs_rows`` (the
        #: :func:`~repro.compiler.columnar.sig_obs_rows` triple) is
        #: given: run-unique warp id, per-op (name, prods, dst) rows and
        #: dst column, the collector's _WarpObs, and the per-pc
        #: writeback latency class -- cause index / conflict share /
        #: MSHR wait, the pc-indexed image of what
        #: ``Collector.writeback`` would have stored per destination
        #: register.  ALU rows never touch them (their static cause and
        #: zero shares are the initial values).  ``wstal`` accumulates
        #: stall cycles per cause index; it is folded into the
        #: collector's stalls dict when the warp completes.
        self.wid = wid
        self.ws = None
        if obs_rows is not None:
            rows_o, causes, dsts = obs_rows
            self.obs_rows = rows_o
            self.odst = dsts
            self.wcaus = list(causes)
            self.wconf = [0.0] * prog.n_ops
            self.wmshr = [0.0] * prog.n_ops
            self.wstal = [0.0] * N_CAUSES
        else:
            self.obs_rows = None


def make_warp_runner(
    cfg: SMConfig, core, heap: list, seqbox: list, on_barrier, on_retire,
) -> tuple:
    """Uninstrumented runner for one core over its memory system.

    Returns ``(run, spawn, finish)``.  ``run(entry)`` replays from a
    popped heap entry of this core (an entry's third field is its warp,
    whose ``core`` names the core) and keeps replaying while the heap's
    earliest entry is this core's; it returns the first popped entry
    that is not (another core's, or the sentinel).  Barrier arrivals
    and retirements call the driver's ``on_barrier(warp, arrival_cycle,
    release)`` (the warp's pc already past the barrier) and
    ``on_retire(warp, last_issue)`` in between.  ``release(warp, at)``
    -- the one place the runner's heap-entry layout is built -- keys a
    warp made runnable at ``at``: the barrier-freed warps
    ``on_barrier`` hands it, and every warp ``spawn(prog, cta,
    warp_index, now)`` makes resident.  ``finish()`` flushes the
    runner's inlined model state back into the core's objects.

    Heap entries are ``(key, seq, warp, pc, rows, comp)`` so a pop
    resumes with plain unpacks instead of attribute loads.  The issue
    port and memory pipeline port live on the core and are held in
    locals for the length of one ``run`` call; ``seqbox[0]`` is the
    heap's shared FIFO tie-break counter, likewise held in a local and
    synchronised around every call out (the driver's callbacks push
    warps too).  A 1-SM run makes exactly one ``run`` call.
    """
    cache = core.cache
    dram = core.dram
    mshr = core.mshr
    dram_request = dram.request
    hit_latency = float(cfg.cache_hit_latency)
    line_bytes = cfg.cache_line_bytes
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold if desch_lat else float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop
    if mshr is not None:
        mshr_outstanding = mshr.outstanding
        mshr_entry_free = mshr.entry_free_at
        mshr_allocate = mshr.allocate

    # ---- inlined model fast paths -----------------------------------
    # The cache probe (dict hit + LRU touch) and the unbanked DRAM bus
    # arithmetic (two adds and a division) are a fraction of the cost
    # of calling into the model objects, so the runner keeps both as
    # local state and replays *the same arithmetic in the same order*
    # -- bit-identical by construction -- writing the counters back
    # through ``finish()``.  Banked or observed DRAM channels keep the
    # model call (row-buffer state stays where it lives); the cache is
    # always a plain DataCache here and is always inlined.
    cache_sets = cache._sets
    num_sets = cache.num_sets
    cache_assoc = cache.assoc
    stats = cache.stats
    c_rhit = stats.read_hits
    c_rmiss = stats.read_misses
    c_whit = stats.write_hits
    c_wmiss = stats.write_misses
    # ``mshr is None`` keeps mixed accounting out: the MSHR branches
    # route fills through ``dram.request`` (which bumps the model's own
    # counters), and the write-back below would clobber those.
    fast_dram = (
        mshr is None
        and type(dram) is DRAMChannel
        and not dram._banked
        and dram.observer is None
    )
    if fast_dram:
        dram_free = dram.free_at
        dram_acc = dram.accesses
        dram_xfer = dram.bytes_transferred
        dram_busy = dram.busy_cycles
        dram_last = dram._last_request_time
        dram_lat = float(dram.latency)
        dram_bpc = dram.bytes_per_cycle
        # Fixed-size transfers always divide the same operands, so the
        # quotients are loop invariants (same division, same bits).
        line_service = line_bytes / dram_bpc
        txn_service = txn_bytes / dram_bpc
    else:
        # Placeholders; the slow branches never read these, and shared
        # DRAMSystem ports don't expose the channel-only attributes.
        dram_free = 0.0
        dram_acc = dram_xfer = 0
        dram_busy = dram_last = dram_lat = 0.0
        dram_bpc = line_service = txn_service = 1.0

    def finish():
        """Flush inlined model counters back into the model objects."""
        stats.read_hits = c_rhit
        stats.read_misses = c_rmiss
        stats.write_hits = c_whit
        stats.write_misses = c_wmiss
        if fast_dram:
            dram.free_at = dram_free
            dram.accesses = dram_acc
            dram.bytes_transferred = dram_xfer
            dram.busy_cycles = dram_busy
            dram._last_request_time = dram_last

    def release(w: _ColWarp, at: float) -> None:
        # The event engine keys a (re)started warp through
        # ``next_ready``, so an in-flight load still gates issue.
        key = at
        comp = w.comp
        pc = w.pc
        for d in w.rows[pc][4]:
            c = comp[d]
            if c > key:
                key = c
        seq = seqbox[0]
        heappush(heap, (key, seq, w, pc, w.rows, comp))
        seqbox[0] = seq + 1

    def spawn(prog, cta, wi: int, now: float) -> None:
        release(_ColWarp(prog, cta, core), now)

    def run(item):
        nonlocal c_rhit, c_rmiss, c_whit, c_wmiss
        nonlocal dram_free, dram_acc, dram_xfer, dram_busy, dram_last
        issued_until = core.issued_until
        mem_port_free = core.mem_port_free
        seq = seqbox[0]
        while True:
            w = item[2]
            if w is None or w.core is not core:  # sentinel / other core
                break
            ready, _, w, pc, rows, comp = item
            limit = heap[0][0]
            t = ready if ready > issued_until else issued_until
            kind, a, b, aux, deps = rows[pc]
            while True:
                if kind == 0:  # ALU / SFU / TEX
                    issue_done = t + a
                    comp[pc] = t + b
                elif kind != 6:  # memory: one issue cycle, conflicts
                    # serialise in the pipeline behind the single LSU port
                    issue_done = t + 1.0
                    port_start = (
                        issue_done if issue_done > mem_port_free
                        else mem_port_free
                    )
                    if kind == 1:  # shared load / store
                        mem_port_free = port_start + a
                        comp[pc] = port_start + b
                    else:
                        data_ready = port_start + a
                        mem_port_free = port_start + b
                        if kind == 2:  # global/local load through the cache
                            completion = data_ready
                            if mshr is None:  # legacy blocking miss model
                                if fast_dram:
                                    for li in aux[1]:
                                        ss = cache_sets[li % num_sets]
                                        if li in ss:
                                            ss.move_to_end(li)
                                            c_rhit += 1
                                            done = data_ready + hit_latency
                                        else:
                                            c_rmiss += 1
                                            if len(ss) >= cache_assoc:
                                                ss.popitem(last=False)
                                            ss[li] = None
                                            start = (
                                                data_ready
                                                if data_ready > dram_free
                                                else dram_free
                                            )
                                            dram_free = start + line_service
                                            dram_acc += 1
                                            dram_xfer += line_bytes
                                            dram_busy += line_service
                                            dram_last = data_ready
                                            done = (
                                                start + dram_lat + line_service
                                            )
                                        if done > completion:
                                            completion = done
                                else:  # banked/observed DRAM keeps the call
                                    for li in aux[1]:
                                        ss = cache_sets[li % num_sets]
                                        if li in ss:
                                            ss.move_to_end(li)
                                            c_rhit += 1
                                            done = data_ready + hit_latency
                                        else:
                                            c_rmiss += 1
                                            if len(ss) >= cache_assoc:
                                                ss.popitem(last=False)
                                            ss[li] = None
                                            done = dram_request(
                                                data_ready, line_bytes
                                            )
                                        if done > completion:
                                            completion = done
                            else:  # non-blocking: merge secondaries, stall
                                # on a full file, address the fills
                                cur = data_ready
                                for seg in aux[0]:
                                    li = seg // line_bytes
                                    ss = cache_sets[li % num_sets]
                                    if li in ss:
                                        ss.move_to_end(li)
                                        c_rhit += 1
                                        hit = True
                                    else:
                                        c_rmiss += 1
                                        if len(ss) >= cache_assoc:
                                            ss.popitem(last=False)
                                        ss[li] = None
                                        hit = False
                                    fill = mshr_outstanding(seg, cur)
                                    if fill is not None:
                                        mshr.secondary_merges += 1
                                        done = fill
                                    elif hit:
                                        done = cur + hit_latency
                                    else:
                                        free = mshr_entry_free(cur)
                                        if free > cur:
                                            mshr.full_stalls += 1
                                            mshr.full_stall_cycles += free - cur
                                            cur = free
                                        done = dram_request(cur, line_bytes, seg)
                                        mshr_allocate(seg, done, cur)
                                    if done > completion:
                                        completion = done
                                if cur > mem_port_free:
                                    mem_port_free = cur
                            comp[pc] = completion
                        elif kind == 3:  # uncached load: per-sector DRAM
                            completion = data_ready
                            if fast_dram:
                                for _ in range(aux):
                                    start = (
                                        data_ready if data_ready > dram_free
                                        else dram_free
                                    )
                                    dram_free = start + txn_service
                                    dram_acc += 1
                                    dram_xfer += txn_bytes
                                    dram_busy += txn_service
                                    done = start + dram_lat + txn_service
                                    if done > completion:
                                        completion = done
                                dram_last = data_ready
                            else:
                                for _ in range(aux):
                                    done = dram_request(data_ready, txn_bytes)
                                    if done > completion:
                                        completion = done
                            comp[pc] = completion
                        elif kind == 4:  # cached store: write-through bursts
                            for li in aux[1]:
                                ss = cache_sets[li % num_sets]
                                if li in ss:
                                    ss.move_to_end(li)
                                    c_whit += 1
                                else:
                                    c_wmiss += 1
                            if fast_dram:
                                for nb in aux[2]:
                                    start = (
                                        data_ready if data_ready > dram_free
                                        else dram_free
                                    )
                                    service = nb / dram_bpc
                                    dram_free = start + service
                                    dram_acc += 1
                                    dram_xfer += nb
                                    dram_busy += service
                                dram_last = data_ready
                            elif mshr is None:
                                for nb in aux[2]:
                                    dram_request(data_ready, nb)
                            else:
                                for seg, nb in zip(aux[0], aux[2]):
                                    dram_request(data_ready, nb, seg)
                            comp[pc] = issue_done
                        else:  # kind == 5, uncached store
                            if fast_dram:
                                for _ in range(aux):
                                    start = (
                                        data_ready if data_ready > dram_free
                                        else dram_free
                                    )
                                    dram_free = start + txn_service
                                    dram_acc += 1
                                    dram_xfer += txn_bytes
                                    dram_busy += txn_service
                                dram_last = data_ready
                            else:
                                for _ in range(aux):
                                    dram_request(data_ready, txn_bytes)
                            comp[pc] = issue_done
                else:  # BARRIER: the driver coordinates the CTA
                    w.pc = pc + 1
                    issued_until = t + 1.0
                    seqbox[0] = seq
                    on_barrier(w, t, release)
                    seq = seqbox[0]
                    item = heappop(heap)
                    break
                pc += 1
                kind, a, b, aux, deps = rows[pc]
                nr = issue_done
                if deps:
                    for d in deps:
                        c = comp[d]
                        if c > nr:
                            nr = c
                elif deps is None:  # R_END sentinel: warp retired
                    issued_until = issue_done
                    seqbox[0] = seq
                    on_retire(w, issue_done)
                    seq = seqbox[0]
                    item = heappop(heap)
                    break
                if desch_lat and nr - issue_done > desch_thr:
                    nr += desch_lat
                if nr < limit:
                    # The warp would pop next anyway (strictly earliest
                    # key; ties lose to older sequence numbers): keep
                    # replaying inline.
                    t = nr
                    continue
                # Yield: reinsert this warp keyed ``nr`` and continue with
                # whichever warp is now earliest -- one heap operation.
                issued_until = issue_done
                item = heappushpop(heap, (nr, seq, w, pc, rows, comp))
                seq += 1
                break  # the outer loop checks whose entry it is
        core.issued_until = issued_until
        core.mem_port_free = mem_port_free
        seqbox[0] = seq
        return item

    return run, spawn, finish


def make_warp_runner_obs(
    cfg: SMConfig, core, heap: list, seqbox: list, on_barrier, on_retire,
) -> tuple:
    """Instrumented runner: :func:`make_warp_runner` plus a collector.

    Identical timing arithmetic, with the :class:`~repro.obs.Collector`
    semantics *inlined* rather than called: the attribution expressions
    of ``Collector.issue`` / ``writeback`` / ``cache_access`` are
    replicated operation for operation (same operands, same order, same
    guards), evaluated against the collector's own ``_WarpObs`` state,
    so per-cause stall totals, interval metrics, and trace payloads are
    byte-identical to the event engine's while the per-op cost stays
    replay-grade.  ``tests/obs/test_replay_observability.py`` enforces
    the equivalence per stall cause; any edit to ``Collector`` must be
    mirrored here.

    Deltas against the uninstrumented runner:

    * No ``fast_dram`` arm: instrumented channels carry the collector's
      transfer observer, which routes every request through the model
      call anyway (that call is where DRAM trace slices originate, in
      the event engine's order: transfers fire during op modelling,
      before the op's own stall/issue slices).
    * The op's ``ready`` / grant time ``t`` pair feeds the attribution
      carve: for a popped warp they are the heap key and
      ``max(ready, issued_until)``; for a run-batched op both collapse
      to ``nr`` (the event engine would have pushed and immediately
      popped the warp keyed ``nr``, with ``issued_until`` equal to the
      previous ``issue_done <= nr``).
    * Writeback state lives in pc-indexed per-warp arrays instead of
      the collector's reg-keyed pending dict: ``comp`` already holds
      every producer's completion, and ``wcaus`` / ``wconf`` /
      ``wmshr`` hold its latency class -- initialised to the static
      per-op cause from :func:`~repro.compiler.columnar.sig_obs_rows`
      (RAW, or MEMORY for texture) with zero shares, written only on
      escalation, exactly as the event loop decides it: cache-missing
      or MSHR-merging loads and every uncached load become MEMORY;
      stores and shared ops stay RAW.  The memory-side conflict share
      is recovered from the fused columns (``penalty == a`` for global
      rows, ``a - 1.0`` for shared rows; both exact, the columns are
      float-converted integers).
    * Heap entries are ``(key, seq, warp, pc, rows, comp, cursor,
      stall accumulator, dep max, dep argmax)``: what *every* op
      touches rides in the entry; the colder obs columns load from the
      warp object only on the branches that consume them.  ``cursor``
      rides in the entry instead of syncing through the _WarpObs every
      park/pop: while a warp sits in the heap nothing reads or writes
      its _WarpObs cursor (``resume`` only touches barrier-waiting
      warps, which left the heap at their arrival), and ``release``
      reads it back after ``spawn`` / ``resume`` set it.  The _WarpObs
      is re-synced at every barrier/retire hand-back, i.e. before
      anything (resume / complete / finish / conservation) reads it.
    * ``dep max`` / ``dep argmax`` fuse the attribution's producer scan
      into the scheduling scan: ``deps`` is the first-occurrence dedup,
      in source-operand order, of the producer list ``Collector.issue``
      walks, so the first strict maximum over either picks the same
      producer (duplicates can never win a strict comparison against
      their own completion) and the maxima are equal.  Producer
      completions are final by the time either scan runs (in-order
      replay: every producer pc has issued), so the values computed at
      scheduling time still hold at issue time.

    Barrier arrivals attribute their issue before calling out, so the
    driver's CTA coordination only owes the ``resume`` / ``complete`` /
    CTA-lifetime hooks.
    """
    cache = core.cache
    dram = core.dram
    mshr = core.mshr
    obs = core.obs
    dram_request = dram.request
    hit_latency = float(cfg.cache_hit_latency)
    line_bytes = cfg.cache_line_bytes
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold if desch_lat else float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop
    heappushpop = heapq.heappushpop
    if mshr is not None:
        mshr_outstanding = mshr.outstanding
        mshr_entry_free = mshr.entry_free_at
        mshr_allocate = mshr.allocate

    # Inlined cache probe as in make_warp_runner (same arithmetic, same
    # order); the hit/miss boolean doubles as the cache_access sample.
    cache_sets = cache._sets
    num_sets = cache.num_sets
    cache_assoc = cache.assoc
    stats = cache.stats
    c_rhit = stats.read_hits
    c_rmiss = stats.read_misses
    c_whit = stats.write_hits
    c_wmiss = stats.write_misses

    # Collector internals, hoisted.  cache_access only feeds the
    # sampler and issue's trace work only fires with a trace buffer;
    # trace slices (the only consumer that needs cause *names* mid-run)
    # convert through ``CAUSES``.  A plain profiling collector (no
    # sampler, no trace) is the common instrumented shape; one hoisted
    # flag folds its per-op hook checks into a single branch.
    sampler = obs.sampler
    trace = obs.trace
    samp_instr = sampler.add_instruction if sampler is not None else None
    samp_cache = sampler.add_cache_access if sampler is not None else None
    trace_slice = trace.slice if trace is not None else None
    lite = samp_instr is None and trace_slice is None
    CAUSES = STALL_CAUSES
    BANK = CAUSE_BANK_CONFLICT
    MSHRF = CAUSE_MSHR_FULL
    PORT = CAUSE_ISSUE_PORT
    DESCH = CAUSE_DESCHEDULE
    iBANK = CI_BANK
    iMSHR = CI_MSHR
    iPORT = CI_PORT
    iDESCH = CI_DESCH

    def finish():
        stats.read_hits = c_rhit
        stats.read_misses = c_rmiss
        stats.write_hits = c_whit
        stats.write_misses = c_wmiss

    def release(w: _ColWarp, at: float) -> None:
        # The uninstrumented key scan, fused with the dep argmax the
        # attribution needs at the next pop.
        comp = w.comp
        pc = w.pc
        dep_max = -1.0
        dep_best = -1
        for d in w.rows[pc][4]:
            c = comp[d]
            if c > dep_max:
                dep_max = c
                dep_best = d
        key = at if at > dep_max else dep_max
        seq = seqbox[0]
        heappush(
            heap,
            (key, seq, w, pc, w.rows, comp, w.ws.cursor, w.wstal,
             dep_max, dep_best),
        )
        seqbox[0] = seq + 1

    def spawn(prog, cta, wi: int, now: float) -> None:
        w = _ColWarp(
            prog, cta, core, wid=core.warp_serial,
            obs_rows=sig_obs_rows(prog.sig),
        )
        core.warp_serial += 1
        obs.spawn(w.wid, cta.index, wi, now)
        w.ws = obs.warps[w.wid]
        release(w, now)

    def run(item):
        nonlocal c_rhit, c_rmiss, c_whit, c_wmiss
        issued_until = core.issued_until
        mem_port_free = core.mem_port_free
        seq = seqbox[0]
        while True:
            w = item[2]
            if w is None or w.core is not core:  # sentinel / other core
                break
            (ready, _, w, pc, rows, comp, cursor, wstal, dep_max,
             dep_best) = item
            limit = heap[0][0]
            t = ready if ready > issued_until else issued_until
            kind, a, b, aux, deps = rows[pc]
            while True:
                if kind == 0:  # ALU / SFU / TEX
                    issue_done = t + a
                    comp[pc] = t + b
                elif kind != 6:  # memory
                    # Only memory arms consult the obs columns mid-op (the
                    # destination register gating the writeback-class
                    # stores); ALU rows skip the lookups entirely.
                    dst = w.odst[pc]
                    issue_done = t + 1.0
                    port_start = (
                        issue_done if issue_done > mem_port_free
                        else mem_port_free
                    )
                    if kind == 1:  # shared load / store
                        mem_port_free = port_start + a
                        comp[pc] = port_start + b
                        if dst is not None:
                            w.wconf[pc] = (port_start - issue_done) + (a - 1.0)
                    else:
                        data_ready = port_start + a
                        mem_port_free = port_start + b
                        if dst is not None:
                            w.wconf[pc] = (port_start - issue_done) + a
                        if kind == 2:  # global/local load through the cache
                            completion = data_ready
                            wb_ci = CI_RAW
                            if mshr is None:  # legacy blocking miss model
                                for li in aux[1]:
                                    ss = cache_sets[li % num_sets]
                                    if li in ss:
                                        ss.move_to_end(li)
                                        c_rhit += 1
                                        done = data_ready + hit_latency
                                        if samp_cache is not None:
                                            samp_cache(data_ready, True)
                                    else:
                                        c_rmiss += 1
                                        if len(ss) >= cache_assoc:
                                            ss.popitem(last=False)
                                        ss[li] = None
                                        done = dram_request(
                                            data_ready, line_bytes
                                        )
                                        wb_ci = CI_MEMORY
                                        if samp_cache is not None:
                                            samp_cache(data_ready, False)
                                    if done > completion:
                                        completion = done
                            else:  # non-blocking MSHR arm
                                mshr_wait = 0.0
                                cur = data_ready
                                for seg in aux[0]:
                                    li = seg // line_bytes
                                    ss = cache_sets[li % num_sets]
                                    if li in ss:
                                        ss.move_to_end(li)
                                        c_rhit += 1
                                        hit = True
                                    else:
                                        c_rmiss += 1
                                        if len(ss) >= cache_assoc:
                                            ss.popitem(last=False)
                                        ss[li] = None
                                        hit = False
                                    if samp_cache is not None:
                                        samp_cache(cur, hit)
                                    fill = mshr_outstanding(seg, cur)
                                    if fill is not None:
                                        mshr.secondary_merges += 1
                                        wb_ci = CI_MEMORY
                                        done = fill
                                    elif hit:
                                        done = cur + hit_latency
                                    else:
                                        free = mshr_entry_free(cur)
                                        if free > cur:
                                            mshr.full_stalls += 1
                                            mshr.full_stall_cycles += free - cur
                                            mshr_wait += free - cur
                                            cur = free
                                        done = dram_request(cur, line_bytes, seg)
                                        mshr_allocate(seg, done, cur)
                                        wb_ci = CI_MEMORY
                                    if done > completion:
                                        completion = done
                                if cur > mem_port_free:
                                    mem_port_free = cur
                                if mshr_wait and dst is not None:
                                    w.wmshr[pc] = mshr_wait
                            comp[pc] = completion
                            # Writeback arrays start at the static latency
                            # class (RAW, zero shares): store escalations
                            # only.
                            if dst is not None and wb_ci != CI_RAW:
                                w.wcaus[pc] = wb_ci
                        elif kind == 3:  # uncached load: per-sector DRAM
                            completion = data_ready
                            if dst is not None:
                                w.wcaus[pc] = CI_MEMORY
                            for _ in range(aux):
                                done = dram_request(data_ready, txn_bytes)
                                if done > completion:
                                    completion = done
                            comp[pc] = completion
                        elif kind == 4:  # cached store: write-through bursts
                            for li in aux[1]:
                                ss = cache_sets[li % num_sets]
                                if li in ss:
                                    ss.move_to_end(li)
                                    c_whit += 1
                                    if samp_cache is not None:
                                        samp_cache(data_ready, True)
                                else:
                                    c_wmiss += 1
                                    if samp_cache is not None:
                                        samp_cache(data_ready, False)
                            if mshr is None:
                                for nb in aux[2]:
                                    dram_request(data_ready, nb)
                            else:
                                for seg, nb in zip(aux[0], aux[2]):
                                    dram_request(data_ready, nb, seg)
                            comp[pc] = issue_done
                        else:  # kind == 5, uncached store
                            for _ in range(aux):
                                dram_request(data_ready, txn_bytes)
                            comp[pc] = issue_done
                else:  # BARRIER: attribute the issue, then call out
                    issue_done = t + 1.0

                # ---- Collector.issue, inlined (same expressions/guards) --
                if ready > cursor:
                    # Dependency wait: the winning producer and its
                    # completion were computed by the scheduling scan that
                    # keyed this op (``dep_max`` / ``dep_best``), which
                    # walks the dedup of the same producer list, in the
                    # same order, that Collector.issue finds in its pending
                    # dict -- the strict-maximum tie-break picks the same
                    # producer.
                    dep_end = dep_max if dep_max < ready else ready
                    if dep_end > cursor:
                        # A winning producer exists (dep_end moved), so
                        # ``dep_best`` indexes its writeback latency class.
                        # Carve its wait into bank-conflict, MSHR-full, and
                        # producer-cause shares, each capped by what
                        # remains.
                        conflict = w.wconf[dep_best]
                        mshrw = w.wmshr[dep_best]
                        wait = dep_end - cursor
                        bank = conflict if conflict < wait else wait
                        rest = wait - bank
                        msh = mshrw if mshrw < rest else rest
                        cb = cursor + bank
                        cbm = cb + msh
                        if bank > 0.0 and cb > cursor:
                            wstal[iBANK] += cb - cursor
                            if trace_slice is not None:
                                trace_slice(
                                    PID_WARPS, w.wid, BANK, "stall",
                                    cursor, cb - cursor,
                                )
                        if msh > 0.0 and cbm > cb:
                            wstal[iMSHR] += cbm - cb
                            if trace_slice is not None:
                                trace_slice(
                                    PID_WARPS, w.wid, MSHRF, "stall", cb, cbm - cb
                                )
                        if dep_end > cbm:
                            ci = w.wcaus[dep_best]
                            wstal[ci] += dep_end - cbm
                            if trace_slice is not None:
                                trace_slice(
                                    PID_WARPS, w.wid, CAUSES[ci], "stall",
                                    cbm, dep_end - cbm,
                                )
                        cursor = dep_end
                    if ready > cursor:
                        # Two-level scheduler reactivation latency.
                        wstal[iDESCH] += ready - cursor
                        if trace_slice is not None:
                            trace_slice(
                                PID_WARPS, w.wid, DESCH, "stall",
                                cursor, ready - cursor,
                            )
                        cursor = ready
                if t > cursor:
                    wstal[iPORT] += t - cursor
                    if trace_slice is not None:
                        trace_slice(
                            PID_WARPS, w.wid, PORT, "stall", cursor, t - cursor
                        )
                t1 = t + 1.0
                if issue_done > t1:
                    wstal[iBANK] += issue_done - t1
                    if trace_slice is not None:
                        trace_slice(
                            PID_WARPS, w.wid, BANK, "stall", t1, issue_done - t1
                        )
                cursor = issue_done
                if not lite:
                    if samp_instr is not None:
                        samp_instr(t)
                    if trace_slice is not None:
                        trace_slice(
                            PID_WARPS, w.wid, w.obs_rows[pc][0], "issue",
                            t, issue_done - t,
                        )
                if kind == 6:  # barrier: the driver coordinates the CTA
                    # Re-sync the _WarpObs before CTA coordination reads it
                    # (resume / complete charge from its cursor).  Ops
                    # issued == pc for an in-order replay, so the
                    # collector's issue counter is the resume pc itself --
                    # no running counter in the loop.
                    w.pc = pc + 1
                    issued_until = issue_done
                    ws = w.ws
                    ws.cursor = cursor
                    ws.issue_cycles = pc + 1
                    seqbox[0] = seq
                    on_barrier(w, t, release)
                    seq = seqbox[0]
                    item = heappop(heap)
                    break
                pc += 1
                kind, a, b, aux, deps = rows[pc]
                nr = issue_done
                dep_max = -1.0
                dep_best = -1
                if deps:
                    # Scheduling scan, fused with the attribution scan: the
                    # first strict maximum over the dedup'd producers is
                    # the producer Collector.issue would blame.
                    for d in deps:
                        c = comp[d]
                        if c > dep_max:
                            dep_max = c
                            dep_best = d
                    if dep_max > nr:
                        nr = dep_max
                elif deps is None:  # R_END sentinel: warp retired
                    issued_until = issue_done
                    ws = w.ws
                    ws.cursor = cursor
                    ws.issue_cycles = pc
                    seqbox[0] = seq
                    on_retire(w, issue_done)
                    seq = seqbox[0]
                    item = heappop(heap)
                    break
                if desch_lat and nr - issue_done > desch_thr:
                    nr += desch_lat
                if nr < limit:
                    # Run-batched op: the event engine would push the warp
                    # keyed ``nr`` and pop it right back, so its ready and
                    # grant times both equal ``nr``.
                    t = nr
                    ready = nr
                    continue
                # Yield: park this warp keyed ``nr`` and resume whichever
                # is now earliest -- one heap operation.
                issued_until = issue_done
                item = heappushpop(
                    heap,
                    (nr, seq, w, pc, rows, comp, cursor, wstal, dep_max,
                     dep_best),
                )
                seq += 1
                break  # the outer loop checks whose entry it is
        core.issued_until = issued_until
        core.mem_port_free = mem_port_free
        seqbox[0] = seq
        return item

    return run, spawn, finish


def _complete(obs, w: _ColWarp, now: float) -> None:
    """``Collector.complete`` for a replayed warp.

    First folds the warp's per-cause stall accumulator into its
    _WarpObs: a completed warp is charged nothing more until the
    collector's ``finish`` (which adds the NOT_RESIDENT tail itself),
    and folding here lets the warp's replay state be freed at
    retirement.  Exact: every stall quantity is an integer-valued
    float, so one deferred add per cause equals the event engine's
    incremental adds, and nothing serializes per-warp dict insertion
    order (stall_totals re-keys through STALL_CAUSES, conservation uses
    fsum).
    """
    stalls = w.ws.stalls
    for ci, v in enumerate(w.wstal):
        if v:
            cause = STALL_CAUSES[ci]
            stalls[cause] = stalls.get(cause, 0.0) + v
    obs.complete(w.wid, now)


def replay(kernel, cfg: SMConfig, cores: list, dispatcher=None, chip_obs=None) -> list:
    """Replay one kernel launch over ``cores``: the only columnar loop.

    One global heap orders every core's warps by readiness exactly as
    the event loop keys them (``(ready, seq)``, FIFO among ties), so a
    1-core run is the single-SM simulation and an N-core run is the
    chip's interleaving.  Each core replays on its own runner -- the
    instrumented one when it has a live collector -- and the driver
    only hands each popped entry to its core's runner.  The CTA
    choreography below (``on_barrier`` / ``on_retire``, called from the
    runners) fires ``cta_launch`` / ``spawn`` / ``resume`` / ``complete``
    / ``cta_retire`` plus the chip collector's ``cta_dispatch`` /
    ``cta_retire`` taps in exactly the event loop's order; DRAM-window
    taps fire from the channel observers wired at core construction,
    which the instrumented runner always routes requests through.
    ``dispatcher`` only feeds the ``cta_dispatch`` tap.

    On return every core's issue/memory ports and model objects are
    final; the result is one list per core of the run's additive
    counters in :data:`~repro.compiler.columnar.N_TOTALS` order, the
    shape :meth:`SMCore.result <repro.sm.simulator.SMCore.result>`
    takes.
    """
    barrier_latency = cfg.barrier_latency
    # The heap always holds an infinite-key sentinel, so runners peek
    # ``heap[0][0]`` without an emptiness guard and the replay ends on
    # popping it.
    heap: list = [(float("inf"), 0, None)]
    seqbox = [0]
    # Static totals: one tuple appended per CTA spawn, summed
    # columnwise once at the end.
    spawned: list = [[] for _ in cores]
    plans: dict = {}
    # CTA indexes are unique, but grids repeat one CTA shape: the
    # interned signature row's identity plus the recycled shared-memory
    # base is exactly what a plan depends on within one run (every core
    # runs the same partition and config), so keying on those lets
    # steady-state spawns skip cta_plan's key rebuild.
    sig_rows = _sig_table(kernel, cfg.cache_line_bytes)

    def spawn_cta(core, now: float) -> bool:
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        pkey = (id(sig_rows[resident.index]), resident.shared_base)
        plan = plans.get(pkey)
        if plan is None:
            plan = plans[pkey] = cta_plan(
                kernel, core.banks, resident.shared_base, cfg,
                core.cache.enabled, resident.index,
            )
        progs, ctot = plan
        obs = core.obs
        if obs is not None:
            obs.cta_launch(resident.index, now, len(progs))
        if chip_obs is not None:
            chip_obs.cta_dispatch(
                resident.index, core.index, now, dispatcher.remaining
            )
        spawn = spawns[core.index]
        for wi, prog in enumerate(progs):
            spawn(prog, resident, wi, now)
        spawned[core.index].append(ctot)
        return True

    def retire_cta(core, cta, now: float) -> None:
        core.scheduler.retire(cta)
        if core.obs is not None:
            core.obs.cta_retire(cta.index, now)
        if chip_obs is not None:
            chip_obs.cta_retire(cta.index, core.index, now)
        core.live_ctas -= 1
        if spawn_cta(core, now):
            core.live_ctas += 1

    def on_retire(w: _ColWarp, now: float) -> None:
        core = w.core
        if core.obs is not None:
            _complete(core.obs, w, now)
        cta = w.cta
        cta.warps_outstanding -= 1
        if cta.warps_outstanding == 0:
            if cta.waiting_warps:
                raise SimulationError(
                    f"CTA {cta.index} finished with warps still at a barrier"
                )
            retire_cta(core, cta, now)

    def on_barrier(w: _ColWarp, arrival: float, release_warp) -> None:
        cta = w.cta
        cta.barrier_count += 1
        if cta.barrier_count != cta.warps_outstanding:
            cta.waiting_warps.append(w)
            return
        cta.barrier_count = 0
        waiting = cta.waiting_warps
        cta.waiting_warps = []
        release = arrival + 1 + barrier_latency
        core = w.core
        obs = core.obs
        for other in (*waiting, w):
            if obs is not None:
                obs.resume(other.wid, release, CAUSE_BARRIER)
            if other.pc < other.n_ops:
                release_warp(other, release)
            else:
                # A warp whose last instruction is a barrier.
                cta.warps_outstanding -= 1
                if obs is not None:
                    _complete(obs, other, release)
        if cta.warps_outstanding == 0:
            retire_cta(core, cta, release)

    # Nothing the runners' closures reach holds a ``run`` (heap entries
    # hold warps, not step functions), so a finished replay frees its
    # model state by reference counting instead of waiting for the cycle
    # collector.
    runs, spawns, finishes = zip(*(
        (make_warp_runner_obs if core.obs is not None else make_warp_runner)(
            cfg, core, heap, seqbox, on_barrier, on_retire
        )
        for core in cores
    ))

    # Breadth-first initial fill: SM 0 gets CTA 0, SM 1 gets CTA 1, ...
    # then around again until every SM is at its residency limit or the
    # grid drains.  With one SM this is the sequential fill of the
    # event engine (CTA 0, 1, 2, ... up to max_concurrent).
    progress = True
    while progress:
        progress = False
        for core in cores:
            if core.live_ctas < core.scheduler.max_concurrent and spawn_cta(core, 0.0):
                core.live_ctas += 1
                progress = True

    # Each entry's third field is its warp, which names its core; a
    # runner returns the first entry it popped that is another core's.
    item = heapq.heappop(heap)
    while item[2] is not None:
        item = runs[item[2].core.index](item)

    totals = []
    for core, finish, rows in zip(cores, finishes, spawned):
        if core.live_ctas:
            raise SimulationError(
                f"{core.live_ctas} CTAs never finished on SM {core.index}"
            )
        finish()
        totals.append(
            [sum(col) for col in zip(*rows)] if rows else [0] * N_TOTALS
        )
    return totals
