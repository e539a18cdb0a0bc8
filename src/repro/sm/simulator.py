"""Event-driven SM timing simulation: :func:`simulate` and the event engine.

See the package docstring (:mod:`repro.sm`) for the modelling contract.
:func:`run_event` is the only event loop, for one SM or N: it pops the
earliest-ready warp from a heap, serialises it on its SM's issue port,
resolves its instruction against that SM's bank model / cache / DRAM,
and schedules the warp's next readiness.  :func:`simulate` runs it on
one :class:`SMCore` (unless the kernel is warm and the columnar
replayer of :mod:`repro.sm.replay` takes the run), and
:func:`repro.chip.simulate_chip` on one core per SM.  Each warp
instruction is visited exactly once, so the loop runs in
``O(total_ops * log(resident_warps))``; the first simulation of a kernel
additionally pays a one-time ``O(total_ops * warp_width)`` planning pass
(:mod:`repro.compiler.precompute`) whose tables every later simulation
of the same :class:`CompiledKernel` reuses.

The loop dispatches on the plan's dense ``kind`` int instead of the
``op.op.space`` / ``is_load`` enum-property chain, resolves bank
outcomes through the bank model's ``planned_*`` memo lookups, and
accumulates histogram buckets, arbitration conflicts, and energy events
in local counters that are merged into the :class:`ConflictHistogram` /
:class:`~repro.sm.result.EnergyCounts` once per run.  All of this is
strictly a constant-factor optimisation: every simulated quantity --
cycles, conflict histogram, cache stats, DRAM traffic and request
ordering, energy counts, stall attribution -- is bit-identical to the
straightforward per-access evaluation, which the golden-result tests
(``tests/integration/test_golden_results.py``) pin end to end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.compiler.compiled import CompiledKernel, CompiledOp
from repro.compiler.precompute import (
    K_BARRIER,
    K_GLOBAL_LOAD,
    K_SHARED_LOAD,
    K_SHARED_STORE,
    K_TEX,
    plan_kernel,
)
from repro.core.partition import MemoryPartition
from repro.memory.banks import make_bank_model
from repro.memory.cache import DataCache
from repro.obs.collector import (
    CAUSE_BARRIER,
    CAUSE_MEMORY,
    CAUSE_RAW,
)
from repro.sm.config import SMConfig
from repro.sm.cta_scheduler import CTAScheduler, ResidentCTA
from repro.sm.result import EnergyCounts, SimResult

class SimulationError(RuntimeError):
    """The simulation reached an inconsistent state (internal bug guard)."""


def resolved_engine(kernel: CompiledKernel, config: SMConfig | None) -> str:
    """Engine the *next* ``simulate`` of ``kernel`` would actually run.

    The dispatch seam in :func:`simulate` is tiered: even under
    ``engine == "columnar"`` a kernel's first simulation runs the event
    core (and marks the kernel warm), so the configured engine and the
    executed one can differ.  Callers that record provenance (run
    manifests, ``Runner.sim_metrics``) ask here instead of duplicating
    the warm-key rule.
    """
    cfg = config or SMConfig()
    if cfg.engine != "columnar":
        return "event"
    return "columnar" if _warm_key(cfg) in kernel._plan_cache else "event"


def mark_warm(kernel: CompiledKernel, cfg: SMConfig) -> None:
    """Make every later columnar ``simulate`` of ``kernel`` replay directly.

    The tiered warm-up runs a kernel's first simulation on the event
    core; marking skips that tier (a chip run lowers every SM anyway, and
    benchmarks or tests that must time or compare the replayer mark
    first).
    """
    kernel._plan_cache[_warm_key(cfg)] = True


def _warm_key(cfg: SMConfig) -> tuple:
    # Lowered programs depend on the line size (segments, sectors).
    return ("colwarm", cfg.cache_line_bytes)


class SMCore:
    """One SM's private state: the unit both engines simulate.

    :func:`simulate` builds one over the whole grid and a private
    channel; :func:`repro.chip.simulate_chip` builds one per SM with a
    dispatcher-fed CTA source and a chip DRAM port.  Nothing here is
    shared between cores -- only the DRAM behind ``dram`` and the CTA
    supply behind the scheduler can be.
    """

    __slots__ = (
        "index", "scheduler", "banks", "cache", "dram", "mshr", "obs",
        "issued_until", "mem_port_free", "warp_serial", "live_ctas",
    )

    def __init__(
        self, index, kernel, partition, cfg, thread_target, dram, obs,
        cta_source=None,
    ) -> None:
        self.index = index
        self.scheduler = CTAScheduler(
            kernel, partition, thread_target, cta_source=cta_source
        )
        self.banks = make_bank_model(partition, cluster_port=cfg.cluster_port_banks)
        # The unified allocator can leave any remainder as cache; model
        # the whole sets and keep the dropped bytes visible in
        # cache.slack_bytes.
        self.cache = DataCache(
            partition.cache_bytes,
            assoc=cfg.cache_assoc,
            line_bytes=cfg.cache_line_bytes,
            misaligned="floor",
        )
        self.dram = dram
        #: None = legacy blocking miss model (the golden-fixture default).
        self.mshr = cfg.make_mshr_file()
        #: Live collector, or None for an uninstrumented core.
        self.obs = obs
        #: The single issue port and the shared-memory / cache pipeline
        #: port: bank-conflicted accesses serialise on the latter
        #: without blocking instruction issue for other warps.
        self.issued_until = 0.0
        self.mem_port_free = 0.0
        self.warp_serial = 0
        self.live_ctas = 0

    def end_cycle(self) -> float:
        """When this SM went idle: issue, memory pipe, and its last DRAM."""
        return max(self.issued_until, self.mem_port_free, self.dram.free_at)

    def result(self, kernel, partition, totals, obs_end: float) -> SimResult:
        """Assemble this core's :class:`SimResult` after a run.

        ``totals`` holds the run's additive counters in the order of
        :data:`repro.compiler.columnar.N_TOTALS` (instructions, conflict
        cycles, arbitration conflicts, the five histogram buckets, RF
        traffic, shared/cache row traffic, tag lookups); every engine
        folds its counters into that one shape.  A live collector is
        finished at ``obs_end`` -- the chip makespan at chip scope.
        """
        (instructions, conflict_cycles, arb_total,
         h0, h1, h2, h3, h4,
         mrf_r, mrf_w, orf_r, orf_w, lrf_r, lrf_w,
         sh_rr, sh_rw, c_rr, c_rw, tags) = totals
        banks = self.banks
        h = banks.histogram
        h.at_most_1 += h0
        h.exactly_2 += h1
        h.exactly_3 += h2
        h.exactly_4 += h3
        h.over_4 += h4
        if arb_total:
            banks.arbitration_conflicts += arb_total
        dram = self.dram
        counts = EnergyCounts(
            mrf_reads=mrf_r,
            mrf_writes=mrf_w,
            orf_reads=orf_r,
            orf_writes=orf_w,
            lrf_reads=lrf_r,
            lrf_writes=lrf_w,
            shared_row_reads=sh_rr,
            shared_row_writes=sh_rw,
            cache_row_reads=c_rr,
            cache_row_writes=c_rw,
            tag_lookups=tags,
            dram_bits=dram.bits_transferred,
        )
        stall_cycles: dict[str, float] = {}
        if self.obs is not None:
            self.obs.finish(obs_end)
            stall_cycles = self.obs.stall_totals()
        notes: dict = {}
        if self.mshr is not None:
            memsys = {"mshr": self.mshr.stats()}
            if getattr(dram, "row_hits", None) is not None:
                # A private channel keeps its own row-buffer counters; a
                # shared-system port does not (the chip result carries
                # the system-wide counters instead).
                memsys["dram_row_hits"] = dram.row_hits
                memsys["dram_row_misses"] = dram.row_misses
            notes["memsys"] = memsys
        scheduler = self.scheduler
        return SimResult(
            kernel=kernel.name,
            partition=partition,
            cycles=self.end_cycle(),
            instructions=instructions,
            resident_ctas=scheduler.max_concurrent,
            resident_threads=scheduler.limits.resident_threads,
            regs_per_thread=kernel.regs_per_thread,
            bank_conflict_cycles=conflict_cycles,
            conflict_histogram=h,
            cache_stats=self.cache.stats,
            dram_accesses=dram.accesses,
            dram_bytes=dram.bytes_transferred,
            energy_counts=counts,
            limiting_resource=scheduler.limits.limiting_resource,
            stall_cycles=stall_cycles,
            notes=notes,
        )


def simulate(
    kernel: CompiledKernel,
    partition: MemoryPartition,
    config: SMConfig | None = None,
    thread_target: int | None = None,
    collector=None,
) -> SimResult:
    """Run one kernel launch to completion under a memory partition.

    This is the paper's single-SM methodology: one :class:`SMCore` over
    the whole grid behind a private 1/32-bandwidth channel.  The chip
    simulator (:mod:`repro.chip`) composes N such cores.

    Args:
        kernel: Compiled kernel (see :func:`repro.compiler.compile_kernel`).
        partition: Memory split to simulate (baseline, Fermi-like, or
            unified).
        config: SM latencies/bandwidth; defaults to Table 2 values.
        thread_target: Optional cap on resident threads (the paper's
            256..1024 sweeps); ``None`` lets occupancy decide.
        collector: Optional :class:`repro.obs.Collector` receiving stall
            attribution, interval metrics, and trace events.  ``None``
            (or any collector with ``enabled == False``) keeps the hot
            loop uninstrumented; instrumentation never changes timing.

    Returns:
        A :class:`~repro.sm.result.SimResult` with cycles, DRAM traffic,
        bank-conflict statistics, and energy-relevant event counts (plus
        per-cause stall totals when a collector was attached).

    Raises:
        repro.sm.cta_scheduler.LaunchError: If no CTA fits the partition.
    """
    cfg = config or SMConfig()
    obs = collector if collector is not None and collector.enabled else None
    core = SMCore(
        0, kernel, partition, cfg, thread_target,
        cfg.make_dram_channel(
            observer=obs.dram_transfer if obs is not None else None
        ),
        obs,
    )
    if resolved_engine(kernel, cfg) == "columnar":
        # Warm kernels replay precompiled columnar warp programs
        # (bit-identical results, ~2x faster once lowered) -- instrumented
        # or not -- on the same driver the chip simulator runs, here over
        # one core (see repro.sm.replay).
        from repro.sm.replay import replay

        (totals,) = replay(kernel, cfg, [core])
    else:
        # Tiered warm-up: lowering a kernel (signatures + programs) costs
        # about as much as one event-engine run, so it only pays off from
        # a kernel's second simulation on.  The first sight of a kernel
        # runs the event core and marks it; sweeps (capacity,
        # thread-target, ablation grids) replay columnar from then on,
        # while one-shot simulations never pay an unamortised compile.
        if cfg.engine == "columnar":
            mark_warm(kernel, cfg)
        (totals,) = run_event(kernel, cfg, [core])
    if core.scheduler.remaining:
        raise SimulationError(
            f"{core.scheduler.remaining} CTAs were never launched"
        )
    return core.result(kernel, partition, totals, core.end_cycle())


@dataclass(slots=True)
class _EventWarp:
    """One resident warp of the event engine and the SM core it runs on.

    ``core`` is how the event heap routes a popped warp back to its SM's
    issue port, memory pipeline, and counters.
    """

    ops: list[CompiledOp]
    #: Per-op plans aligned with ``ops`` (see repro.compiler.precompute).
    plans: list
    cta: ResidentCTA
    core: SMCore
    pc: int = 0
    #: Architectural register -> cycle its pending write completes.
    pending: dict[int, float] = field(default_factory=dict)
    #: Warp id, unique per core (the observability track key).
    wid: int = 0

    def next_ready(self, now: float) -> float:
        """Earliest cycle the next instruction's operands are available."""
        op = self.ops[self.pc]
        ready = now
        pending = self.pending
        if pending:
            # RAW hazards only: writes drain in program order through the
            # in-order pipeline, so WAW to a recycled register is safe.
            for r in op.srcs:
                t = pending.get(r)
                if t is not None and t > ready:
                    ready = t
        return ready


def run_event(kernel, cfg: SMConfig, cores: list, dispatcher=None, chip_obs=None) -> list:
    """The event engine: run one launch on ``cores`` behind one event heap.

    One heap of ``(ready_cycle, seq, warp)`` interleaves the warps of
    every core by readiness (``seq`` keeps FIFO order among ties), so
    cores advance together in simulated time and their DRAM requests
    reach a shared channel in arrival order.  :func:`simulate` runs one
    core, :func:`repro.chip.simulate_chip` N; a chip's cores draw CTAs
    from ``dispatcher``, and ``chip_obs`` (a live
    :class:`~repro.obs.chip.ChipCollector` or ``None``) sees every CTA
    dispatch and retirement.

    Returns one list per core of the run's additive counters in
    :data:`~repro.compiler.columnar.N_TOTALS` order (see
    :meth:`SMCore.result`).
    """
    line_bytes = cfg.cache_line_bytes
    plans_k = plan_kernel(kernel, line_bytes)

    heap: list[tuple[float, int, _EventWarp]] = []
    seq = 0  # also advanced inline by the hot loop below

    def push(w: _EventWarp, now: float) -> None:
        nonlocal seq
        heapq.heappush(heap, (w.next_ready(now), seq, w))
        seq += 1

    def spawn_cta(core: SMCore, now: float) -> bool:
        resident = core.scheduler.launch_next()
        if resident is None:
            return False
        obs = core.obs
        if obs is not None:
            obs.cta_launch(resident.index, now, len(resident.cta.warps))
        if chip_obs is not None:
            chip_obs.cta_dispatch(
                resident.index, core.index, now, dispatcher.remaining
            )
        warp_plans = plans_k[resident.index]
        for wi, cw in enumerate(resident.cta.warps):
            w = _EventWarp(
                cw.ops, warp_plans[wi], resident, core, wid=core.warp_serial
            )
            core.warp_serial += 1
            if obs is not None:
                obs.spawn(w.wid, resident.index, wi, now)
            push(w, now)
        return True

    def retire(core: SMCore, cta: ResidentCTA, now: float) -> None:
        core.scheduler.retire(cta)
        if core.obs is not None:
            core.obs.cta_retire(cta.index, now)
        if chip_obs is not None:
            chip_obs.cta_retire(cta.index, core.index, now)
        core.live_ctas -= 1
        if spawn_cta(core, now):
            core.live_ctas += 1

    # Breadth-first initial fill: SM 0 gets CTA 0, SM 1 gets CTA 1, ...
    # then around again until every SM is at its residency limit or the
    # grid drains.  With one SM this is the sequential fill CTA 0, 1, 2,
    # ... up to max_concurrent.
    progress = True
    while progress:
        progress = False
        for core in cores:
            if core.live_ctas < core.scheduler.max_concurrent and spawn_cta(core, 0.0):
                core.live_ctas += 1
                progress = True

    # Hoisted bound methods and config scalars.
    heappush = heapq.heappush
    heappop = heapq.heappop
    lat_by_kind = (cfg.alu_latency, cfg.sfu_latency, cfg.tex_latency)
    shared_latency = cfg.shared_latency
    hit_latency = cfg.cache_hit_latency
    txn_bytes = cfg.dram_transaction_bytes
    desch_lat = cfg.deschedule_latency
    desch_thr = cfg.deschedule_threshold
    barrier_latency = cfg.barrier_latency

    # The popped warp's core lives in locals: its units (bank, cache and
    # DRAM bound methods, MSHR file, collector) and its state -- the
    # issue port, the shared-memory / cache pipeline port, and the run's
    # counters in N_TOTALS order with the histogram as one list.  A pop
    # that switches cores saves one state tuple and loads the other's,
    # so a one-core run loads once and an N-core run pays two tuple
    # moves per switch rather than list traffic per op.
    units = [
        (c.banks.planned_shared, c.banks.planned_global, c.cache.read_line,
         c.cache.write_line, c.cache.enabled, c.dram.request, c.mshr, c.obs)
        for c in cores
    ]
    states = [
        (c.issued_until, c.mem_port_free, 0, 0, 0, [0, 0, 0, 0, 0], *[0] * 11)
        for c in cores
    ]
    loaded = None
    while heap or loaded is not None:
        if heap:
            ready, _, w = heappop(heap)
            core = w.core
        else:
            core = None  # drained: save the loaded state, then stop
        if core is not loaded:
            if loaded is not None:
                states[loaded.index] = (
                    issued_until, mem_port_free,
                    instructions, conflict_cycles, arb_total, hist,
                    mrf_reads_t, mrf_writes_t, orf_reads_t, orf_writes_t,
                    lrf_reads_t, lrf_writes_t,
                    shared_row_reads_t, shared_row_writes_t,
                    cache_row_reads_t, cache_row_writes_t,
                    tag_lookups_t,
                )
            if core is None:
                break
            loaded = core
            (planned_shared, planned_global, cache_read, cache_write,
             cache_enabled, dram_request, mshr, obs) = units[core.index]
            (
                issued_until, mem_port_free,
                instructions, conflict_cycles, arb_total, hist,
                mrf_reads_t, mrf_writes_t, orf_reads_t, orf_writes_t,
                lrf_reads_t, lrf_writes_t,
                shared_row_reads_t, shared_row_writes_t,
                cache_row_reads_t, cache_row_writes_t,
                tag_lookups_t,
            ) = states[core.index]

        t = ready if ready > issued_until else issued_until
        pc = w.pc
        op = w.ops[pc]
        pl = w.plans[pc]
        kind = pl.kind
        instructions += 1

        if kind <= K_TEX:
            # ALU/SFU/TEX: register-bank conflicts stall operand fetch,
            # and with it the issue port.
            penalty = pl.reg_penalty
            hist[pl.reg_bucket] += 1
            issue_done = t + 1 + penalty
            completion = issue_done + lat_by_kind[kind]
        elif kind == K_BARRIER:
            cta = w.cta
            cta.barrier_count += 1
            w.pc = pc + 1
            issued_until = t + 1
            if obs is not None:
                obs.issue(w.wid, "BARRIER", op.srcs, ready, t, t + 1)
            if cta.barrier_count == cta.warps_outstanding:
                cta.barrier_count = 0
                waiting = cta.waiting_warps
                cta.waiting_warps = []
                release = t + 1 + barrier_latency
                for other in (*waiting, w):
                    if obs is not None:
                        obs.resume(other.wid, release, CAUSE_BARRIER)
                    if other.pc < len(other.ops):
                        push(other, release)
                    else:
                        cta.warps_outstanding -= 1
                        # A warp whose last instruction is a barrier.
                        if obs is not None:
                            obs.complete(other.wid, release)
                if cta.warps_outstanding == 0:
                    retire(core, cta, release)
            else:
                cta.waiting_warps.append(w)
            continue
        else:
            # Memory instructions issue in one cycle; bank conflicts
            # serialise in the memory pipeline (other warps keep issuing).
            issue_done = t + 1
            wb_cause = CAUSE_RAW  # latency class of the writeback (obs)
            mshr_wait = 0.0  # cycles this op stalled for a free MSHR entry
            if kind <= K_SHARED_STORE:
                penalty, bucket, rows, arb = planned_shared(
                    pl, op.addrs, w.cta.shared_base
                )
                hist[bucket] += 1
                arb_total += arb
                if kind == K_SHARED_LOAD:
                    shared_row_reads_t += rows
                else:
                    shared_row_writes_t += rows
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                mem_port_free = port_start + 1 + penalty
                completion = data_ready + shared_latency
            else:  # global / local through the cache
                penalty, bucket, rows, arb = planned_global(pl)
                hist[bucket] += 1
                arb_total += arb
                if cache_enabled:
                    # A 0 KB cache has no tag array, so a disabled cache
                    # must not accrue tag-lookup energy.
                    tag_lookups_t += pl.n_segments
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                mem_port_free = port_start + 1 + penalty
                if kind == K_GLOBAL_LOAD:
                    completion = data_ready
                    if cache_enabled:
                        cache_row_reads_t += rows
                        if mshr is not None:
                            # Non-blocking memory system: a primary miss
                            # allocates an MSHR entry and an addressed
                            # line fill; a secondary miss to an in-flight
                            # line merges into its outstanding fill with
                            # no extra DRAM traffic; a full file stalls
                            # the LSU until the earliest fill retires.
                            cur = data_ready
                            for seg in pl.segments:
                                hit = cache_read(seg)
                                if obs is not None:
                                    obs.cache_access(cur, hit)
                                fill = mshr.outstanding(seg, cur)
                                if fill is not None:
                                    # The tag was installed by the
                                    # primary miss, so the probe "hits";
                                    # the data arrives with the fill.
                                    mshr.secondary_merges += 1
                                    wb_cause = CAUSE_MEMORY
                                    done = fill
                                elif hit:
                                    done = cur + hit_latency
                                else:
                                    free = mshr.entry_free_at(cur)
                                    if free > cur:
                                        mshr.full_stalls += 1
                                        mshr.full_stall_cycles += free - cur
                                        mshr_wait += free - cur
                                        cur = free
                                    done = dram_request(cur, line_bytes, seg)
                                    mshr.allocate(seg, done, cur)
                                    wb_cause = CAUSE_MEMORY
                                if done > completion:
                                    completion = done
                            if cur > mem_port_free:
                                # An LSU that cannot allocate an entry
                                # blocks the memory pipeline (structural
                                # back-pressure); this also keeps the
                                # DRAM request stream time-ordered.
                                mem_port_free = cur
                        elif obs is None:
                            for seg in pl.segments:
                                if cache_read(seg):
                                    done = data_ready + hit_latency
                                else:
                                    done = dram_request(data_ready, line_bytes)
                                    wb_cause = CAUSE_MEMORY
                                if done > completion:
                                    completion = done
                        else:
                            for seg in pl.segments:
                                if cache_read(seg):
                                    done = data_ready + hit_latency
                                    obs.cache_access(data_ready, True)
                                else:
                                    done = dram_request(data_ready, line_bytes)
                                    wb_cause = CAUSE_MEMORY
                                    obs.cache_access(data_ready, False)
                                if done > completion:
                                    completion = done
                    else:
                        wb_cause = CAUSE_MEMORY
                        ns = pl.n_sectors
                        if ns < 0:
                            ns = pl.sector_info(op.addrs, line_bytes)[0]
                        for _ in range(ns):
                            done = dram_request(data_ready, txn_bytes)
                            if done > completion:
                                completion = done
                else:  # store: write-through, no-allocate, fire-and-forget
                    completion = None
                    if cache_enabled:
                        cache_row_writes_t += rows
                        if obs is None:
                            for seg in pl.segments:
                                cache_write(seg)
                        else:
                            for seg in pl.segments:
                                obs.cache_access(data_ready, cache_write(seg))
                        # With a cache in front, the memory controller
                        # combines write-through traffic into per-line
                        # bursts: one DRAM access per touched line.
                        pls = pl.per_line_sectors
                        if pls is None:
                            pls = pl.sector_info(op.addrs, line_bytes)[1]
                        if mshr is not None:
                            # Non-blocking mode addresses the bursts so
                            # the DRAM row-buffer decode sees them.
                            for seg, nsect in zip(pl.segments, pls):
                                dram_request(data_ready, nsect * txn_bytes, seg)
                        else:
                            for nsect in pls:
                                dram_request(data_ready, nsect * txn_bytes)
                    else:
                        ns = pl.n_sectors
                        if ns < 0:
                            ns = pl.sector_info(op.addrs, line_bytes)[0]
                        for _ in range(ns):
                            dram_request(data_ready, txn_bytes)

        # ---- register file traffic -------------------------------------
        mrf_reads_t += pl.n_mrf_reads
        mrf_writes_t += pl.n_mrf_writes
        orf_reads_t += op.orf_reads
        orf_writes_t += op.orf_writes
        lrf_reads_t += op.lrf_reads
        lrf_writes_t += op.lrf_writes

        # ---- issue/penalty accounting -----------------------------------
        conflict_cycles += penalty
        issued_until = issue_done
        if op.dst is not None:
            if completion is None or completion < issue_done:
                completion = issue_done  # a result is never early-forwarded
            w.pending[op.dst] = completion
        if obs is not None:
            # issue() reads the *old* pending entries for dependency
            # attribution, so it runs before writeback() (dst may appear
            # in srcs).
            obs.issue(w.wid, op.op.name, op.srcs, ready, t, issue_done)
            if op.dst is not None:
                if kind <= K_TEX:
                    cause = CAUSE_MEMORY if kind == K_TEX else CAUSE_RAW
                    obs.writeback(w.wid, op.dst, completion, cause, 0.0)
                else:
                    # Memory-pipeline serialisation folded into this
                    # op's latency: LSU-port queueing + bank conflicts.
                    wb_conflict = (port_start - issue_done) + penalty
                    obs.writeback(
                        w.wid, op.dst, completion, wb_cause, wb_conflict, mshr_wait
                    )

        # ---- advance warp ------------------------------------------------
        pc += 1
        w.pc = pc
        ops_w = w.ops
        if pc < len(ops_w):
            # Inlined _EventWarp.next_ready plus the two-level scheduler
            # runtime model (ref [8]): a warp stalling past the threshold
            # is descheduled and pays a reactivation latency when its
            # dependence resolves.
            nr = issue_done
            pending = w.pending
            if pending:
                for r in ops_w[pc].srcs:
                    t2 = pending.get(r)
                    if t2 is not None and t2 > nr:
                        nr = t2
            if desch_lat and nr - issue_done > desch_thr:
                heappush(heap, (nr + desch_lat, seq, w))
            else:
                heappush(heap, (nr, seq, w))
            seq += 1
            continue
        if obs is not None:
            obs.complete(w.wid, issue_done)
        cta = w.cta
        cta.warps_outstanding -= 1
        if cta.warps_outstanding == 0:
            if cta.waiting_warps:
                raise SimulationError(
                    f"CTA {cta.index} finished with warps still at a barrier"
                )
            retire(core, cta, issue_done)

    totals = []
    for core, (issued, mem_free, n, conflicts, arb, h, *rest) in zip(cores, states):
        if core.live_ctas:
            raise SimulationError(
                f"{core.live_ctas} CTAs never finished on SM {core.index}"
            )
        core.issued_until = issued
        core.mem_port_free = mem_free
        totals.append([n, conflicts, arb, *h, *rest])
    return totals
