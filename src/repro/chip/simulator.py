"""Chip-level simulation: N SMs behind one DRAM system.

One global heap interleaves the warps of every SM by readiness, so SMs
advance together in simulated time and their DRAM requests reach the
shared :class:`~repro.memory.dram.DRAMSystem` in arrival order -- the
contention the paper's fixed 1/32-bandwidth-slice methodology cannot
express.  Each SM is one :class:`~repro.sm.simulator.SMCore` with its
own issue port, memory pipeline port, bank model, cache, and counters;
nothing architectural is shared except the DRAM channels and the CTA
dispatcher.

The columnar engine needs no chip-specific loop: :func:`simulate_chip`
hands its N cores to :func:`repro.sm.replay.replay`, the same driver
:func:`repro.sm.simulate` runs over one core.  The event engine keeps
its own chip loop here (:func:`_run_chip_event`): the per-warp
arithmetic of :mod:`repro.sm.simulator`'s loop with the SM-wide state
moved onto the warp's owning core.  Either way a 1-SM chip with a
private full-slice channel (``ChipConfig.single_sm()``) replays the
identical sequence of heap operations and bus reservations, so its one
:class:`~repro.sm.result.SimResult` is bit-identical to
:func:`repro.sm.simulate` -- pinned against the golden fixtures by
``tests/chip/test_single_sm_identity.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.chip.config import ChipConfig
from repro.chip.dispatch import CTADispatcher
from repro.chip.result import ChipResult
# ``cta_plan`` stays importable from here: span tracers wrap lowering at
# this import site (chip lowering itself runs in repro.sm.replay).
from repro.compiler.columnar import cta_plan  # noqa: F401
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
from repro.memory.dram import DRAMChannel, DRAMSystem
from repro.obs.collector import (
    CAUSE_BARRIER,
    CAUSE_MEMORY,
    CAUSE_RAW,
)
from repro.sm.replay import replay
from repro.sm.result import SimResult
from repro.sm.simulator import SimulationError, SMCore


@dataclass(slots=True)
class _ChipWarp:
    """A resident warp plus the SM core it executes on.

    Mirrors :class:`repro.sm.simulator._WarpState`; the extra ``core``
    field is how the shared event heap routes a popped warp back to its
    SM's issue port and counters.
    """

    ops: list[CompiledOp]
    plans: list
    cta: object
    core: SMCore
    pc: int = 0
    pending: dict[int, float] = field(default_factory=dict)
    wid: int = 0
    widx: int = 0

    def next_ready(self, now: float) -> float:
        op = self.ops[self.pc]
        ready = now
        pending = self.pending
        if pending:
            for r in op.srcs:
                t = pending.get(r)
                if t is not None and t > ready:
                    ready = t
        return ready


def _tee_channel_observer(sm_hook, chip_hook, channel: int):
    """Fan a private DRAMChannel's observer out to the SM and chip sinks.

    Partitioned DRAM has no :class:`~repro.memory.dram.DRAMSystem` to
    carry a ``channel_observer``, so the chip collector sees SM ``i``'s
    private slice as channel ``i`` through this shim.
    """
    if sm_hook is None:
        def tee(start, end, nbytes):
            chip_hook(channel, start, end, nbytes)
    else:
        def tee(start, end, nbytes):
            sm_hook(start, end, nbytes)
            chip_hook(channel, start, end, nbytes)
    return tee


def _run_chip_event(kernel, sm_cfg, cores, dispatcher, chip_obs) -> list:
    """Interpretive main loop: the single-SM hot loop over N cores.

    This is the original chip event loop; `simulate_chip` routes here
    when the SM engine is pinned to ``"event"`` (instrumented or not --
    otherwise every run replays through :func:`repro.sm.replay.replay`).
    Returns one list per core of the run's additive counters in
    :data:`~repro.compiler.columnar.N_TOTALS` order: 0 instructions,
    1 conflict cycles, 2 arbitration conflicts, 3-7 histogram buckets,
    8-13 MRF/ORF/LRF reads and writes, 14-15 shared row reads/writes,
    16-17 cache row reads/writes, 18 tag lookups.
    """
    line_bytes = sm_cfg.cache_line_bytes
    plans_k = plan_kernel(kernel, line_bytes)
    totals = [[0] * 19 for _ in cores]

    heap: list[tuple[float, int, _ChipWarp]] = []
    seq = 0

    def push(w: _ChipWarp, now: float) -> None:
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
            w = _ChipWarp(
                ops=cw.ops,
                plans=warp_plans[wi],
                cta=resident,
                core=core,
                wid=core.warp_serial,
                widx=wi,
            )
            core.warp_serial += 1
            if obs is not None:
                obs.spawn(w.wid, resident.index, wi, now)
            push(w, now)
        return True

    # Breadth-first initial fill: SM 0 gets CTA 0, SM 1 gets CTA 1, ...
    # then around again until every SM is at its residency limit or the
    # grid drains.  With one SM this is exactly the sequential fill of
    # the single-SM simulator (CTA 0, 1, 2, ... up to max_concurrent).
    progress = True
    while progress:
        progress = False
        for core in cores:
            if core.live_ctas < core.scheduler.max_concurrent and spawn_cta(core, 0.0):
                core.live_ctas += 1
                progress = True

    heappush = heapq.heappush
    heappop = heapq.heappop
    lat_by_kind = (sm_cfg.alu_latency, sm_cfg.sfu_latency, sm_cfg.tex_latency)
    shared_latency = sm_cfg.shared_latency
    hit_latency = sm_cfg.cache_hit_latency
    txn_bytes = sm_cfg.dram_transaction_bytes
    desch_lat = sm_cfg.deschedule_latency
    desch_thr = sm_cfg.deschedule_threshold
    barrier_latency = sm_cfg.barrier_latency

    # The loop body below is the single-SM hot loop of
    # repro.sm.simulator with SM-wide locals replaced by fields of the
    # popped warp's core; any timing change here breaks the N=1
    # bit-identity contract.
    while heap:
        ready, _, w = heappop(heap)
        core = w.core
        t = ready if ready > core.issued_until else core.issued_until
        pc = w.pc
        op = w.ops[pc]
        pl = w.plans[pc]
        kind = pl.kind
        tot = totals[core.index]
        tot[0] += 1
        obs = core.obs

        if kind <= K_TEX:
            penalty = pl.reg_penalty
            tot[3 + pl.reg_bucket] += 1
            issue_done = t + 1 + penalty
            completion = issue_done + lat_by_kind[kind]
        elif kind == K_BARRIER:
            cta = w.cta
            cta.barrier_count += 1
            w.pc = pc + 1
            core.issued_until = t + 1
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
                        if obs is not None:
                            obs.complete(other.wid, release)
                if cta.warps_outstanding == 0:
                    core.scheduler.retire(cta)
                    if obs is not None:
                        obs.cta_retire(cta.index, release)
                    if chip_obs is not None:
                        chip_obs.cta_retire(cta.index, core.index, release)
                    core.live_ctas -= 1
                    if spawn_cta(core, release):
                        core.live_ctas += 1
            else:
                cta.waiting_warps.append(w)
            continue
        else:
            issue_done = t + 1
            wb_cause = CAUSE_RAW
            mshr_wait = 0.0
            if kind <= K_SHARED_STORE:
                penalty, bucket, rows, arb = core.banks.planned_shared(
                    pl, op.addrs, w.cta.shared_base
                )
                tot[3 + bucket] += 1
                tot[2] += arb
                if kind == K_SHARED_LOAD:
                    tot[14] += rows
                else:
                    tot[15] += rows
                mem_port_free = core.mem_port_free
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                core.mem_port_free = port_start + 1 + penalty
                completion = data_ready + shared_latency
            else:
                penalty, bucket, rows, arb = core.banks.planned_global(pl)
                tot[3 + bucket] += 1
                tot[2] += arb
                cache = core.cache
                cache_enabled = cache.enabled
                if cache_enabled:
                    tot[18] += pl.n_segments
                mem_port_free = core.mem_port_free
                port_start = issue_done if issue_done > mem_port_free else mem_port_free
                data_ready = port_start + penalty
                core.mem_port_free = port_start + 1 + penalty
                dram_request = core.dram.request
                if kind == K_GLOBAL_LOAD:
                    completion = data_ready
                    if cache_enabled:
                        tot[16] += rows
                        cache_read = cache.read_line
                        mshr = core.mshr
                        if mshr is not None:
                            # Non-blocking miss handling; mirrors the
                            # single-SM loop (see repro.sm.simulator).
                            cur = data_ready
                            for seg in pl.segments:
                                hit = cache_read(seg)
                                if obs is not None:
                                    obs.cache_access(cur, hit)
                                fill = mshr.outstanding(seg, cur)
                                if fill is not None:
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
                            if cur > core.mem_port_free:
                                core.mem_port_free = cur
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
                else:
                    completion = None
                    if cache_enabled:
                        tot[17] += rows
                        cache_write = cache.write_line
                        if obs is None:
                            for seg in pl.segments:
                                cache_write(seg)
                        else:
                            for seg in pl.segments:
                                obs.cache_access(data_ready, cache_write(seg))
                        pls = pl.per_line_sectors
                        if pls is None:
                            pls = pl.sector_info(op.addrs, line_bytes)[1]
                        if core.mshr is not None:
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

        tot[8] += pl.n_mrf_reads
        tot[9] += pl.n_mrf_writes
        tot[10] += op.orf_reads
        tot[11] += op.orf_writes
        tot[12] += op.lrf_reads
        tot[13] += op.lrf_writes

        tot[1] += penalty
        core.issued_until = issue_done
        if op.dst is not None:
            if completion is None or completion < issue_done:
                completion = issue_done
            w.pending[op.dst] = completion
        if obs is not None:
            obs.issue(w.wid, op.op.name, op.srcs, ready, t, issue_done)
            if op.dst is not None:
                if kind <= K_TEX:
                    cause = CAUSE_MEMORY if kind == K_TEX else CAUSE_RAW
                    obs.writeback(w.wid, op.dst, completion, cause, 0.0)
                else:
                    wb_conflict = (port_start - issue_done) + penalty
                    obs.writeback(
                        w.wid, op.dst, completion, wb_cause, wb_conflict, mshr_wait
                    )

        pc += 1
        w.pc = pc
        ops_w = w.ops
        if pc < len(ops_w):
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
            core.scheduler.retire(cta)
            if obs is not None:
                obs.cta_retire(cta.index, issue_done)
            if chip_obs is not None:
                chip_obs.cta_retire(cta.index, core.index, issue_done)
            core.live_ctas -= 1
            if spawn_cta(core, issue_done):
                core.live_ctas += 1

    for core in cores:
        if core.live_ctas:
            raise SimulationError(
                f"{core.live_ctas} CTAs never finished on SM {core.index}"
            )
    return totals


def simulate_chip(
    kernel: CompiledKernel,
    partition: MemoryPartition,
    chip: ChipConfig | None = None,
    thread_target: int | None = None,
    collectors=None,
    chip_collector=None,
) -> ChipResult:
    """Run one kernel launch across every SM of a chip.

    CTAs are distributed GigaThread-style by a shared
    :class:`~repro.chip.dispatch.CTADispatcher` (grid order, to whichever
    SM frees a residency slot first); DRAM requests either share the
    chip's arbitrated channels or, when ``chip.dram_partitioned``, go to
    private per-SM slices -- the paper's methodology.

    Args:
        kernel: Compiled kernel; the *whole* grid is one launch, however
            many SMs share it.
        partition: Memory split every SM runs under.
        chip: Chip shape and DRAM model; defaults to the paper's 32-SM,
            256 B/cycle chip with shared channels.
        thread_target: Per-SM resident-thread cap (as in
            :func:`repro.sm.simulate`).
        collectors: Optional list of per-SM observability collectors,
            one per SM (``None`` entries allowed).  Each SM's collector
            sees only that SM's events; all are finished at the chip
            makespan so per-SM stall attribution conserves against chip
            time.
        chip_collector: Optional
            :class:`~repro.obs.chip.ChipCollector`; its per-SM
            collectors become the ``collectors`` list, its DRAM hook
            rides the channel observer, and its dispatcher tap records
            every CTA hand-out and retirement.  Mutually exclusive with
            ``collectors``.

    Returns:
        A :class:`~repro.chip.result.ChipResult` holding one measured
        :class:`~repro.sm.result.SimResult` per SM plus chip aggregates.
    """
    cfg = chip or ChipConfig()
    sm_cfg = cfg.sm
    n = cfg.num_sms
    chip_obs = (
        chip_collector
        if chip_collector is not None and chip_collector.enabled
        else None
    )
    if chip_obs is not None:
        if collectors is not None:
            raise ValueError("pass either collectors or chip_collector, not both")
        if chip_obs.num_sms != n:
            raise ValueError(
                f"chip_collector shaped for {chip_obs.num_sms} SMs, chip has {n}"
            )
        expected_channels = n if cfg.dram_partitioned else cfg.dram_channels
        if chip_obs.num_channels != expected_channels:
            raise ValueError(
                f"chip_collector shaped for {chip_obs.num_channels} DRAM "
                f"channels, chip has {expected_channels}"
            )
        collectors = chip_obs.collectors
    if collectors is None:
        collectors = [None] * n
    if len(collectors) != n:
        raise ValueError(f"need {n} collectors (one per SM), got {len(collectors)}")

    dispatcher = CTADispatcher(len(kernel.ctas), n)
    system = None
    if not cfg.dram_partitioned:
        system = DRAMSystem(
            bytes_per_cycle=cfg.dram_bytes_per_cycle,
            channels=cfg.dram_channels,
            latency=sm_cfg.dram_latency,
            transaction_bytes=sm_cfg.dram_transaction_bytes,
            channel_observer=(
                chip_obs.dram_channel_transfer if chip_obs is not None else None
            ),
            banks=sm_cfg.dram_banks,
            row_bytes=sm_cfg.dram_row_bytes,
            row_hit_latency=sm_cfg.dram_row_hit_latency,
        )

    cores: list[SMCore] = []
    for i in range(n):
        obs = collectors[i] if collectors[i] is not None and collectors[i].enabled else None
        hook = obs.dram_transfer if obs is not None else None
        if system is not None:
            dram = system.port(i, observer=hook)
        else:
            if chip_obs is not None:
                hook = _tee_channel_observer(hook, chip_obs.dram_channel_transfer, i)
            dram = DRAMChannel(
                bytes_per_cycle=cfg.sm_bandwidth_slice,
                latency=sm_cfg.dram_latency,
                transaction_bytes=sm_cfg.dram_transaction_bytes,
                observer=hook,
                banks=sm_cfg.dram_banks,
                row_bytes=sm_cfg.dram_row_bytes,
                row_hit_latency=sm_cfg.dram_row_hit_latency,
            )
        cores.append(
            SMCore(
                i, kernel, partition, sm_cfg, thread_target, dram, obs,
                cta_source=dispatcher.port(i),
            )
        )

    if sm_cfg.engine == "columnar":
        # No tiered warm-up at chip scope: one chip simulation runs the
        # kernel on every SM (instrumented or not), so lowering
        # amortises within the run.  Mark the kernel warm so later
        # single-SM sims replay directly.
        kernel._plan_cache[("colwarm", sm_cfg.cache_line_bytes)] = True
        totals = replay(kernel, sm_cfg, cores, dispatcher, chip_obs)
    else:
        totals = _run_chip_event(kernel, sm_cfg, cores, dispatcher, chip_obs)

    if dispatcher.remaining:
        raise SimulationError(f"{dispatcher.remaining} CTAs were never dispatched")

    chip_cycles = max(core.end_cycle() for core in cores)
    # Every SM's collector is finished at the chip makespan, so per-SM
    # stall attribution conserves against chip time.
    per_sm: list[SimResult] = [
        core.result(kernel, partition, tot, chip_cycles)
        for core, tot in zip(cores, totals)
    ]
    if chip_obs is not None:
        chip_obs.finish(chip_cycles)

    chip_notes: dict = {}
    if sm_cfg.non_blocking:
        memsys = {
            "mshr_entries": sm_cfg.mshr_entries,
            "primary_misses": sum(c.mshr.primary_misses for c in cores),
            "secondary_merges": sum(c.mshr.secondary_merges for c in cores),
            "full_stalls": sum(c.mshr.full_stalls for c in cores),
            "full_stall_cycles": sum(c.mshr.full_stall_cycles for c in cores),
        }
        if system is not None:
            memsys["dram_row_hits"] = system.row_hits
            memsys["dram_row_misses"] = system.row_misses
        else:
            memsys["dram_row_hits"] = sum(c.dram.row_hits for c in cores)
            memsys["dram_row_misses"] = sum(c.dram.row_misses for c in cores)
        chip_notes["memsys"] = memsys

    return ChipResult(
        kernel=kernel.name,
        partition=partition,
        config=cfg,
        cycles=chip_cycles,
        per_sm=per_sm,
        ctas_per_sm=[len(a) for a in dispatcher.assignments],
        dram_channel_bytes=list(system.channel_bytes) if system is not None else [],
        notes=chip_notes,
    )
