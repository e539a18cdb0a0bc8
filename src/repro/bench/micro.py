"""Deterministic microbenchmarks of the simulator's component models.

Each benchmark exercises one hot path -- the bank-conflict models, the
coalescer, the data cache, or a full :func:`repro.sm.simulate` call --
on a fixed synthetic or compiled workload, so timing differences between
two revisions reflect code changes, not input drift.  The returned
metadata pins deterministic facts (op counts, simulated cycles) that
must agree between payloads of behaviour-identical revisions.
"""

from __future__ import annotations

from repro.bench.report import BenchEntry, timed

#: Kernels covered by the per-kernel ``sim.*`` benchmarks: one regular
#: compute kernel, one shared-memory-heavy, one spill-heavy at its paper
#: budget, and one irregular/divergent.
SIM_KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")

#: Iterations chosen so each micro entry runs for tens of milliseconds.
_BANK_ROUNDS = 20
_COALESCE_ROUNDS = 200
_CACHE_ROUNDS = 5


def _bank_workload(scale: str):
    """A mixed compiled-op stream plus per-op line segments.

    Built from the matrixmul kernel (ALU + shared + global mix); the
    compile is deterministic, so every revision benches the same ops.
    """
    from repro.experiments.runner import Runner
    from repro.memory.coalescer import coalesce_lines

    ck = Runner(scale).compiled("matrixmul")
    ops = [op for cta in ck.ctas[:2] for warp in cta.warps for op in warp.ops]
    segments = [
        coalesce_lines(op.addrs, 128) if (op.op.is_memory and op.addrs) else None
        for op in ops
    ]
    return ops, segments


def bench_banks(scale: str, repeats: int) -> list[BenchEntry]:
    """Time the partitioned and unified bank-conflict models."""
    from repro.core import partitioned_baseline
    from repro.core.allocator import allocate_unified
    from repro.core.partition import KB
    from repro.isa.opcodes import MemSpace
    from repro.memory.banks import make_bank_model

    ops, segments = _bank_workload(scale)
    part = partitioned_baseline()
    uni = allocate_unified(
        384 * KB, regs_per_thread=21, threads_per_cta=256, smem_bytes_per_cta=2048
    ).partition

    def run(partition):
        def body():
            banks = make_bank_model(partition)
            for _ in range(_BANK_ROUNDS):
                for op, segs in zip(ops, segments):
                    if op.op.space is MemSpace.SHARED:
                        banks.access(op, shared_base=0)
                    elif op.op.is_memory:
                        banks.access(op, segments=segs)
                    else:
                        banks.access(op)
            return {"accesses": _BANK_ROUNDS * len(ops),
                    "conflict_total": banks.histogram.total}

        return body

    return [
        timed("micro.banks.partitioned", run(part), repeats),
        timed("micro.banks.unified", run(uni), repeats),
    ]


def bench_coalescer(scale: str, repeats: int) -> list[BenchEntry]:
    """Time line/sector coalescing over synthetic warp address patterns."""
    from repro.memory.coalescer import coalesce_lines, coalesce_sectors

    # Unit-stride, strided, and scattered warps -- the three shapes the
    # suite's kernels produce.
    patterns = [
        tuple(4096 + 4 * lane for lane in range(32)),
        tuple(4096 + 64 * lane for lane in range(32)),
        tuple((4096 + 977 * lane * lane) % (1 << 20) for lane in range(32)),
    ]

    def lines():
        n = 0
        for _ in range(_COALESCE_ROUNDS):
            for addrs in patterns:
                n += len(coalesce_lines(addrs))
        return {"segments": n}

    def sectors():
        n = 0
        for _ in range(_COALESCE_ROUNDS):
            for addrs in patterns:
                n += len(coalesce_sectors(addrs))
        return {"sectors": n}

    return [
        timed("micro.coalescer.lines", lines, repeats),
        timed("micro.coalescer.sectors", sectors, repeats),
    ]


def bench_cache(scale: str, repeats: int) -> list[BenchEntry]:
    """Time the data cache on a mixed hit/miss/evict line stream."""
    from repro.memory.cache import DataCache

    # 4 of 5 accesses hit a 256-line hot set (fits the 512-line cache);
    # the rest scan cold lines, forcing misses and LRU evictions.
    lines = [
        (i % 256) * 128 if i % 5 else ((i * 977) % 4096 + 4096) * 128
        for i in range(8192)
    ]

    def body():
        cache = DataCache(64 * 1024)
        hits = 0
        for _ in range(_CACHE_ROUNDS):
            for la in lines:
                if cache.read_line(la):
                    hits += 1
            for la in lines[::7]:
                cache.write_line(la)
        return {"reads": _CACHE_ROUNDS * len(lines), "read_hits": hits}

    return [timed("micro.cache.readwrite", body, repeats)]


def bench_simulate(scale: str, repeats: int) -> list[BenchEntry]:
    """Time full ``simulate()`` calls per kernel under two designs.

    Each entry's first run is cold (pays any per-kernel precomputation);
    subsequent runs re-simulate the same :class:`CompiledKernel`, which
    is the common case inside a capacity sweep.  ``seconds`` is the
    best run; the ``runs`` list keeps the cold time visible.
    """
    from dataclasses import replace

    from repro.core import partitioned_baseline
    from repro.experiments.runner import Runner
    from repro.sm.simulator import mark_warm, simulate

    rn = Runner(scale)
    baseline = partitioned_baseline()
    # The un-suffixed entries run whatever engine the default SMConfig
    # selects (columnar since the replay engine landed); the explicit
    # ``.columnar`` / ``.event`` pair pins each engine so the replayer's
    # advantage -- and any event-loop regression -- stays measured even
    # if the default moves again.
    col_cfg = replace(rn.config, engine="columnar")
    ev_cfg = replace(rn.config, engine="event")
    entries: list[BenchEntry] = []
    for name in SIM_KERNELS:
        ck = rn.compiled(name)
        # Defeat the tiered warm-up: the seam routes a kernel's first
        # uninstrumented sim to the event core, and the ``.columnar``
        # entry must time the replayer even at --repeats 1.
        mark_warm(ck, col_cfg)

        def run_base(ck=ck):
            r = simulate(ck, baseline, rn.config)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.baseline", run_base, repeats))

        def run_col(ck=ck):
            r = simulate(ck, baseline, col_cfg)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.columnar", run_col, repeats))

        def run_ev(ck=ck):
            r = simulate(ck, baseline, ev_cfg)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.event", run_ev, repeats))
        try:
            uni = rn.allocation(name).partition
        except Exception:
            continue

        def run_uni(ck=ck, uni=uni):
            r = simulate(ck, uni, rn.config)
            return {"cycles": r.cycles, "instructions": r.instructions}

        entries.append(timed(f"sim.{name}.unified384", run_uni, repeats))

    # One non-blocking point: the MSHR + banked-DRAM hot-loop arm has its
    # own cost profile (per-segment MSHR lookups, row decode), so time it
    # separately from the blocking baseline it must not slow down.
    nb_cfg = replace(
        rn.config, mshr_entries=16, dram_banks=8, dram_row_hit_latency=160
    )
    ck = rn.compiled("matrixmul")

    def run_nonblocking(ck=ck):
        r = simulate(ck, baseline, nb_cfg)
        return {"cycles": r.cycles, "instructions": r.instructions}

    entries.append(timed("sim.matrixmul.nonblocking", run_nonblocking, repeats))

    # Instrumented per-engine pair: the replay path drives the full
    # observability stack (collector + stall attribution), so its
    # speedup over the instrumented event engine -- the number
    # docs/performance.md quotes -- stays measured.  Non-blocking
    # banked config: the hardest attribution arm (bank/MSHR splitting).
    def run_profiled(cfg):
        def body():
            from repro.obs import Collector

            col = Collector()
            r = simulate(ck, baseline, cfg, collector=col)
            assert col.conservation_errors() == []
            return {"cycles": r.cycles, "instructions": r.instructions,
                    "warps": len(col.warps)}

        return body

    nb_col = replace(nb_cfg, engine="columnar")
    nb_ev = replace(nb_cfg, engine="event")
    entries.append(
        timed("sim.matrixmul.columnar.profiled", run_profiled(nb_col), repeats)
    )
    entries.append(
        timed("sim.matrixmul.event.profiled", run_profiled(nb_ev), repeats)
    )
    return entries


def run_micro(scale: str, repeats: int) -> list[BenchEntry]:
    """Run every microbenchmark group at ``scale``."""
    entries: list[BenchEntry] = []
    entries += bench_coalescer(scale, repeats)
    entries += bench_cache(scale, repeats)
    entries += bench_banks(scale, repeats)
    entries += bench_simulate(scale, repeats)
    return entries
