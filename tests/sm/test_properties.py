"""Property-based invariants of the SM simulator.

Random small kernels (mixed ALU/SFU/memory/barrier content) are run
under random partitions; the invariants below must hold for every one:
conservation of work, monotonicity of the clock, determinism, and
consistency of the traffic counters.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import ChipConfig, simulate_chip
from repro.compiler import compile_kernel
from repro.core import DesignStyle, MemoryPartition, partitioned_baseline
from repro.core.partition import KB
from repro.isa import CTATrace, KernelTrace, LaunchConfig, WarpBuilder
from repro.sm import SMConfig, simulate


@st.composite
def small_kernels(draw):
    n_warps = draw(st.integers(1, 4))
    n_ctas = draw(st.integers(1, 3))
    n_blocks = draw(st.integers(1, 6))
    use_barriers = draw(st.booleans())
    smem_words = 64

    def warp(cta: int, w: int) -> list:
        b = WarpBuilder()
        v = b.iconst()
        for blk in range(n_blocks):
            kind = (blk + cta + w) % 4
            base = ((cta * 7 + w * 3 + blk) * 128) % (1 << 16)
            if kind == 0:
                v = b.alu(v, b.iconst())
            elif kind == 1:
                v = b.load_global([base + 4 * t for t in range(32)], v)
            elif kind == 2:
                b.store_shared([4 * ((blk * 32 + t) % smem_words) for t in range(32)], v)
                v = b.load_shared([4 * ((blk + t) % smem_words) for t in range(32)])
            else:
                v = b.sfu(v)
            if use_barriers:
                b.barrier()
        b.store_global([(1 << 20) + (cta * n_warps + w) * 128 + 4 * t for t in range(32)], v)
        return b.ops

    lc = LaunchConfig(
        threads_per_cta=32 * n_warps,
        num_ctas=n_ctas,
        smem_bytes_per_cta=4 * smem_words,
    )
    ctas = [CTATrace([warp(c, w) for w in range(n_warps)]) for c in range(n_ctas)]
    return KernelTrace("prop", lc, ctas)


partitions = st.sampled_from(
    [
        partitioned_baseline(),
        MemoryPartition(DesignStyle.PARTITIONED, 64 * KB, 16 * KB, 0),
        MemoryPartition(DesignStyle.UNIFIED, 128 * KB, 64 * KB, 192 * KB),
        MemoryPartition(DesignStyle.UNIFIED, 64 * KB, 16 * KB, 16 * KB),
        MemoryPartition(DesignStyle.FERMI_LIKE, 256 * KB, 96 * KB, 32 * KB),
    ]
)


@given(trace=small_kernels(), partition=partitions)
@settings(max_examples=40, deadline=None)
def test_work_conservation_and_clock(trace, partition):
    ck = compile_kernel(trace)
    r = simulate(ck, partition)
    # Every instruction issues exactly once.
    assert r.instructions == ck.total_ops
    # The clock can never beat one instruction per cycle.
    assert r.cycles >= r.instructions
    # Traffic counters are consistent.
    assert r.dram_bytes * 8 == r.energy_counts.dram_bits
    assert r.cache_stats.reads + r.cache_stats.writes >= 0
    if partition.cache_bytes == 0:
        assert r.cache_stats.read_hits == 0


@given(trace=small_kernels(), partition=partitions)
@settings(max_examples=20, deadline=None)
def test_determinism(trace, partition):
    # The first simulate() is the event core (tiered warm-up), the second
    # the columnar replayer, the third the event core as a 1-SM chip: all
    # three must agree on every field of the result.
    ck = compile_kernel(trace)
    cfg = SMConfig()
    a = simulate(ck, partition, cfg)
    b = simulate(ck, partition, cfg)
    chip = ChipConfig.single_sm(replace(cfg, engine="event"))
    c = simulate_chip(ck, partition, chip).per_sm[0]
    assert a.cycles == b.cycles == c.cycles
    assert a == b
    assert a == c


@given(trace=small_kernels())
@settings(max_examples=20, deadline=None)
def test_more_threads_never_increase_total_work(trace):
    ck = compile_kernel(trace)
    base = partitioned_baseline()
    wide = simulate(ck, base)
    narrow = simulate(ck, base, thread_target=trace.launch.threads_per_cta)
    assert wide.instructions == narrow.instructions
    # Narrower residency can only slow things down or tie.
    assert narrow.cycles >= wide.cycles - 1e-9


@given(trace=small_kernels(), latency=st.sampled_from([0, 100, 400, 1000]))
@settings(max_examples=20, deadline=None)
def test_dram_latency_monotonicity(trace, latency):
    ck = compile_kernel(trace)
    fast = simulate(ck, partitioned_baseline(), SMConfig(dram_latency=latency))
    slow = simulate(ck, partitioned_baseline(), SMConfig(dram_latency=latency + 200))
    assert slow.cycles >= fast.cycles - 1e-9
    assert slow.dram_accesses == fast.dram_accesses
