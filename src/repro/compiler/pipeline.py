"""Compilation pipeline: trace -> spill schedule -> hierarchy tags -> CompiledKernel.

Warps of data-parallel kernels usually share one register *shape* (same
ops and registers, different addresses), so the expensive passes --
liveness, register allocation, hierarchy tagging, bank relabelling and
the RF-traffic totals -- run once per distinct shape
(:class:`~repro.compiler.liveness.ShapeKeys` keys each warp once).  Their
results are re-materialised per warp with that warp's addresses and
spill-slot locations; on an interned trace
(:class:`~repro.isa.trace.OpTable`) warps that share a source op at the
same schedule position share one ``CompiledOp`` too.

Spilled values are addressed in an interleaved thread-local layout,
matching how real GPUs lay out local memory so that a warp's accesses to
the same spill slot coalesce into a single 128-byte line:

    addr = LOCAL_BASE + warp_uid * warp_stride + slot * 128 + lane * 4
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.compiled import (
    CompiledCTA,
    CompiledKernel,
    CompiledOp,
    CompiledWarp,
    RFTrafficCounts,
)
from repro.compiler.bankassign import assign_banks, remap_shape
from repro.compiler.liveness import ShapeKeys
from repro.compiler.regalloc import Fill, Rewrite, ShapeOp, Spill, schedule_registers
from repro.compiler.rfhierarchy import tag_hierarchy
from repro.isa.kernel import KernelTrace
from repro.isa.opcodes import OpClass
from repro.isa.trace import WARP_SIZE, WarpOp

#: Base of the thread-local (spill) address region.  Kernels place their
#: data well below this, so spill traffic never aliases kernel data.
LOCAL_BASE = 1 << 40

#: Bytes reserved per spill slot per warp: 32 lanes x 4 bytes.
SLOT_BYTES = 4 * WARP_SIZE


@dataclass(slots=True)
class _ShapeCompilation:
    """Cached result of compiling one register shape."""

    #: Index into the warp's ops of each schedule position's source op:
    #: the rewritten op, or the op a fill/spill is placed at.
    sources: list[int]
    #: Spill slot of each fill/spill position, ``None`` for rewritten ops.
    spills: list[int | None]
    num_slots: int
    regs_used: int
    #: Address-independent ``CompiledOp`` fields per schedule position
    #: (everything but ``addrs`` and ``active``).
    fields: list[tuple]
    #: RF-hierarchy traffic of one warp of this shape (shape-only).
    traffic: RFTrafficCounts
    #: ``(position, id(source WarpOp)) -> CompiledOp`` for rewritten ops.
    #: Keys use op identity, so the memo lives only as long as the
    #: owning :class:`_ShapeCache` -- one compile call, during which the
    #: trace keeps every source op alive.
    memo: dict[tuple[int, int], CompiledOp]


class _ShapeCache:
    def __init__(self, num_regs: int, orf_entries: int) -> None:
        self.num_regs = num_regs
        self.orf_entries = orf_entries
        self._cache: dict[tuple, _ShapeCompilation] = {}

    def compile(self, ops: list[WarpOp], key: tuple[int, ...]) -> _ShapeCompilation:
        """Compile the shape of ``ops``; ``key`` is its :class:`ShapeKeys` key."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        shape: list[ShapeOp] = [(op.op, op.dst, op.srcs) for op in ops]
        schedule = schedule_registers(shape, self.num_regs)
        arch_shape: list[ShapeOp] = []
        for entry in schedule.entries:
            if isinstance(entry, Fill):
                arch_shape.append((OpClass.LOAD_LOCAL, entry.reg, ()))
            elif isinstance(entry, Spill):
                arch_shape.append((OpClass.STORE_LOCAL, None, (entry.reg,)))
            else:
                arch_shape.append((shape[entry.index][0], entry.dst, entry.srcs))
        tags = tag_hierarchy(arch_shape, orf_entries=self.orf_entries)
        # Bank-aware relabelling (the compiler technique of ref [27] the
        # paper relies on for its "bank conflicts are rare" baseline).
        mapping = assign_banks(arch_shape, tags, self.num_regs)
        arch_shape, tags = remap_shape(arch_shape, tags, mapping)
        fields = []
        traffic = RFTrafficCounts()
        for (op_class, dst, srcs), tag in zip(arch_shape, tags):
            mrf_writes = (dst,) if (tag.mrf_write and dst is not None) else ()
            fields.append((
                op_class, dst, srcs, tag.mrf_reads, mrf_writes,
                tag.lrf_reads, tag.orf_reads,
                1 if tag.lrf_write else 0, 1 if tag.orf_write else 0,
            ))
            traffic.mrf_reads += len(tag.mrf_reads)
            traffic.mrf_writes += len(mrf_writes)
            traffic.orf_reads += tag.orf_reads
            traffic.lrf_reads += tag.lrf_reads
            traffic.orf_writes += 1 if tag.orf_write else 0
            traffic.lrf_writes += 1 if tag.lrf_write else 0
        result = _ShapeCompilation(
            sources=[e.index if type(e) is Rewrite else e.at for e in schedule.entries],
            spills=[None if type(e) is Rewrite else e.slot for e in schedule.entries],
            num_slots=schedule.num_slots,
            regs_used=schedule.regs_used,
            fields=fields,
            traffic=traffic,
            memo={},
        )
        self._cache[key] = result
        return result


def _materialise(
    ops: list[WarpOp],
    comp: _ShapeCompilation,
    warp_uid: int,
    warp_stride: int,
) -> CompiledWarp:
    """Instantiate a cached shape compilation for one concrete warp.

    A rewritten op depends only on its schedule position and its source
    op, so warps sharing source ops (interned traces) share one
    ``CompiledOp``.  Spill and fill ops address this warp's own slots
    and are built per warp.
    """
    local_base = LOCAL_BASE + warp_uid * warp_stride
    memo = comp.memo
    fields = comp.fields
    spills = comp.spills

    def miss(pos: int, src_op: WarpOp) -> CompiledOp:
        active = src_op.active
        slot = spills[pos]
        if slot is None:
            cop = memo[pos, id(src_op)] = CompiledOp(*fields[pos], src_op.addrs, active)
            return cop
        base = local_base + slot * SLOT_BYTES
        return CompiledOp(*fields[pos], tuple(range(base, base + 4 * active, 4)), active)

    # Spill/fill positions are never memoised, so they always miss.
    compiled = [
        memo.get((pos, id(src_op))) or miss(pos, src_op)
        for pos, src_op in enumerate(map(ops.__getitem__, comp.sources))
    ]
    t = comp.traffic
    return CompiledWarp(
        ops=compiled,
        regs_used=comp.regs_used,
        spill_slots=comp.num_slots,
        rf_traffic=RFTrafficCounts(
            t.mrf_reads, t.mrf_writes, t.orf_reads, t.orf_writes, t.lrf_reads, t.lrf_writes
        ),
    )


def compile_warp(
    ops: list[WarpOp], num_regs: int, warp_uid: int = 0, orf_entries: int | None = None
) -> CompiledWarp:
    """Compile a single warp stream (convenience entry point for tests)."""
    from repro.compiler.rfhierarchy import ORF_ENTRIES

    cache = _ShapeCache(num_regs, ORF_ENTRIES if orf_entries is None else orf_entries)
    comp = cache.compile(ops, ShapeKeys().key(ops))
    stride = max(comp.num_slots, 1) * SLOT_BYTES
    return _materialise(ops, comp, warp_uid, stride)


def compile_kernel(
    trace: KernelTrace,
    regs_per_thread: int | None = None,
    orf_entries: int | None = None,
) -> CompiledKernel:
    """Lower a kernel trace onto a register budget.

    Args:
        trace: Kernel trace over virtual registers.
        regs_per_thread: Architectural register budget.  ``None`` uses
            the kernel's own peak liveness (the no-spill allocation of
            Table 1, column 2).
        orf_entries: ORF capacity per thread; ``None`` uses the paper's
            4 entries, 0 disables the LRF/ORF hierarchy entirely (the
            Section 6.1 "key enabler" ablation).

    Returns:
        A :class:`~repro.compiler.compiled.CompiledKernel` with spill
        code inserted and every operand tagged with its RF-hierarchy
        level.
    """
    # Each warp's shape key is computed once and serves liveness, the
    # shape cache and (through it) the per-shape traffic totals.
    warps = [w for cta in trace.ctas for w in cta.warps]
    shapes = ShapeKeys()
    keys = [shapes.key(w) for w in warps]
    max_live = max(map(shapes.max_live, warps, keys), default=0)
    budget = max_live if regs_per_thread is None else regs_per_thread
    if budget <= 0:
        raise ValueError("register budget must be positive")
    from repro.compiler.rfhierarchy import ORF_ENTRIES

    cache = _ShapeCache(budget, ORF_ENTRIES if orf_entries is None else orf_entries)
    # First pass: compile all shapes to learn the kernel-wide slot count,
    # which fixes the per-warp local-memory stride.
    compilations = [cache.compile(w, k) for w, k in zip(warps, keys)]
    max_slots = max((c.num_slots for c in compilations), default=0)
    warp_stride = max(max_slots, 1) * SLOT_BYTES
    compiled = [
        _materialise(w, comp, warp_uid, warp_stride)
        for warp_uid, (w, comp) in enumerate(zip(warps, compilations))
    ]
    per_cta = trace.launch.warps_per_cta
    ctas = [
        CompiledCTA(compiled[i:i + per_cta]) for i in range(0, len(compiled), per_cta)
    ]
    return CompiledKernel(
        name=trace.name,
        launch=trace.launch,
        ctas=ctas,
        regs_per_thread=budget,
        max_live=max_live,
        uses_texture=trace.uses_texture,
    )
