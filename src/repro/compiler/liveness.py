"""Liveness analysis over warp instruction streams.

Kernels emit dynamic straight-line streams (control flow is already
resolved in the trace), so liveness is exact: the live interval of a
virtual register spans from its first definition to its last appearance
(read or write).  The peak number of overlapping intervals is the
registers-per-thread requirement to avoid spills -- Table 1, column 2 of
the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.isa.trace import WarpOp


def live_intervals(ops: Sequence[WarpOp]) -> dict[int, tuple[int, int]]:
    """Map each virtual register to its ``(first, last)`` position.

    Positions index into ``ops``.  Registers that are read before any
    write (undefined reads) are rejected -- kernels must produce every
    value they consume.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, op in enumerate(ops):
        for r in op.srcs:
            if r not in first:
                raise ValueError(f"op {i} reads virtual register {r} before definition")
            last[r] = i
        if op.dst is not None:
            first.setdefault(op.dst, i)
            last[op.dst] = i
    return {r: (first[r], last[r]) for r in first}


def max_live_registers(ops: Sequence[WarpOp]) -> int:
    """Peak simultaneous live values -- the no-spill register requirement.

    An instruction's sources and destination are live simultaneously
    (the destination is written while sources are still being read), so
    the peak is measured *at* each instruction, counting intervals that
    cover it.
    """
    intervals = live_intervals(ops)
    if not intervals:
        return 0
    events: list[tuple[int, int]] = []
    for start, end in intervals.values():
        events.append((start, 1))
        events.append((end + 1, -1))
    events.sort()
    live = peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


class ShapeKeys:
    """Register-shape keys, and peak liveness computed once per shape.

    A warp's *register shape* is its ``(op, dst, srcs)`` sequence;
    warps of data-parallel kernels mostly differ only in addresses, so
    a kernel has a few dozen shapes across thousands of warps.  Two
    streams get equal keys iff their shapes are equal.  A key is a
    tuple of small ints: each op *object* is resolved to its shape-op
    ordinal once and remembered by identity, so on an interned trace
    (:class:`repro.isa.trace.OpTable`) keying a warp costs one dict
    probe per dynamic op.  Keyed ops are pinned for the instance's
    lifetime, so an identity can never be reused by a new object.
    """

    __slots__ = ("_ordinal", "_pinned", "_shape_ops", "_live")

    def __init__(self) -> None:
        self._ordinal: dict[int, int] = {}
        self._pinned: list[WarpOp] = []
        self._shape_ops: dict[tuple, int] = {}
        self._live: dict[tuple[int, ...], int] = {}

    def key(self, ops: Sequence[WarpOp]) -> tuple[int, ...]:
        """Hashable register-shape key of one warp stream."""
        get = self._ordinal.get
        key = tuple(map(get, map(id, ops)))
        if None in key:
            # Ordinals start at 1, so a miss is the only falsy lookup.
            key = tuple([get(id(op)) or self._resolve(op) for op in ops])
        return key

    def _resolve(self, op: WarpOp) -> int:
        shape_ops = self._shape_ops
        i = shape_ops.setdefault((op.op, op.dst, op.srcs), len(shape_ops) + 1)
        self._ordinal[id(op)] = i
        self._pinned.append(op)
        return i

    def max_live(self, ops: Sequence[WarpOp], key: tuple[int, ...] | None = None) -> int:
        """:func:`max_live_registers` of ``ops``, computed once per shape.

        ``key`` is ``self.key(ops)`` when the caller already has it.
        """
        if key is None:
            key = self.key(ops)
        peak = self._live.get(key)
        if peak is None:
            peak = self._live[key] = max_live_registers(ops)
        return peak

    def peak(self, warps: Iterable[Sequence[WarpOp]]) -> int:
        """Largest :meth:`max_live` over ``warps`` (0 for none)."""
        return max((self.max_live(w) for w in warps), default=0)


def next_use_table(shape: Sequence[tuple]) -> dict[int, list[int]]:
    """Positions at which each virtual register is *read*, in order.

    ``shape`` is the register shape of a stream: ``(opclass, dst, srcs)``
    tuples.  Used by the spill scheduler for Belady eviction.
    """
    uses: dict[int, list[int]] = {}
    for i, (_, _, srcs) in enumerate(shape):
        for r in srcs:
            uses.setdefault(r, []).append(i)
    return uses
