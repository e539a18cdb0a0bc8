"""Compiling an interned trace: shared ops in, identical kernel out."""

import dataclasses

import pytest

from repro.compiler import compile_kernel, max_live_registers
from repro.compiler.liveness import ShapeKeys
from repro.isa import CTATrace, KernelTrace
from repro.kernels import get_benchmark


def _deinterned(trace: KernelTrace) -> KernelTrace:
    """A copy of ``trace`` with a fresh ``WarpOp`` for every dynamic op."""
    ctas = [
        CTATrace([[dataclasses.replace(op) for op in warp] for warp in cta.warps])
        for cta in trace.ctas
    ]
    return KernelTrace(trace.name, trace.launch, ctas, uses_texture=trace.uses_texture)


@pytest.mark.parametrize("name", ["vectoradd", "needle", "dgemm", "bfs", "hotspot"])
@pytest.mark.parametrize("spill", [False, True], ids=["no-spill", "spilling"])
def test_interned_and_deinterned_compile_equal(name, spill):
    trace = get_benchmark(name).build("tiny")
    copy = _deinterned(trace)
    assert len({id(op) for op in copy.iter_ops()}) == copy.total_ops
    regs = None
    if spill:
        regs = max(4, compile_kernel(trace).max_live // 2)
    shared = compile_kernel(trace, regs)
    fresh = compile_kernel(copy, regs)
    assert shared == fresh
    if spill:
        assert shared.spill_slots > 0
    # Warps that share a source op at one schedule position share its
    # compiled op, so the interned compile holds fewer distinct objects.
    ops = [op for cta in shared.ctas for w in cta.warps for op in w.ops]
    assert len({id(op) for op in ops}) < len(ops)


def test_rf_traffic_is_per_warp_copy():
    ck = compile_kernel(get_benchmark("vectoradd").build("tiny"))
    a, b = ck.ctas[0].warps[0].rf_traffic, ck.ctas[-1].warps[-1].rf_traffic
    assert a == b and a is not b


class TestShapeKeys:
    def test_keys_follow_register_shape_not_addresses(self):
        trace = get_benchmark("vectoradd").build("tiny")
        warps = [w for cta in trace.ctas for w in cta.warps]
        shapes = ShapeKeys()
        keys = [shapes.key(w) for w in warps]
        for w, k in zip(warps, keys):
            for v, j in zip(warps, keys):
                same = [(o.op, o.dst, o.srcs) for o in w] == [(o.op, o.dst, o.srcs) for o in v]
                assert (k == j) == same
        # Interned or not, a stream keys the same within one table.
        assert shapes.key([dataclasses.replace(op) for op in warps[0]]) == keys[0]

    @pytest.mark.parametrize("name", ["needle", "dgemm", "bfs"])
    def test_max_live_matches_per_warp_liveness(self, name):
        trace = get_benchmark(name).build("tiny")
        warps = [w for cta in trace.ctas for w in cta.warps]
        shapes = ShapeKeys()
        for w in warps:
            assert shapes.max_live(w) == max_live_registers(w)
        assert shapes.peak(warps) == max(max_live_registers(w) for w in warps)
        assert shapes.peak([]) == 0
