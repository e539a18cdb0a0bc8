"""Round-trip, interning and malformed-file tests for trace serialization."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.io import load_trace, save_trace
from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import OpTable, WarpOp
from repro.kernels import get_benchmark


def _fields(op: WarpOp) -> tuple:
    return (op.op, op.dst, op.srcs, op.addrs, op.active)


def _assert_interned(trace) -> None:
    """Equal ops anywhere in ``trace`` are one object."""
    seen: dict[tuple, WarpOp] = {}
    for op in trace.iter_ops():
        assert seen.setdefault(_fields(op), op) is op


def _tamper(path, **changes) -> None:
    """Rewrite the named arrays of a saved trace in place."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    for name, fn in changes.items():
        arrays[name] = fn(arrays[name])
    np.savez_compressed(path, **arrays)


def _traces_equal(a, b) -> bool:
    if (a.name, a.launch, a.uses_texture) != (b.name, b.launch, b.uses_texture):
        return False
    for ca, cb in zip(a.ctas, b.ctas):
        if ca.warps != cb.warps:
            return False
    return True


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["vectoradd", "needle", "bfs", "bicubictexture"])
    def test_lossless(self, name, tmp_path):
        trace = get_benchmark(name).build("tiny")
        path = tmp_path / f"{name}.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert _traces_equal(trace, loaded)
        assert loaded.total_ops == trace.total_ops

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.compiler import compile_kernel
        from repro.core import partitioned_baseline
        from repro.sm import simulate

        trace = get_benchmark("pcr").build("tiny")
        path = tmp_path / "pcr.npz"
        save_trace(trace, path)
        a = simulate(compile_kernel(trace), partitioned_baseline())
        b = simulate(compile_kernel(load_trace(path)), partitioned_baseline())
        assert a.cycles == b.cycles
        assert a.dram_accesses == b.dram_accesses

    def test_empty_address_tuple_survives(self, tmp_path):
        # A fully-predicated memory op carries addrs=() (present but
        # empty); the v1 format decoded it as None because only the
        # offset arithmetic (a1 > a0) reconstructed presence.
        warp = [
            WarpOp(op=OpClass.ALU, dst=0, srcs=()),
            WarpOp(op=OpClass.LOAD_GLOBAL, dst=1, srcs=(0,), addrs=(), active=0),
            WarpOp(op=OpClass.STORE_GLOBAL, srcs=(1,), addrs=(64,), active=1),
        ]
        trace = KernelTrace(
            "predicated",
            LaunchConfig(threads_per_cta=32, num_ctas=1),
            [CTATrace([warp])],
        )
        path = tmp_path / "predicated.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        ops = loaded.ctas[0].warps[0]
        assert ops[1].addrs == ()
        assert ops[1].active == 0
        assert _traces_equal(trace, loaded)

    @settings(max_examples=25, deadline=None)
    @given(
        warps=st.lists(
            st.one_of(
                st.builds(
                    WarpOp,
                    op=st.just(OpClass.ALU),
                    dst=st.integers(0, 7),
                    srcs=st.tuples(st.integers(0, 7)),
                ),
                st.integers(0, 4).flatmap(
                    lambda n: st.builds(
                        WarpOp,
                        op=st.sampled_from(
                            [OpClass.LOAD_GLOBAL, OpClass.STORE_GLOBAL]
                        ),
                        srcs=st.just((0,)),
                        addrs=st.just(tuple(128 * i for i in range(n))),
                        active=st.just(n),
                    )
                ),
            ),
            min_size=1,
            max_size=6,
        ).flatmap(
            # Two warps drawn from one small pool: ops repeat within and
            # across warps, as the same object or as an equal copy.
            lambda pool: st.lists(
                st.lists(
                    st.tuples(st.sampled_from(pool), st.booleans()).map(
                        lambda t: dataclasses.replace(t[0]) if t[1] else t[0]
                    ),
                    min_size=1,
                    max_size=12,
                ),
                min_size=2,
                max_size=2,
            )
        )
    )
    def test_roundtrip_property(self, warps, tmp_path_factory):
        trace = KernelTrace(
            "prop",
            LaunchConfig(threads_per_cta=64, num_ctas=1),
            [CTATrace(warps)],
        )
        path = tmp_path_factory.mktemp("io") / "prop.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert _traces_equal(trace, loaded)
        _assert_interned(loaded)

    def test_version_check(self, tmp_path):
        trace = get_benchmark("vectoradd").build("tiny")
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_compression_is_effective(self, tmp_path):
        # The flattened arrays compress far below a naive pickle.
        trace = get_benchmark("srad").build("tiny")
        path = tmp_path / "srad.npz"
        save_trace(trace, path)
        # ~11k ops with 32 addresses each; compressed file stays small.
        assert path.stat().st_size < 600_000


class TestInterning:
    @pytest.mark.parametrize("name", ["vectoradd", "needle", "dgemm"])
    def test_built_and_loaded_traces_share_equal_ops(self, name, tmp_path):
        trace = get_benchmark(name).build("tiny")
        _assert_interned(trace)
        path = tmp_path / f"{name}.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        _assert_interned(loaded)
        distinct = {id(op) for op in trace.iter_ops()}
        assert len({id(op) for op in loaded.iter_ops()}) == len(distinct)
        assert len(distinct) < trace.total_ops

    def test_table_builds_validates_and_shares(self):
        table = OpTable()
        key = (OpClass.LOAD_GLOBAL, 1, (0,), (0, 4), 2)
        op = table[key]
        assert op == WarpOp(*key)
        assert table[key] is op
        assert table.intern([WarpOp(*key), op]) == [op, op]
        assert table.intern([WarpOp(*key)])[0] is op
        with pytest.raises(ValueError, match="addresses"):
            table[(OpClass.LOAD_GLOBAL, 1, (0,), (0,), 2)]


def _saved(tmp_path, warp=None):
    warp = warp or [
        WarpOp(op=OpClass.ALU, dst=0, srcs=()),
        WarpOp(op=OpClass.LOAD_GLOBAL, dst=1, srcs=(0,), addrs=(0, 4), active=2),
        WarpOp(op=OpClass.STORE_GLOBAL, srcs=(1,), addrs=(64, 68), active=2),
    ]
    trace = KernelTrace(
        "small", LaunchConfig(threads_per_cta=32, num_ctas=1), [CTATrace([warp])]
    )
    path = tmp_path / "small.npz"
    save_trace(trace, path)
    return path


class TestMalformed:
    """Structural damage raises ValueError instead of decoding silently."""

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"addrs": lambda a: a[:-1]}, "addr_off"),
            ({"srcs": lambda a: a[:-1]}, "src_off"),
            ({"addr_off": lambda a: a[:-1]}, "addr_off"),
            ({"src_off": lambda a: a[[0, 2, 1, 3]]}, "non-decreasing"),
            ({"warp_bounds": lambda a: a[:-1]}, "warp_bounds"),
            ({"warp_bounds": lambda a: a - 1}, "warp_bounds"),
            ({"dst": lambda a: a[:-1]}, "dst"),
            ({"op": lambda a: np.full_like(a, 200)}, "opcode ordinal"),
            ({"has_addrs": lambda a: np.zeros_like(a)}, "address-less"),
        ],
    )
    def test_structure_rejected(self, tmp_path, changes, match):
        path = _saved(tmp_path)
        _tamper(path, **changes)
        with pytest.raises(ValueError, match=match):
            load_trace(path)

    def test_alu_with_addresses_rejected(self, tmp_path):
        path = _saved(tmp_path)
        alu = list(OpClass).index(OpClass.ALU)
        _tamper(path, op=lambda a: np.array([a[0], alu, a[2]], dtype=a.dtype))
        with pytest.raises(ValueError, match="must not carry addresses"):
            load_trace(path)

    def test_active_mismatch_rejected(self, tmp_path):
        path = _saved(tmp_path)
        _tamper(path, active=lambda a: np.array([a[0], 3, a[2]], dtype=a.dtype))
        with pytest.raises(ValueError, match="addresses for 3 active"):
            load_trace(path)

    def test_disk_cache_drops_and_runner_regenerates(self, tmp_path):
        from repro.experiments.artifacts import DiskCache
        from repro.experiments.runner import Runner

        cold = Runner("tiny", cache=DiskCache(tmp_path))
        ref = cold.trace("vectoradd")
        path = cold.cache.trace_path(cold._trace_disk_key("vectoradd", ()))
        _tamper(path, addrs=lambda a: a[:-7], warp_bounds=lambda a: a[:-1])
        with pytest.raises(ValueError):
            load_trace(path)
        warm = Runner("tiny", cache=DiskCache(tmp_path))
        again = warm.trace("vectoradd")
        assert _traces_equal(again, ref)
        assert warm.cache.stats.invalidated == 1
        assert warm.cache.stats.trace_misses == 1
        # The regenerated trace was written back and now loads cleanly.
        assert _traces_equal(load_trace(path), ref)
