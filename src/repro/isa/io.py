"""Kernel-trace serialization.

Traces are the expensive artefact of this pipeline (the Ocelot-
equivalent step); persisting them lets a workstation generate once and a
CI sweep re-simulate many configurations, exactly how the paper's
trace-driven methodology separates tracing from simulation.

Format: a single compressed ``.npz`` holding the launch metadata plus
five parallel numpy arrays encoding every warp instruction:

* ``op``        -- opcode ordinal (uint8)
* ``dst``       -- destination vreg + 1, 0 for none (int32)
* ``srcs``      -- flattened source registers with ``src_off`` offsets
* ``addrs``     -- flattened byte addresses with ``addr_off`` offsets
* ``has_addrs`` -- 1 if the op carries an address tuple (uint8); this
  distinguishes an *empty* tuple (a fully-predicated memory op) from
  ``None``, which offset arithmetic alone cannot
* ``bounds``    -- (cta, warp) boundaries as op counts

The encoding is lossless: ``load(save(trace))`` reproduces the trace
exactly, including empty-but-present address tuples (verified by
property test).

Decoding is column-at-once.  :func:`load_trace` first checks the column
structure (lengths, offset spans, warp bounds, opcode range) and raises
``ValueError`` on any mismatch, then converts each array to a Python
sequence once and slices it.  Ops go through a per-trace
:class:`~repro.isa.trace.OpTable`, so each *distinct* op is built and
validated by :class:`~repro.isa.trace.WarpOp` once and every repeat is
the same shared object -- the same sharing
:func:`repro.kernels.base.build_kernel_trace` gives freshly built
traces.  Warps are slices of one flat op list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.isa.kernel import CTATrace, KernelTrace, LaunchConfig
from repro.isa.opcodes import OpClass
from repro.isa.trace import OpTable

_OPCODES = list(OpClass)
_OP_INDEX = {op: i for i, op in enumerate(_OPCODES)}
_COLUMNS = (
    "op", "dst", "srcs", "src_off", "addrs", "addr_off", "has_addrs", "active",
    "warp_bounds",
)

#: Bumped to 2 when the explicit ``has_addrs`` flag was added; version-1
#: files decoded ``addrs=()`` as ``addrs=None`` and are rejected.
FORMAT_VERSION = 2


def save_trace(trace: KernelTrace, path: str | Path) -> None:
    """Write a kernel trace to ``path`` (``.npz``)."""
    ops: list[int] = []
    dsts: list[int] = []
    srcs: list[int] = []
    src_off: list[int] = [0]
    addrs: list[int] = []
    addr_off: list[int] = [0]
    has_addrs: list[int] = []
    actives: list[int] = []
    warp_bounds: list[int] = [0]
    total = 0
    for cta in trace.ctas:
        for warp in cta.warps:
            for op in warp:
                ops.append(_OP_INDEX[op.op])
                dsts.append(0 if op.dst is None else op.dst + 1)
                srcs.extend(op.srcs)
                src_off.append(len(srcs))
                if op.addrs is not None:
                    addrs.extend(op.addrs)
                addr_off.append(len(addrs))
                has_addrs.append(op.addrs is not None)
                actives.append(op.active)
                total += 1
            warp_bounds.append(total)
    meta = {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "threads_per_cta": trace.launch.threads_per_cta,
        "num_ctas": trace.launch.num_ctas,
        "smem_bytes_per_cta": trace.launch.smem_bytes_per_cta,
        "uses_texture": trace.uses_texture,
        "warps_per_cta": trace.launch.warps_per_cta,
        "opcodes": [op.value for op in _OPCODES],
    }
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        op=np.asarray(ops, dtype=np.uint8),
        dst=np.asarray(dsts, dtype=np.int32),
        srcs=np.asarray(srcs, dtype=np.int32),
        src_off=np.asarray(src_off, dtype=np.int64),
        addrs=np.asarray(addrs, dtype=np.int64),
        addr_off=np.asarray(addr_off, dtype=np.int64),
        has_addrs=np.asarray(has_addrs, dtype=np.uint8),
        active=np.asarray(actives, dtype=np.uint8),
        warp_bounds=np.asarray(warp_bounds, dtype=np.int64),
    )


def _check_columns(meta: dict, cols: dict[str, np.ndarray]) -> None:
    """Reject a file whose columns do not describe ``meta``'s launch.

    Decoding slices Python lists, which silently truncate past their
    end, so every structural fact the slices rely on is checked here.
    """
    n = len(cols["op"])
    for name in ("dst", "has_addrs", "active"):
        if len(cols[name]) != n:
            raise ValueError(f"column {name!r} has {len(cols[name])} entries for {n} ops")
    for off, flat in (("src_off", "srcs"), ("addr_off", "addrs")):
        offsets = cols[off]
        if len(offsets) != n + 1:
            raise ValueError(f"{off} has {len(offsets)} entries for {n} ops")
        if offsets[0] != 0 or offsets[-1] != len(cols[flat]):
            raise ValueError(f"{off} does not span {flat} ({len(cols[flat])} entries)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError(f"{off} is not non-decreasing")
    if np.any((cols["has_addrs"] == 0) & (np.diff(cols["addr_off"]) != 0)):
        raise ValueError("addresses stored for an op flagged as address-less")
    bounds = cols["warp_bounds"]
    warps = meta["num_ctas"] * meta["warps_per_cta"]
    if len(bounds) != warps + 1:
        raise ValueError(f"warp_bounds has {len(bounds)} entries for {warps} warps")
    if bounds[0] != 0 or bounds[-1] != n or np.any(np.diff(bounds) < 0):
        raise ValueError(f"warp_bounds do not partition the {n} ops")
    if n and int(cols["op"].max()) >= len(_OPCODES):
        raise ValueError(f"opcode ordinal {int(cols['op'].max())} out of range")


def load_trace(path: str | Path) -> KernelTrace:
    """Read a kernel trace written by :func:`save_trace`.

    Raises:
        ValueError: The file's version, opcode table or column structure
            does not match this build, or a stored op violates a
            :class:`~repro.isa.trace.WarpOp` invariant.
    """
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')!r}"
            )
        stored_ops = meta["opcodes"]
        current = [op.value for op in _OPCODES]
        if stored_ops != current:
            raise ValueError("opcode table mismatch; trace written by another build")
        cols = {name: data[name] for name in _COLUMNS}
    _check_columns(meta, cols)
    # One conversion per column, then plain tuple slicing: per-element
    # numpy indexing costs more than everything else in the decode.
    src_off = cols["src_off"].tolist()
    addr_off = cols["addr_off"].tolist()
    srcs = tuple(cols["srcs"].tolist())
    addrs = tuple(cols["addrs"].tolist())
    table = OpTable()
    ops = [
        table[(
            opc,
            None if d == 0 else d - 1,
            srcs[s0:s1],
            addrs[a0:a1] if has else None,
            act,
        )]
        for opc, d, s0, s1, has, a0, a1, act in zip(
            [_OPCODES[i] for i in cols["op"].tolist()],
            cols["dst"].tolist(),
            src_off,
            src_off[1:],
            cols["has_addrs"].tolist(),
            addr_off,
            addr_off[1:],
            cols["active"].tolist(),
        )
    ]

    launch = LaunchConfig(
        threads_per_cta=meta["threads_per_cta"],
        num_ctas=meta["num_ctas"],
        smem_bytes_per_cta=meta["smem_bytes_per_cta"],
    )
    warps_per_cta = meta["warps_per_cta"]
    bounds = cols["warp_bounds"].tolist()
    ctas = [
        CTATrace(
            [
                ops[bounds[w]:bounds[w + 1]]
                for w in range(c * warps_per_cta, (c + 1) * warps_per_cta)
            ]
        )
        for c in range(meta["num_ctas"])
    ]
    return KernelTrace(
        meta["name"], launch, ctas, uses_texture=meta["uses_texture"]
    )
