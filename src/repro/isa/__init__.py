"""Warp-level mini-ISA used throughout the reproduction.

The paper's evaluation is trace-driven (Section 5.1): Ocelot produced
execution and address traces which a custom single-SM simulator consumed.
We substitute Ocelot with algorithmic trace generators (see
:mod:`repro.kernels`), and this package defines the trace vocabulary they
emit:

* :class:`~repro.isa.opcodes.OpClass` -- instruction classes with the
  Table 2 latency semantics (ALU, SFU, global/shared/local memory, TEX,
  barriers).
* :class:`~repro.isa.trace.WarpOp` -- one dynamic warp instruction over
  *virtual* registers, with per-thread byte addresses for memory ops.
* :class:`~repro.isa.trace.OpTable` -- the per-trace intern table that
  makes equal ops one shared object, in built and loaded traces alike.
* :class:`~repro.isa.builder.WarpBuilder` -- a small construction API that
  kernels use to emit SSA-style instruction streams.
* :class:`~repro.isa.kernel.KernelInfo` / :class:`~repro.isa.kernel.KernelTrace`
  -- static metadata (registers/thread, shared memory/thread, CTA shape)
  plus the per-CTA, per-warp dynamic instruction streams.

Traces are recorded at warp granularity because every model in the paper
that we reproduce (bank conflicts, coalescing, scheduling, energy counts)
operates on warp instructions, never on individual threads.
"""

from repro.isa.builder import WarpBuilder
from repro.isa.kernel import CTATrace, KernelInfo, KernelTrace, LaunchConfig
from repro.isa.opcodes import MemSpace, OpClass
from repro.isa.trace import OpTable, WarpOp

__all__ = [
    "CTATrace",
    "KernelInfo",
    "KernelTrace",
    "LaunchConfig",
    "MemSpace",
    "OpClass",
    "OpTable",
    "WarpBuilder",
    "WarpOp",
]
