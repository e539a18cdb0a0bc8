"""Single-SM timing simulator.

Reproduces the paper's custom trace-driven SM simulator (Section 5.1):

* one SM, in-order, single-issue, 32-wide SIMT (Table 2);
* Table 2 latencies: ALU 8, SFU 20, shared memory 20, texture 400,
  DRAM 400 cycles, with 8 bytes/cycle of DRAM bandwidth (the SM's share
  of chip bandwidth);
* bank conflicts charged with the paper's simplified per-warp-instruction
  model (Section 6.1) via :mod:`repro.memory.banks`;
* CTA-granular occupancy against a
  :class:`~repro.core.partition.MemoryPartition`, with new CTAs launched
  as resident ones retire;
* CTA-wide barriers, write-through caching, and per-sector DRAM
  accounting.

The engine is event-driven rather than cycle-stepped: a warp's next
issue time is fully determined when its previous instruction issues
(dependences, barrier releases, and memory completions are all known),
so the simulator pops the earliest-ready warp from a heap and serialises
it on the single issue port.  This is exact for the modelled machine and
keeps pure-Python simulation fast enough to sweep the paper's full
design space.  Two engines implement that contract bit-identically, each
with one loop that runs one SM or a chip's N: the per-op event loop
(:func:`repro.sm.simulator.run_event`) and the columnar replayer
(:func:`repro.sm.replay.replay`); ``SMConfig.engine`` picks one.

The two-level warp scheduler of the baseline (ref [8]) is represented at
compile time: the RF-hierarchy pass flushes LRF/ORF values to the MRF at
every deschedule point, which is the architecturally visible effect of
descheduling.  Issue arbitration itself uses ready-time order (oldest
ready first), which prior work shows performs equivalently to the
two-level scheme it approximates.
"""

from repro.sm.config import SMConfig
from repro.sm.result import EnergyCounts, SimResult
from repro.sm.simulator import SimulationError, simulate

__all__ = ["EnergyCounts", "SMConfig", "SimResult", "SimulationError", "simulate"]
