"""SM simulation parameters (paper Table 2)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import MAX_THREADS


@dataclass(frozen=True, slots=True)
class SMConfig:
    """Latency and bandwidth parameters of one SM.

    Defaults reproduce Table 2 of the paper.  ``cache_hit_latency`` is
    not listed there; we use the shared-memory latency, as both paths go
    through the same crossbar and banks.
    """

    alu_latency: int = 8
    sfu_latency: int = 20
    shared_latency: int = 20
    cache_hit_latency: int = 20
    tex_latency: int = 400
    dram_latency: int = 400
    dram_bytes_per_cycle: float = 8.0
    dram_transaction_bytes: int = 32
    cache_assoc: int = 4
    cache_line_bytes: int = 128
    max_threads: int = MAX_THREADS
    #: Cycles between the last warp arriving at a CTA barrier and the
    #: released warps issuing again: pipeline drain plus the two-level
    #: scheduler moving the warps back into the active set (ref [8]).
    barrier_latency: int = 72
    #: Optional runtime model of the two-level warp scheduler (ref [8]):
    #: a warp stalling longer than ``deschedule_threshold`` cycles is
    #: moved to the inactive set and pays ``deschedule_latency`` extra
    #: cycles on reactivation.  Default 0 = the prior work's finding
    #: that swapping costs no performance; raise it to stress-test that
    #: claim (see ``ablations`` and the two-level scheduler tests).
    deschedule_latency: int = 0
    deschedule_threshold: int = 40
    #: Enforce the strict one-bank-per-cluster crossbar port of the
    #: Section 4.2 "simple design" (ablation; the default follows the
    #: paper's Section 6.1 per-bank conflict model).
    cluster_port_banks: bool = False
    #: MSHR entries per SM.  0 (default) keeps the legacy *blocking*
    #: miss model the golden fixtures pin; any positive count enables
    #: the non-blocking memory system: secondary misses to an in-flight
    #: line merge into the outstanding fill (no extra DRAM traffic), and
    #: a full file stalls the LSU (the ``mshr_full`` stall cause).
    mshr_entries: int = 0
    #: DRAM banks per channel for open-page row-buffer timing.  The
    #: default ``banks=1`` with ``row_hit_latency=None`` (== full
    #: latency) is the flat-latency FCFS model, cycle-identical to the
    #: legacy channel.
    dram_banks: int = 1
    #: Row-buffer (DRAM page) size per bank.
    dram_row_bytes: int = 2048
    #: Latency of a request hitting a bank's open row; ``None`` means
    #: the full ``dram_latency`` (row buffers modeled but never faster,
    #: i.e. disabled).
    dram_row_hit_latency: int | None = None
    #: Simulation engine: ``"columnar"`` (default) replays precompiled
    #: columnar warp programs (:mod:`repro.sm.replay`); ``"event"`` runs
    #: the per-op event loop (``run_event``).  The two are bit-identical --
    #: every SimResult field matches exactly (differential tests pin
    #: this) -- so the flag never changes simulated numbers, only
    #: wall-clock.  Instrumented runs (profile/trace collectors)
    #: replay columnar too, with identical per-cause attribution,
    #: interval samples, and trace events.  Being timing-neutral,
    #: the field is excluded from experiment/chip config fingerprints
    #: and serialized payloads.
    engine: str = "columnar"

    @property
    def non_blocking(self) -> bool:
        """True when the MSHR-tracked non-blocking memory system is on."""
        return self.mshr_entries > 0

    def make_mshr_file(self):
        """The SM's MSHR file, or ``None`` in the blocking model."""
        if self.mshr_entries <= 0:
            return None
        from repro.memory.mshr import MSHRFile

        return MSHRFile(self.mshr_entries)

    def make_dram_channel(self, observer=None):
        """The SM's default private DRAM port (its 1/32 chip slice).

        This is the seam the chip simulator replaces: anything with the
        same ``request`` / traffic-counter surface (for example a
        :class:`repro.memory.dram.DRAMPort` onto a shared
        :class:`~repro.memory.dram.DRAMSystem`) can stand in for the
        private channel as an :class:`~repro.sm.simulator.SMCore`'s
        ``dram``.
        """
        from repro.memory.dram import DRAMChannel

        return DRAMChannel(
            bytes_per_cycle=self.dram_bytes_per_cycle,
            latency=self.dram_latency,
            transaction_bytes=self.dram_transaction_bytes,
            observer=observer,
            banks=self.dram_banks,
            row_bytes=self.dram_row_bytes,
            row_hit_latency=self.dram_row_hit_latency,
        )

    def __post_init__(self) -> None:
        for name in (
            "alu_latency",
            "sfu_latency",
            "shared_latency",
            "cache_hit_latency",
            "tex_latency",
            "dram_latency",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.dram_bytes_per_cycle <= 0:
            raise ValueError("dram_bytes_per_cycle must be positive")
        if self.max_threads <= 0 or self.max_threads % 32:
            raise ValueError("max_threads must be a positive multiple of 32")
        if self.mshr_entries < 0:
            raise ValueError("mshr_entries must be non-negative (0 = blocking)")
        if self.dram_banks < 1:
            raise ValueError("dram_banks must be >= 1")
        if self.dram_row_bytes <= 0:
            raise ValueError("dram_row_bytes must be positive")
        if self.dram_row_hit_latency is not None and not (
            0 <= self.dram_row_hit_latency <= self.dram_latency
        ):
            raise ValueError(
                "dram_row_hit_latency must lie within [0, dram_latency]"
            )
        if self.engine not in ("event", "columnar"):
            raise ValueError(
                f"engine must be 'event' or 'columnar', got {self.engine!r}"
            )
