"""Measure a workload, check its outputs, and compute the metrics.

A run does a fixed, seeded job list (:func:`workloads.jobs_for_run`).
Each job is timed alone; its outputs are checked right after the clock
stops, against ``reference.json``:

* the digest of the serialised result (or expected-error outcome)
  equals the reference digest for that job;
* every result's ``instructions`` equals the compiled op count;
* every profiled chip job's stall attribution is conserved.

``fail_frac`` is failed jobs (unexpected exceptions plus any failed
check) over jobs attempted; it is reported as ``failed``/``attempted``.
"""

from __future__ import annotations

import array
import heapq
import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np
from tracing import Tracer
from workloads import (
    PASSES,
    SETUP_REPEATS,
    Workload,
    digest,
    job_key,
    jobs_for_run,
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

MODEL_UNITS = {
    "sim_ipc": "instr/cycle",
    "model.cycles": "cycles",
    "model.instructions": "count",
    "model.cache_hit_rate": "ratio",
    "model.dram_bytes": "B",
    "model.bank_conflict_cycles": "cycles",
    "model.stall_cycles": "cycles",
}


#: Span layers each workload must record: the layers its end-to-end
#: figures are meant to follow.  A traced run that records none of one
#: has stopped reaching it through the wrapped entry point.
EXPECTED_LAYERS = {
    "oneshot-cli": (
        "startup", "kernels", "artifacts.trace_read", "artifacts.trace_write",
        "compiler", "precompute", "sm.first", "energy", "runner",
    ),
    "capacity-sweep": ("columnar", "sm.warm", "core", "energy", "runner"),
    "chip-scale": ("columnar", "chip", "chip.profiled", "obs", "energy", "runner"),
}
#: Largest share of the traced wall time no layer may claim
#: (``bench.self_s``): work the wrappers no longer see lands there.
UNATTRIBUTED_MAX = 0.01


#: Typical time of :func:`probe` on the host that defined the benchmark
#: (shared 2-core x86 VM, CPython 3.11), from probes taken over several
#: minutes in which it switched between its fast and slow modes; see
#: the README.  Rescaled times read as that host's typical speed.
PROBE_REF_S = 0.0028
#: Job time between two probes.
PROBE_EVERY_S = 0.1
#: A job segment is scaled by the median of the probes up to this many
#: segments either side of it: one probe, ~4 ms, catches the host's
#: speed at one instant and is noisier than the ~0.1 s it stands for.
SMOOTH = 2


#: Entries of the chase's chain: 16 MB, far more than a core's L2.
CHASE_SLOTS = 1 << 22
#: Links the chase follows, and rounds of the arithmetic loop, per probe.
CHASE_STEPS = 15000
LOOP_ROUNDS = 3500


def _chain() -> array.array:
    """A single cycle through ``CHASE_SLOTS`` slots in scattered order.

    Slot ``i`` holds ``(a * i + c) mod CHASE_SLOTS``: a full-period
    linear congruential map (``c`` odd, ``a - 1`` a multiple of 4), whose
    successive addresses have no stride a prefetcher could follow.
    """
    slots = np.arange(CHASE_SLOTS, dtype=np.uint32)
    slots *= 1664525
    slots += 1013904223
    slots &= CHASE_SLOTS - 1
    chain = array.array("I")
    chain.frombytes(slots.data.cast("B"))
    return chain


_CHAIN: array.array | None = None


def _loop() -> float:
    """Dict and heap arithmetic in a few KB: how fast the core runs."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    h: list[int] = []
    for i in range(LOOP_ROUNDS):
        k = (i * 2654435761) & 1023
        d[k] = d.get(k, 0) + i
        heapq.heappush(h, k)
        if len(h) > 64:
            heapq.heappop(h)
    return time.perf_counter() - t0


def _chase() -> float:
    """Links followed through a 16 MB array: how fast memory answers."""
    global _CHAIN
    if _CHAIN is None:
        _CHAIN = _chain()
    chain = _CHAIN
    t0 = time.perf_counter()
    i = 0
    for _ in range(CHASE_STEPS):
        i = chain[i]
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work.

    The geometric mean of two timings: arithmetic in a small working
    set (:func:`_loop`) and a chase through a large one
    (:func:`_chase`).  Neither shares code with ``repro``, so no change
    to the program moves them; they only track how fast the host runs
    Python right now.  When the host switched between its modes the
    loop alone moved ~1.3x more than the simulators did and the chase
    alone tracked them unreliably; together they followed them best.
    """
    return (_loop() * _chase()) ** 0.5


class HostSpeed:
    """Every :func:`probe` time of a run, for rescaling job times to the
    reference host's typical speed (see :func:`segment_factors`).

    On a shared host, neighbours change this process's speed by up to
    ~1.8x for stretches of a fraction of a second to minutes.  Set-up
    times are not rescaled: in recorded runs the probe moved set-up
    times more than the host did, and their spread grew.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def measure(self, samples: int = 1) -> float:
        """The median of ``samples`` probes, run now."""
        times = [probe() for _ in range(samples)]
        self.probes += times
        return _median(times)


def segment_factors(probes: list[float]) -> list[float]:
    """Scale for each job segment between two consecutive ``probes``.

    Segment ``i`` lies between ``probes[i]`` and ``probes[i + 1]``; it is
    scaled by ``PROBE_REF_S`` over the median of the probes within
    ``SMOOTH`` segments of it, so one probe that a neighbour happened to
    slow down does not rescale a whole segment.
    """
    n = len(probes)
    return [
        PROBE_REF_S / _median(probes[max(0, i - SMOOTH): min(n, i + SMOOTH + 2)])
        for i in range(n - 1)
    ]


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


class ModelTotals:
    """Deterministic simulated-machine counters summed over results."""

    def __init__(self) -> None:
        self.cycles = 0.0
        self.instructions = 0
        self.hits = 0
        self.accesses = 0
        self.dram_bytes = 0
        self.conflicts = 0
        self.stalls = 0.0

    def add(self, result) -> None:
        self.cycles += result.cycles
        self.instructions += result.instructions
        self.dram_bytes += result.dram_bytes
        for sm in getattr(result, "per_sm", None) or [result]:
            stats = sm.cache_stats
            self.hits += stats.read_hits + stats.write_hits
            self.accesses += stats.accesses
            self.conflicts += sm.bank_conflict_cycles
            self.stalls += sum(sm.stall_cycles.values())

    def metrics(self) -> dict[str, float]:
        return {
            "sim_ipc": self.instructions / self.cycles if self.cycles else 0.0,
            "model.cycles": self.cycles,
            "model.instructions": self.instructions,
            "model.cache_hit_rate": self.hits / self.accesses if self.accesses else 0.0,
            "model.dram_bytes": self.dram_bytes,
            "model.bank_conflict_cycles": self.conflicts,
            "model.stall_cycles": self.stalls,
        }


class Pass:
    """Timings, digests and check results of one or more passes over a job list.

    ``times`` are rescaled by :class:`HostSpeed`; ``raw_times`` and
    ``setup_s`` are as measured.  With several
    passes, ``setup_s`` is the median of every set-up, a job's time is
    its median over the passes, and ``digests`` and ``model`` come from
    the first pass (every pass is checked against the reference).
    """

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.digests: list[str] = []
        #: Jobs run, over all passes.
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.model = ModelTotals()
        #: Every :func:`probe` time of the run.
        self.probes: list[float] = []

    @property
    def completed(self) -> int:
        return sum(d != "exception" for d in self.digests)

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(self.times)

    @property
    def raw_wall_s(self) -> float:
        return self.setup_s + sum(self.raw_times)


def _check(job, outcome, reference) -> list[str]:
    bad = list(outcome.errors)
    outcome.digest = digest(outcome.payload())
    expected = reference.get(job_key(job))
    if expected is None:
        bad.append("no reference digest")
    elif expected != outcome.digest:
        bad.append(f"digest {outcome.digest} != reference {expected}")
    if outcome.op_count is not None:
        ops = outcome.op_count()
        bad += [
            f"instructions {r.instructions} != compiled ops {ops}"
            for r in outcome.results
            if r.instructions != ops
        ]
    return bad


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def run_pass(name, jobs, root, reference, tracer: Tracer | None = None,
             setup_repeats: int = 1, passes: int = 1) -> Pass:
    """Run ``jobs`` ``passes`` times, each after ``setup_repeats`` set-ups.

    Every output of every pass is checked.
    """
    kernels = list(dict.fromkeys(job[1] for job in jobs))
    workload = Workload(name, kernels, root, tracer)
    out = Pass()
    speed = HostSpeed()
    setups, raw_runs, runs = [], [], []
    try:
        for n in range(passes):
            if n:
                workload.release()
            setups += [_timed_setup(workload, tracer) for _ in range(setup_repeats)]
            raw, scaled = _timed_jobs(workload, jobs, speed, reference, tracer, out, n == 0)
            raw_runs.append(raw)
            runs.append(scaled)
    finally:
        workload.close()
    out.setup_s = _median(setups)
    out.raw_times = [_median(list(ts)) for ts in zip(*raw_runs)]
    out.times = [_median(list(ts)) for ts in zip(*runs)]
    out.probes = speed.probes
    return out


def _timed_setup(workload, tracer) -> float:
    """One set-up's time, as measured."""
    t0 = time.perf_counter()
    for step in workload.setup_steps():
        if tracer is None:
            step()
        else:
            with tracer.span("bench"):
                step()
    return time.perf_counter() - t0


def _timed_jobs(workload, jobs, speed, reference, tracer, out: Pass,
                first: bool) -> tuple[list[float], list[float]]:
    """Run and check every job once; its times as measured and rescaled.

    Digests and model counters are kept from the ``first`` pass only.
    """
    raw: list[float] = []
    probes = [speed.measure()]
    ends: list[int] = []
    segment = 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(job)
            else:
                with tracer.span("bench"):
                    outcome = workload.run(job)
        except Exception:
            outcome = None
        raw.append(time.perf_counter() - t0)
        segment += raw[-1]
        if segment >= PROBE_EVERY_S or i == len(jobs) - 1:
            probes.append(speed.measure())
            ends.append(i + 1)
            segment = 0.0
        out.attempted += 1
        if outcome is None:
            out.failed += 1
            out.problems.append(f"{job_key(job)}: {traceback.format_exc(limit=4)}")
            if first:
                out.digests.append("exception")
            continue
        if tracer is None:
            bad = _check(job, outcome, reference)
        else:
            with tracer.paused():
                bad = _check(job, outcome, reference)
        if first:
            out.digests.append(outcome.digest)
            for result in outcome.results:
                out.model.add(result)
        if bad:
            out.failed += 1
            out.problems.append(f"{job_key(job)}: {'; '.join(bad)}")
    scaled: list[float] = []
    start = 0
    for end, f in zip(ends, segment_factors(probes)):
        scaled += [t * f for t in raw[start:end]]
        start = end
    return raw, scaled


def tail(times_ms: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with 10 samples beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(p: Pass) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced pass, plus facts to print."""
    ms = sorted(t * 1000 for t in p.times)
    n = len(ms)
    value, pct = tail(ms)
    metrics = {
        "jobs_per_s": p.completed / sum(p.times),
        "job_ms.p50": _median(ms),
        "job_ms.tail": value,
        "setup_s": p.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {
        "tail_percentile": pct,
        "samples": n,
        "fail_frac": p.failed / p.attempted,
        "slowdown": _median(p.probes) / PROBE_REF_S,
        "raw_jobs_per_s": p.completed / sum(p.raw_times),
        "sim_ipc": p.model.metrics()["sim_ipc"],
    }
    return metrics, facts


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        spans_out: Path | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    reference = load_reference()
    jobs = jobs_for_run(workload, seed, seconds)
    lines = [
        f"workload {workload}  seed {seed}  jobs {len(jobs)}  scale small  "
        f"passes {1 if trace else PASSES[workload]}  "
        "(simulated caches start empty in every simulation)"
    ]
    if not trace:
        p = run_pass(workload, jobs, root, reference,
                     setup_repeats=SETUP_REPEATS[workload], passes=PASSES[workload])
        metrics, facts = end_to_end(p)
        lines += _report(metrics, END_TO_END)
        lines += _facts(facts)
        lines.append(f"fail_frac {facts['fail_frac']:.4f}")
        lines += p.problems[:10]
        result = {
            "correct": p.failed == 0,
            "attempted": p.attempted,
            "failed": p.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        }
        return result, lines

    plain = run_pass(workload, jobs, root, reference)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, jobs, root, reference, tracer)
    overhead = traced.wall_s / plain.wall_s
    layers = tracer.metrics()
    model = traced.model.metrics()
    layers.update({k: (v, MODEL_UNITS[k]) for k, v in model.items()})
    layers["trace_overhead"] = (overhead, "ratio")
    own, _ = tracer.self_times()
    # Self times sum to the traced wall by construction; what matters
    # is how much of it no layer claims.
    unattributed = own.get("bench", 0.0) / traced.raw_wall_s
    problems = plain.problems + traced.problems
    if plain.digests != traced.digests:
        problems.append("traced and untraced runs produced different results")
    if plain.model.metrics() != model:
        problems.append("traced and untraced runs produced different model counters")
    missing = [layer for layer in EXPECTED_LAYERS[workload] if layer not in own]
    if missing:
        problems.append(f"traced run recorded no spans in layers: {', '.join(missing)}")
    if unattributed > UNATTRIBUTED_MAX:
        problems.append(
            f"{unattributed:.1%} of the traced wall is in no layer (bench.self_s), "
            f"more than {UNATTRIBUTED_MAX:.0%}"
        )
    failed = plain.failed + traced.failed
    e2e, facts = end_to_end(plain)
    lines.append("end to end (untraced pass, one set-up):")
    lines += _report(e2e, END_TO_END)
    lines += _facts(facts)
    lines.append(
        f"per layer (traced pass): {unattributed:.2%} of {traced.raw_wall_s:.3f} s "
        f"traced wall (as measured) is in no layer; "
        f"trace_overhead compares walls with host-speed-scaled job times"
    )
    lines += _report({k: v for k, (v, _) in layers.items()},
                     {k: u for k, (_, u) in layers.items()})
    attempted = plain.attempted + traced.attempted
    lines.append(f"fail_frac {failed / attempted:.4f} over both passes")
    lines += problems[:10]
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        spans_out.write_text(json.dumps(tracer.payload()))
        lines.append(f"spans written to {spans_out}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    return result, lines


def _facts(facts: dict) -> list[str]:
    return [
        f"job_ms.tail is p{facts['tail_percentile']:.1f} of {facts['samples']} requests; "
        f"sim_ipc {facts['sim_ipc']:.6g} instr/cycle (simulated)",
        f"host ran {facts['slowdown']:.3f}x the probe's reference time; as measured: "
        f"jobs_per_s {facts['raw_jobs_per_s']:.6g} (setup_s is as measured)",
    ]


def _report(metrics: dict, units: dict) -> list[str]:
    return [f"  {name:28s} {metrics[name]:>16.6g} {units[name]}" for name in metrics]
