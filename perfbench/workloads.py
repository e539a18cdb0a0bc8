"""Seeded job lists and the three benchmark workloads.

A *job* is a plain tuple naming one user request; its ``"|"``-joined
form is the key of the reference digest table (``reference.json``).
Every job of every seed is in that table, so any seed can be checked.

Every seed runs the same 8 kernels, stratified over the four Table 1
categories; the seed orders them and, for the sweep, picks each
kernel's design points from fixed strata.  Letting the seed pick
kernels as well moved tail latency by 20-35% from seed to seed, more
than a regression bound can absorb; the one-shot and chip runs keep
their job sets fixed for the same reason.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

from repro.chip import ChipConfig, chip_result_to_dict
from repro.compiler.precompute import clear_plan_cache
from repro.core import fermi_like, partitioned_baseline
from repro.core.allocator import AllocationError
from repro.energy.chip import ChipModel
from repro.experiments.artifacts import DiskCache
from repro.experiments.runner import Runner
from repro.kernels.registry import Category
from repro.obs import ChipCollector
from repro.sm import SMConfig
from repro.sm.cta_scheduler import LaunchError
from repro.sm.serialize import partition_to_dict, result_to_dict

SCALE = "small"

#: The benchmark's 8 kernels: the Table 1 categories in proportion to
#: their size in the suite (1/2/2/3 of 26), benefit-set kernels first.
KERNELS: dict[Category, tuple[str, ...]] = {
    Category.SHARED_LIMITED: ("needle",),
    Category.CACHE_LIMITED: ("bfs", "gpu-mummer"),
    Category.REGISTER_LIMITED: ("dgemm", "ray"),
    Category.BALANCED: ("hotspot", "dct8x8", "scalarprod"),
}

WORKLOADS = ("oneshot-cli", "capacity-sweep", "chip-scale")

#: Capacity-sweep jobs per second on the tree that defined the
#: benchmark: the median as-measured rate of ten runs on its host
#: (shared 2-core x86 VM, CPython 3.11), so a sweep run spends about
#: ``--seconds`` in its jobs there.  A sweep run does a fixed
#: ``seconds * rate`` jobs (see :func:`jobs_for_run`), so both sides of
#: a comparison measure the same work and every count the run reports
#: repeats exactly.  The other workloads always run their whole list.
SWEEP_RATE = 30.7

#: Fewest jobs a sweep run does, so the tail percentile rests on 10+ samples.
MIN_JOBS = 20

#: ``repro run --design`` choices a one-shot request can make; a
#: kernel's first request is the first of these.
ONESHOT_DESIGNS = ("baseline", "fermi", "unified256", "unified384")
#: Capacity-sweep designs; a seed picks SWEEP_PICK thread targets of
#: SWEEP_THREADS for each (None: occupancy decides).
SWEEP_DESIGNS = (
    "baseline", "fermi0", "fermi1",
    "unified128", "unified192", "unified256", "unified320", "unified384",
)
SWEEP_THREADS = (None,) + tuple(range(256, 1025, 64))
SWEEP_PICK = 9
#: Thread targets of a sweep kernel's two warm-up simulations (no job's).
WARMUP_THREADS = (1056, 1088)
#: Chip shapes and designs.  Each kernel runs every design once and
#: every shape once, in a fixed pairing (see :func:`job_list`).
CHIP_SMS = (2, 8, 32)
CHIP_DRAM = ("shared", "partitioned")
CHIP_DESIGNS = ("baseline", "fermi0", "fermi1", "unified128", "unified256", "unified384")

#: Non-blocking memory system of the chip runs (``repro chip
#: --mshr-entries 16 --dram-banks 8``).
CHIP_SM_CONFIG = dict(mshr_entries=16, dram_banks=8)

#: Passes per run: each sets up afresh and runs the whole job list, and
#: a job's time is its median over the passes.  A chip run is short
#: (48 jobs), so three passes let a stretch of host noise in one pass
#: drop out of every figure.
PASSES = {"oneshot-cli": 1, "capacity-sweep": 1, "chip-scale": 3}
#: Set-ups per pass; ``setup_s`` is the median of every set-up of the
#: run.  The one-shot set-up, a ~0.2 s import, is noisier and cheap to
#: repeat.
SETUP_REPEATS = {"oneshot-cli": 7, "capacity-sweep": 2, "chip-scale": 1}

def kernel_order(seed: int) -> list[str]:
    """Every kernel, in a seeded order stratified by category.

    Each category is shuffled and the categories are interleaved in
    proportion, so any prefix of the order holds each category in its
    share.
    """
    rng = random.Random(f"kernels/{seed}")
    slots = []
    for category in Category:
        names = list(KERNELS[category])
        rng.shuffle(names)
        offset = rng.random()
        slots += [((i + offset) / len(names), k) for i, k in enumerate(names)]
    return [k for _, k in sorted(slots)]


def design_strata(workload: str) -> list[tuple[list[tuple], int]]:
    """``(design points, how many a seed picks)`` per stratum."""
    if workload == "oneshot-cli":
        return [([(d,) for d in ONESHOT_DESIGNS], len(ONESHOT_DESIGNS))]
    if workload == "capacity-sweep":
        return [([(d, t) for t in SWEEP_THREADS], SWEEP_PICK) for d in SWEEP_DESIGNS]
    if workload == "chip-scale":
        return [([(d,) for d in CHIP_DESIGNS], len(CHIP_DESIGNS))]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def job_list(workload: str, seed: int) -> list[tuple]:
    """Every job of ``workload`` for ``seed``, in request order.

    For each kernel the seed picks design points and orders them.  Jobs
    go round-robin over the kernels, so a run that stops early still
    covers every kernel evenly.
    """
    strata = design_strata(workload)
    kernels = kernel_order(seed)
    rng = random.Random(f"{workload}/{seed}")
    per_kernel = {}
    if workload == "oneshot-cli":
        # A user looks at a kernel's baseline first, so the cold request
        # (trace build, compile, disk-cache writes) is the same for every
        # seed.  The other designs follow as a Latin square: each round
        # asks for each of them equally often.
        first, *designs = [p for choices, _ in strata for p in choices]
        rng.shuffle(designs)
        for j, k in enumerate(kernels):
            j %= len(designs)
            per_kernel[k] = [first] + designs[j:] + designs[:j]
    elif workload == "chip-scale":
        # Each kernel runs every design once and every shape once, and
        # the pairing is fixed, so every seed runs the same 48 jobs and
        # lowers the same (kernel, design) programs; the seed orders
        # them.  With the seed pairing designs with shapes, job_ms.p50
        # and job_ms.tail moved by 13% from seed to seed.  A
        # ChipCollector is attached (``repro chip --profile``) at one of
        # the two DRAM arbitrations of each SM count: half the jobs, the
        # same share at every SM count, alternating between kernels.
        shapes = [(n, m) for n in CHIP_SMS for m in CHIP_DRAM]
        listed = [k for names in KERNELS.values() for k in names]
        for k in kernels:
            i = listed.index(k)
            points = [
                (d, *shapes[(i + j) % len(shapes)]) for j, d in enumerate(CHIP_DESIGNS)
            ]
            points = [(d, n, m, m == CHIP_DRAM[i % 2]) for d, n, m in points]
            rng.shuffle(points)
            per_kernel[k] = points
    else:
        for k in kernels:
            points = [p for choices, n in strata for p in rng.sample(choices, n)]
            rng.shuffle(points)
            per_kernel[k] = points
    rounds = len(per_kernel[kernels[0]])
    return [(workload, k) + per_kernel[k][r] for r in range(rounds) for k in kernels]


def job_universe(workload: str) -> list[tuple]:
    """Every job any seed can produce (what ``reference.json`` covers).

    Chip jobs come unprofiled first: a profiled run replaces the
    memoised result with one that carries stall attribution.
    """
    points = [p for choices, _ in design_strata(workload) for p in choices]
    if workload == "chip-scale":
        points = [
            (d, n, m, profiled)
            for (d,) in points for n in CHIP_SMS for m in CHIP_DRAM
            for profiled in (False, True)
        ]
    return [(workload, k) + p for names in KERNELS.values() for k in names for p in points]


def jobs_for_run(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The job list one run measures.

    A one-shot run is the whole Latin square: every kernel asks for
    every design once, so seeds differ only in request order (fewer
    rounds let the seed's design mix move ``jobs_per_s`` by 15%).  A
    chip run is likewise every kernel at every design and every shape.
    A sweep run is a fixed-size prefix of whole rounds.
    """
    jobs = job_list(workload, seed)
    if workload != "capacity-sweep":
        return jobs
    block = sum(len(names) for names in KERNELS.values())
    n = max(MIN_JOBS, seconds * SWEEP_RATE)
    # Whole rounds, so that every kernel does the same number of jobs.
    return jobs[: math.ceil(n / block) * block]


def job_key(job: tuple) -> str:
    return "|".join(str(x) for x in job)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Outcome:
    """What one job produced, in a form the checks read after timing.

    ``payload`` and ``op_count`` are callables so that serialising and
    digesting the result stay outside the timed request.
    """

    __slots__ = ("payload", "results", "op_count", "errors", "digest")

    def __init__(self, payload, results=(), op_count=None, errors=()):
        #: Returns the JSON-ready list the digest is taken over.
        self.payload = payload
        #: SimResult / ChipResult objects (for sim_ipc and model counters).
        self.results = list(results)
        #: Returns the compiled op count every result's ``instructions``
        #: must equal (``None`` for an expected-error outcome).
        self.op_count = op_count
        #: Check failures detected while running (conservation).
        self.errors = list(errors)
        self.digest = ""


def _expected(e: Exception) -> Outcome:
    return Outcome(lambda: ["error", type(e).__name__, str(e)])


class Workload:
    """One workload's set-up and per-job execution.

    ``tracer`` (a :class:`tracing.Tracer` or ``None``) is handed every
    Runner and DiskCache the workload creates, so a traced run can wrap
    their methods; untraced runs pass ``None``.
    """

    def __init__(self, name: str, kernels: list[str], root: Path, tracer=None):
        self.name = name
        self.kernels = kernels
        self.root = root
        self.tracer = tracer
        self.runner: Runner | None = None
        self.cache: DiskCache | None = None
        self._cache_dir: str | None = None

    # -- set-up -------------------------------------------------------------
    def setup_steps(self) -> list:
        """Per-run set-up as a list of calls; ``setup_s`` times them.

        A traced run wraps each step in its own root span.
        """
        if self.name == "oneshot-cli":
            return [self._cold_import, self._empty_cache]
        return [self._new_runner] + [
            lambda k=k: self._warm_kernel(k) for k in self.kernels
        ]

    def _cold_import(self) -> None:
        # A one-shot CLI request starts a fresh interpreter, so its
        # set-up is a cold import of the request path.  The import runs
        # again here, on fresh copies of repro's modules, so that
        # neither interpreter start nor third-party imports (numpy),
        # which stay loaded, count: only repro's own import cost is
        # set-up.  The original modules are put back afterwards.
        def ours(name):
            return name == "repro" or name.startswith("repro.")

        loaded = {name: m for name, m in sys.modules.items() if ours(name)}
        for name in loaded:
            del sys.modules[name]
        try:
            self._call("startup", importlib.import_module, "repro.experiments.runner")
        finally:
            for name in [name for name in sys.modules if ours(name)]:
                del sys.modules[name]
            sys.modules.update(loaded)

    def _empty_cache(self) -> None:
        # Each run starts from an empty disk cache; only the disk
        # carries state between one-shot requests.
        self.close()
        out = self.root / ".perfbench"
        out.mkdir(exist_ok=True)
        self._cache_dir = tempfile.mkdtemp(prefix="oneshot-", dir=out)
        self.cache = DiskCache(self._cache_dir)
        if self.tracer is not None:
            self.tracer.instrument_cache(self.cache)

    def _new_runner(self) -> None:
        clear_plan_cache()
        config = SMConfig(**CHIP_SM_CONFIG) if self.name == "chip-scale" else SMConfig()
        self.runner = Runner(SCALE, config)
        if self.tracer is not None:
            self.tracer.instrument_runner(self.runner)

    def _warm_kernel(self, kernel: str) -> None:
        """Build, compile and lower ``kernel`` on designs no job asks for.

        A sweep pays trace build, compile and columnar lowering (the
        kernel's signature table) once per kernel, so they belong to
        set-up, not to a job's latency.  The sweep's two single-SM
        warm-up simulations leave the signature table built whatever
        the engine's warm-up rule: today the first runs the event
        engine and the second replays columnar.  A 1-SM chip run builds
        it directly.
        """
        rn = self.runner
        if self.name == "capacity-sweep":
            for threads in WARMUP_THREADS:
                rn.simulate(kernel, partitioned_baseline(), thread_target=threads)
        else:
            rn.simulate_chip(
                kernel, partitioned_baseline(), chip=ChipConfig.single_sm(rn.config)
            )

    def release(self) -> None:
        """Drop the previous pass's Runner and collect it, so that its
        clean-up falls between passes, not inside a timed job."""
        self.runner = None
        gc.collect()

    def close(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None

    # -- jobs ---------------------------------------------------------------
    def run(self, job: tuple) -> Outcome:
        if self.name == "oneshot-cli":
            return self._oneshot(job[1], job[2])
        if self.name == "capacity-sweep":
            return self._sweep(job[1], job[2], job[3])
        return self._chip(job[1], job[2], job[3], job[4], job[5])

    def _oneshot(self, kernel: str, design: str) -> Outcome:
        """``repro run <kernel> --design ...`` against a shared disk cache."""
        clear_plan_cache()
        rn = Runner(SCALE, SMConfig(), cache=self.cache)
        if self.tracer is not None:
            self.tracer.instrument_runner(rn)
        try:
            base = rn.baseline(kernel)
            alloc = None
            if design == "baseline":
                result = base
            elif design == "fermi":
                result = rn.fermi_best(kernel)
            else:
                result, alloc = rn.unified(kernel, total_kb=int(design[len("unified"):]))
        except (AllocationError, LaunchError) as e:
            return _expected(e)
        energy = rn.priced(result, baseline=base).energy.total_j
        return Outcome(
            lambda: [
                result_to_dict(base),
                alloc and partition_to_dict(alloc.partition),
                result_to_dict(result),
                energy,
            ],
            [base] if result is base else [base, result],
            lambda: rn.summary(kernel).total_ops,
        )

    def _call(self, layer: str, fn, *args, count: str | None = None):
        """``fn(*args)``, inside a ``layer`` span when traced."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(layer, fn, *args, count=count)

    def _partition(self, kernel: str, design: str, threads: int | None = None):
        if design == "baseline":
            return partitioned_baseline()
        if design.startswith("fermi"):
            return fermi_like(int(design[len("fermi"):]))
        total_kb = int(design[len("unified"):])
        return self.runner.allocation(kernel, total_kb=total_kb, thread_target=threads).partition

    def _sweep(self, kernel: str, design: str, threads: int | None) -> Outcome:
        """One capacity-sweep design point, simulated and priced."""
        rn = self.runner
        try:
            partition = self._partition(kernel, design, threads)
            result = rn.simulate(kernel, partition, thread_target=threads)
        except (AllocationError, LaunchError) as e:
            return _expected(e)
        energy = rn.priced(result).energy.total_j
        return Outcome(
            lambda: [result_to_dict(result), energy],
            [result],
            lambda: rn.summary(kernel).total_ops,
        )

    def _chip(self, kernel, design, sms, dram, profiled) -> Outcome:
        """``repro chip <kernel> --sms N [--partitioned-dram] [--profile]``."""
        rn = self.runner
        chip = ChipConfig(num_sms=sms, dram_partitioned=dram == "partitioned", sm=rn.config)
        cc = None
        try:
            partition = self._partition(kernel, design)
            if profiled:
                cc = self._call("obs", ChipCollector.for_chip, chip, count="obs.collectors")
            cr = rn.simulate_chip(kernel, partition, chip=chip, chip_collector=cc)
        except (AllocationError, LaunchError) as e:
            return _expected(e)
        errors = []
        if cc is not None:
            found = self._call("obs", cc.conservation_errors)
            errors = [f"conservation: {e}" for e in found[:3]]
        summary = self._call(
            "energy", ChipModel(num_sms=sms).evaluate_chip, cr, count="energy.prices"
        )
        return Outcome(
            lambda: [chip_result_to_dict(cr), summary.total_j],
            [cr],
            lambda: rn.summary(kernel).total_ops,
            errors,
        )
