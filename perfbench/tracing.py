"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps each layer's public entry point where the layer above
calls it: module attributes at their import sites (restored on exit)
and methods of the Runner and DiskCache instances the workload creates.
The program itself is not modified.  Spans are kept in memory and
written out when the run ends.

A span records ``(layer, parent, start, end)``.  A layer's self time is
the summed duration of its spans minus the duration of their direct
children, so the self times of all layers add up, by construction, to
the duration of the root ``bench`` spans, i.e. the traced wall time.
``bench`` self time is what no layer claims.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.chip.simulator as chip_sim
import repro.compiler.columnar as columnar
import repro.experiments.runner as runner_mod
import repro.sm.replay as replay
import repro.sm.simulator as sm_sim
from repro.core.allocator import AllocationError
from repro.sm.cta_scheduler import LaunchError
from repro.sm.simulator import resolved_engine

#: Self-time metrics (seconds), in print order: name -> span layer.
SELF_TIME_METRICS = {
    "startup.import_s": "startup",
    "kernels.build_s": "kernels",
    "artifacts.trace_read_s": "artifacts.trace_read",
    "artifacts.trace_write_s": "artifacts.trace_write",
    "artifacts.result_io_s": "artifacts.result_io",
    "compiler.compile_s": "compiler",
    "precompute.plan_s": "precompute",
    "columnar.lower_s": "columnar",
    "sm.first_sim_s": "sm.first",
    "sm.warm_sim_s": "sm.warm",
    "core.alloc_s": "core",
    "chip.sim_s": "chip",
    "chip.profiled_sim_s": "chip.profiled",
    "obs.check_s": "obs",
    "energy.price_s": "energy",
    "runner.self_s": "runner",
    "bench.self_s": "bench",
}


class Tracer:
    """In-memory span log plus counters at the same boundaries."""

    def __init__(self) -> None:
        #: ``[layer, parent index or -1, start, end]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run checks through the wrapped code without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, layer, fn, after=None):
        """``fn`` inside a ``layer`` span; ``after(out, args)`` counts."""

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(layer(*args, **kwargs) if callable(layer) else layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, args)
            return out

        return traced

    def call(self, layer: str, fn, *args, count: str | None = None):
        """Call ``fn(*args)`` from the benchmark inside a ``layer`` span."""
        if count is not None:
            self.counts[count] += 1
        return self.wrap(layer, fn)(*args)

    def _count(self, name: str, amount=1):
        def after(out, args):
            self.counts[name] += amount(out, args) if callable(amount) else amount

        return after

    # -- module import sites --------------------------------------------------
    def _patch(self, module, name: str, value) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    @contextmanager
    def installed(self):
        """Wrap the layer entry points at their import sites."""
        get_benchmark = runner_mod.get_benchmark
        build = self._count("kernels.warp_ops", lambda trace, _: trace.total_ops)

        def traced_get_benchmark(name):
            bm = get_benchmark(name)
            self.counts["kernels.builds"] += 1
            return dataclasses.replace(bm, build=self.wrap("kernels", bm.build, build))

        def sim_layer(kernel, partition, config=None, **_):
            warm = resolved_engine(kernel, config) == "columnar"
            return "sm.warm" if warm else "sm.first"

        def chip_layer(*args, chip_collector=None, **_):
            live = chip_collector is not None and chip_collector.enabled
            return "chip.profiled" if live else "chip"

        def count_sim(prefix):
            def after(result, args):
                self.counts[f"{prefix}.sims"] += 1
                self.counts[f"{prefix}.instructions"] += result.instructions

            return after

        def count_compile(ck, args):
            self.counts["compiler.compiles"] += 1
            self.counts["compiler.ops"] += ck.total_ops

        self._patch(runner_mod, "get_benchmark", traced_get_benchmark)
        self._patch(runner_mod, "compile_kernel",
                    self.wrap("compiler", runner_mod.compile_kernel, count_compile))
        self._patch(runner_mod, "simulate",
                    self.wrap(sim_layer, runner_mod.simulate, count_sim("sm")))
        self._patch(runner_mod, "simulate_chip",
                    self.wrap(chip_layer, runner_mod.simulate_chip, count_sim("chip")))
        self._patch(runner_mod, "allocate_unified",
                    self.wrap("core", runner_mod.allocate_unified, self._count("core.allocs")))
        for module in (sm_sim, chip_sim, columnar):
            self._patch(module, "plan_kernel",
                        self.wrap("precompute", module.plan_kernel,
                                  self._count("precompute.plans")))
        for module in (replay, chip_sim):
            self._patch(module, "cta_plan",
                        self.wrap("columnar", module.cta_plan,
                                  self._count("columnar.cta_plans")))
        # The single-SM replay builds a kernel's signature table itself
        # before its first cta_plan call; that is columnar lowering too.
        self._patch(replay, "_sig_table", self.wrap("columnar", replay._sig_table))
        try:
            yield self
        finally:
            while self._patches:
                module, name, value = self._patches.pop()
                setattr(module, name, value)

    # -- per-instance wrapping --------------------------------------------------
    def instrument_runner(self, rn) -> None:
        """Wrap a Runner's request methods and its energy model."""
        for name in ("simulate", "simulate_chip", "allocation"):
            setattr(rn, name, self._runner_request(getattr(rn, name)))
        # The one-shot entry points and pricing run Runner code around
        # the requests above; their spans keep it out of bench.self_s.
        for name in ("baseline", "fermi_best", "unified", "priced"):
            setattr(rn, name, self.wrap("runner", getattr(rn, name)))
        rn.energy_model.evaluate = self.wrap(
            "energy", rn.energy_model.evaluate, self._count("energy.prices")
        )

    def _runner_request(self, fn):
        def request(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self.counts["runner.requests"] += 1
            idx = self._open("runner")
            try:
                return fn(*args, **kwargs)
            except (LaunchError, AllocationError):
                self.counts["runner.expected_errors"] += 1
                raise
            finally:
                self._close(idx)
                if len(self.spans) == idx + 1:
                    # No layer below ran: the in-memory memo answered.
                    self.counts["runner.memo_hits"] += 1

        return request

    def instrument_cache(self, cache) -> None:
        """Wrap a DiskCache's reads and writes (trace I/O via repro.isa.io)."""

        def lookup(layer, fn):
            def after(out, args):
                self.counts["artifacts.misses" if out is None else "artifacts.hits"] += 1

            return self.wrap(layer, fn, after)

        def store(layer, fn, path_of):
            def after(out, args):
                self.counts["artifacts.bytes_written"] += path_of(args[0]).stat().st_size

            return self.wrap(layer, fn, after)

        cache.get_trace = lookup("artifacts.trace_read", cache.get_trace)
        cache.put_trace = store("artifacts.trace_write", cache.put_trace, cache.trace_path)
        cache.get_result = lookup("artifacts.result_io", cache.get_result)
        cache.put_result = store("artifacts.result_io", cache.put_result, cache.result_path)
        cache.get_meta = lookup("artifacts.result_io", cache.get_meta)
        cache.put_meta = store("artifacts.result_io", cache.put_meta, cache.meta_path)

    # -- results ------------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(self seconds, inclusive seconds)`` per layer."""
        child = [0.0] * len(self.spans)
        for layer, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for i, (layer, parent, t0, t1) in enumerate(self.spans):
            own[layer] += (t1 - t0) - child[i]
            incl[layer] += t1 - t0
        return own, incl

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics (model counters excepted) as ``name -> (value, unit)``."""
        own, incl = self.self_times()
        c = self.counts
        out = {name: (own.get(layer, 0.0), "s") for name, layer in SELF_TIME_METRICS.items()}

        def per_kinstr(seconds, instructions):
            return seconds * 1e6 / (instructions / 1000) if instructions else 0.0

        requests = c["runner.requests"]
        out.update({
            "kernels.builds": (c["kernels.builds"], "count"),
            "kernels.warp_ops": (c["kernels.warp_ops"], "count"),
            "artifacts.hits": (c["artifacts.hits"], "count"),
            "artifacts.misses": (c["artifacts.misses"], "count"),
            "artifacts.bytes_written": (c["artifacts.bytes_written"], "B"),
            "compiler.compiles": (c["compiler.compiles"], "count"),
            "compiler.ops": (c["compiler.ops"], "count"),
            "precompute.plans": (c["precompute.plans"], "count"),
            "columnar.cta_plans": (c["columnar.cta_plans"], "count"),
            "sm.sims": (c["sm.sims"], "count"),
            "sm.host_us_per_kinstr": (
                per_kinstr(incl.get("sm.first", 0.0) + incl.get("sm.warm", 0.0),
                           c["sm.instructions"]),
                "us/kinstr",
            ),
            "core.allocs": (c["core.allocs"], "count"),
            "chip.sims": (c["chip.sims"], "count"),
            "chip.host_us_per_kinstr": (
                per_kinstr(incl.get("chip", 0.0) + incl.get("chip.profiled", 0.0),
                           c["chip.instructions"]),
                "us/kinstr",
            ),
            "obs.collectors": (c["obs.collectors"], "count"),
            "energy.prices": (c["energy.prices"], "count"),
            "runner.requests": (requests, "count"),
            "runner.memo_hit_ratio": (
                c["runner.memo_hits"] / requests if requests else 0.0, "ratio"
            ),
            "runner.expected_errors": (c["runner.expected_errors"], "count"),
        })
        return out

    def payload(self) -> dict:
        """The span log as JSON-ready data (written when the run ends)."""
        return {
            "schema": "perfbench.spans/1",
            "fields": ["layer", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
