"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.kernels.registry import get_benchmark  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_runs(monkeypatch):
    """Shrink a benchmark run to one round: one job per kernel."""
    kernels = sum(len(names) for names in workloads.KERNELS.values())
    monkeypatch.setattr(
        harness, "jobs_for_run", lambda w, seed, s: workloads.job_list(w, seed)[:kernels]
    )


def test_kernels_are_stratified_by_category():
    for category, names in workloads.KERNELS.items():
        assert {get_benchmark(k).category for k in names} == {category}
    for seed in range(5):
        order = workloads.kernel_order(seed)
        listed = [k for names in workloads.KERNELS.values() for k in names]
        assert sorted(order) == sorted(listed)
        # Any prefix holds each category within about one kernel of its
        # share (the other categories' rounding can add half a kernel).
        for n in range(1, len(order) + 1):
            for category, names in workloads.KERNELS.items():
                share = len(names) * n / len(order)
                held = sum(get_benchmark(k).category is category for k in order[:n])
                assert abs(held - share) < 1.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_changes_the_job_list(workload):
    assert workloads.job_list(workload, 1) == workloads.job_list(workload, 1)
    assert workloads.job_list(workload, 1) != workloads.job_list(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_of_every_seed_has_a_reference_digest(workload):
    universe = {workloads.job_key(j) for j in workloads.job_universe(workload)}
    recorded = {k for k in harness.load_reference() if k.startswith(f"{workload}|")}
    assert recorded == universe
    for seed in range(20):
        jobs = workloads.job_list(workload, seed)
        # No design point twice, profiled or not: a repeat would be
        # answered by the Runner's memo.
        assert len({j[:5] for j in jobs}) == len(jobs)
        assert {workloads.job_key(j) for j in jobs} <= universe


def test_chip_jobs_are_the_same_work_for_every_seed():
    shapes = {(n, m) for n in workloads.CHIP_SMS for m in workloads.CHIP_DRAM}
    multisets = set()
    for seed in range(10):
        jobs = workloads.jobs_for_run("chip-scale", seed, 15)
        for k in workloads.kernel_order(seed):
            mine = [j for j in jobs if j[1] == k]
            assert sorted(j[2] for j in mine) == sorted(workloads.CHIP_DESIGNS)
            assert {j[3:5] for j in mine} == shapes
            # One profiled job per SM count.
            assert sorted(j[3] for j in mine if j[5]) == sorted(workloads.CHIP_SMS)
        multisets.add(frozenset((j[1], j[2]) for j in jobs))
    assert len(multisets) == 1


def test_segment_factors_ignore_one_disturbed_probe():
    ref = harness.PROBE_REF_S
    probes = [ref] * 4 + [3 * ref] + [ref] * 4
    assert harness.segment_factors(probes) == [1.0] * 8
    slow = [2 * ref] * 9
    assert harness.segment_factors(slow) == [0.5] * 8


def test_passes_repeat_every_job_and_keep_one_time_each():
    reference = harness.load_reference()
    jobs = workloads.job_list("chip-scale", 1)[:2]
    p = harness.run_pass("chip-scale", jobs, ROOT, reference, passes=2)
    assert p.problems == []
    assert p.attempted == 4 and p.failed == 0
    assert len(p.times) == len(p.raw_times) == len(p.digests) == 2
    assert p.completed == 2


@pytest.mark.parametrize(
    "workload,n", [("oneshot-cli", 3), ("capacity-sweep", 4), ("chip-scale", 4)]
)
def test_reduced_run_is_deterministic_and_matches_reference(workload, n):
    reference = harness.load_reference()
    jobs = workloads.job_list(workload, 1)[:n]
    first = harness.run_pass(workload, jobs, ROOT, reference)
    second = harness.run_pass(workload, jobs, ROOT, reference)
    assert first.problems == [] and second.problems == []
    assert first.digests == second.digests
    assert first.model.metrics() == second.model.metrics()


def test_traced_counters_repeat_and_match_untraced(tiny_runs):
    counts = []
    for _ in range(2):
        result, _ = harness.run("chip-scale", 3, 0, True, ROOT)
        assert result["correct"], result
        counts.append({
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k not in (
                "trace_overhead", "sm.host_us_per_kinstr", "chip.host_us_per_kinstr",
            )
        })
    assert counts[0] == counts[1]
    kernels = sum(len(names) for names in workloads.KERNELS.values())
    # One warm-up chip simulation per kernel in set-up, then one job each.
    assert counts[0]["chip.sims"] == 2 * kernels
    jobs = workloads.job_list("chip-scale", 3)[:kernels]
    assert counts[0]["obs.collectors"] == sum(job[-1] for job in jobs)


def test_traced_run_fails_when_a_layer_goes_unseen(tiny_runs, monkeypatch):
    # A sweep whose pricing no longer reaches the wrapped energy model
    # must fail the attribution check, not pass with the time moved.
    instrument = harness.Tracer.instrument_runner

    def without_energy(tracer, rn):
        evaluate = rn.energy_model.evaluate
        instrument(tracer, rn)
        rn.energy_model.evaluate = evaluate

    monkeypatch.setattr(harness.Tracer, "instrument_runner", without_energy)
    result, lines = harness.run("capacity-sweep", 2, 0, True, ROOT)
    assert not result["correct"]
    assert "traced run recorded no spans in layers: energy" in lines


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_named_in_benchmark_json(tiny_runs, trace, section):
    result, lines = harness.run("capacity-sweep", 2, 0, trace, ROOT)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name in printed:
        assert any(line.split()[:1] == [name] for line in lines), name
