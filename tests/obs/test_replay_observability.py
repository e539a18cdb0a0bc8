"""Replay-path observability: the columnar engine's instrumented contract.

PR 8's replayer earned its speed by being bit-identical to the event
engine *uninstrumented*; this sweep pins the instrumented half of the
contract.  With a :class:`~repro.obs.Collector` (or
:class:`~repro.obs.ChipCollector`) attached, the replay loop must
reproduce the event engine's observability byte for byte: the same
per-cause stall attribution, the same interval samples, the same trace
events -- and observability must stay neutral (collectors on/off change
no simulated number).  The conservation invariant
(``issue + stalls == warps x cycles``, exact ``fsum`` equality) is
re-checked on every run.
"""

import json
from dataclasses import replace

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.obs import ChipCollector, Collector
from repro.sm.simulator import mark_warm, resolved_engine, simulate

KERNELS = ("vectoradd", "matrixmul", "needle", "bfs")
PARTITIONS = ("baseline", "unified384")
MSHRS = (0, 4)


@pytest.fixture(scope="module")
def runner():
    return Runner("tiny")


def _partition(runner, kernel, name):
    if name == "baseline":
        return partitioned_baseline()
    try:
        return runner.allocation(kernel).partition
    except Exception:
        pytest.skip(f"{kernel} has no unified-384 allocation at this scale")


def _config(runner, mshr):
    cfg = runner.config
    if mshr:
        # Banked open-page timing alongside the MSHRs -- the replayer's
        # hardest instrumented arm (bank/MSHR stall splitting).
        return replace(
            cfg, mshr_entries=mshr, dram_banks=8, dram_row_hit_latency=160
        )
    return replace(cfg, mshr_entries=0)


def _warm(ck, cfg):
    # Defeat the tiered warm-up: every case below must exercise the
    # real replayer, not the event-engine warm-up pass.
    mark_warm(ck, cfg)


def _dumps(payload):
    return json.dumps(payload, sort_keys=True)


# -- per-cause attribution equality, SM scope -----------------------------
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("part_name", PARTITIONS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_instrumented_engines_identical(runner, kernel, part_name, mshr):
    ck = runner.compiled(kernel)
    part = _partition(runner, kernel, part_name)
    cfg = _config(runner, mshr)
    _warm(ck, cfg)
    obs_e = Collector(metrics_window=500, trace=True, max_trace_events=200_000)
    obs_c = Collector(metrics_window=500, trace=True, max_trace_events=200_000)
    event = simulate(ck, part, replace(cfg, engine="event"), collector=obs_e)
    columnar = simulate(
        ck, part, replace(cfg, engine="columnar"), collector=obs_c
    )
    assert columnar == event
    # Per cause, not just totals: every cause the event engine charged,
    # the replayer must charge identically (and vice versa).
    assert obs_c.stall_totals() == obs_e.stall_totals()
    assert obs_c.issue_cycles == obs_e.issue_cycles
    # Conservation holds exactly on both sides.
    assert obs_e.conservation_errors() == []
    assert obs_c.conservation_errors() == []
    # Full payload byte-identity: stall report, interval metrics, trace.
    assert _dumps(obs_c.report()) == _dumps(obs_e.report())
    assert _dumps(obs_c.metrics_payload()) == _dumps(obs_e.metrics_payload())
    assert _dumps(obs_c.trace_payload()) == _dumps(obs_e.trace_payload())


# -- per-cause attribution equality, chip scope ---------------------------
@pytest.mark.parametrize("part_dram", (False, True))
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", ("vectoradd", "needle"))
def test_instrumented_chip_engines_identical(runner, kernel, mshr, part_dram):
    """Shared arbitrated DRAM, 4 SMs, DRAM-window and CTA taps live."""
    ck = runner.compiled(kernel)
    part = partitioned_baseline()
    cfg = _config(runner, mshr)
    _warm(ck, cfg)
    nch = 4 if part_dram else 2
    chip_e = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=replace(cfg, engine="event"),
    )
    chip_c = replace(chip_e, sm=replace(cfg, engine="columnar"))
    mk = lambda: ChipCollector(  # noqa: E731
        4, nch, metrics_window=500, trace=True, max_trace_events=500_000,
        dram_partitioned=part_dram,
    )
    obs_e, obs_c = mk(), mk()
    event = simulate_chip(ck, part, chip_e, chip_collector=obs_e)
    columnar = simulate_chip(ck, part, chip_c, chip_collector=obs_c)
    # ChipResult.config embeds the (engine-carrying) ChipConfig; compare
    # the simulated fields, which must not see the engine at all.
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
    assert obs_c.stall_totals() == obs_e.stall_totals()
    assert obs_e.conservation_errors() == []
    assert obs_c.conservation_errors() == []
    assert _dumps(obs_c.report()) == _dumps(obs_e.report())
    assert _dumps(obs_c.chipmetrics_payload()) == _dumps(
        obs_e.chipmetrics_payload()
    )
    assert _dumps(obs_c.trace_payload()) == _dumps(obs_e.trace_payload())


# -- mixed chips: instrumented and uninstrumented cores in one heap -------
@pytest.mark.parametrize("part_dram", (False, True))
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", ("matrixmul", "needle"))
def test_mixed_instrumentation_chip_engines_identical(
    runner, kernel, mshr, part_dram
):
    """Every other SM profiled: both runners' heap-entry layouts share
    one heap, and neither may perturb the other's timing or payloads."""
    ck = runner.compiled(kernel)
    part = partitioned_baseline()
    cfg = _config(runner, mshr)
    _warm(ck, cfg)
    chip_e = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        dram_partitioned=part_dram, sm=replace(cfg, engine="event"),
    )
    chip_c = replace(chip_e, sm=replace(cfg, engine="columnar"))
    mk = lambda: [  # noqa: E731
        Collector(metrics_window=500, trace=True, max_trace_events=200_000),
        None,
        Collector(metrics_window=500, trace=True, max_trace_events=200_000),
        None,
    ]
    cols_e, cols_c = mk(), mk()
    event = simulate_chip(ck, part, chip_e, collectors=cols_e)
    columnar = simulate_chip(ck, part, chip_c, collectors=cols_c)
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
    # The uninstrumented SMs carry no attribution; the profiled ones do.
    assert [bool(r.stall_cycles) for r in columnar.per_sm] == [
        True, False, True, False
    ]
    for obs_e, obs_c in zip(cols_e[::2], cols_c[::2]):
        assert obs_c.warps
        assert obs_e.conservation_errors() == []
        assert obs_c.conservation_errors() == []
        assert _dumps(obs_c.report()) == _dumps(obs_e.report())
        assert _dumps(obs_c.metrics_payload()) == _dumps(
            obs_e.metrics_payload()
        )
        assert _dumps(obs_c.trace_payload()) == _dumps(obs_e.trace_payload())


# -- neutrality: collectors on/off under engine="columnar" ----------------
@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_columnar_observability_is_neutral(runner, kernel, mshr):
    ck = runner.compiled(kernel)
    part = partitioned_baseline()
    cfg = replace(_config(runner, mshr), engine="columnar")
    _warm(ck, cfg)
    bare = simulate(ck, part, cfg)
    col = Collector(metrics_window=500, trace=True)
    instrumented = simulate(ck, part, cfg, collector=col)
    # A live collector fills result.stall_cycles (per contract); every
    # simulated number must be untouched by instrumentation.
    assert replace(instrumented, stall_cycles={}) == bare
    assert set(instrumented.stall_cycles)  # and the attribution is there
    assert col.warps  # the collector really observed the run


@pytest.mark.parametrize("mshr", MSHRS)
def test_columnar_chip_observability_is_neutral(runner, mshr):
    ck = runner.compiled("needle")
    part = partitioned_baseline()
    cfg = replace(_config(runner, mshr), engine="columnar")
    _warm(ck, cfg)
    chip = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2, sm=cfg
    )
    bare = simulate_chip(ck, part, chip)
    cc = ChipCollector(4, 2, metrics_window=500, trace=True)
    instrumented = simulate_chip(ck, part, chip, chip_collector=cc)
    assert instrumented.cycles == bare.cycles
    # Per-SM results match modulo the stall attribution the collector
    # deliberately fills in.
    assert [replace(r, stall_cycles={}) for r in instrumented.per_sm] == list(
        bare.per_sm
    )
    assert instrumented.ctas_per_sm == bare.ctas_per_sm
    assert instrumented.dram_channel_bytes == bare.dram_channel_bytes
    assert instrumented.notes == bare.notes
    assert cc.warps


# -- the replay path is really taken (no silent fallback) -----------------
def test_instrumented_run_uses_replay_path(runner, monkeypatch):
    """A warm kernel + live collector must dispatch to the replayer."""
    import repro.sm.replay as replay_mod

    calls = []
    real = replay_mod.replay

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(replay_mod, "replay", spy)
    ck = runner.compiled("vectoradd")
    cfg = replace(runner.config, engine="columnar")
    _warm(ck, cfg)
    assert resolved_engine(ck, cfg) == "columnar"
    col = Collector(metrics_window=500, trace=True)
    simulate(ck, partitioned_baseline(), cfg, collector=col)
    assert calls, "instrumented columnar run fell back to the event engine"
    assert col.warps and col.conservation_errors() == []


# -- engine provenance (Runner records the resolved engine) ---------------
def test_runner_records_resolved_engines():
    rn = Runner("tiny")
    part = partitioned_baseline()
    rn.simulate("vectoradd", part)  # cold: event warm-up
    rn.simulate("vectoradd", part, thread_target=512)  # warm: columnar
    summary = rn.engine_summary()
    assert summary["configured"] == "columnar"
    assert summary["resolved"] == {"columnar": 1, "event": 1}
    assert summary["mixed"] is True


def test_engine_records_ship_through_journal():
    """Worker-recorded engine entries reach the parent via adopt()."""
    rn = Runner("tiny")
    rn.journal_reset()
    rn.simulate("vectoradd", partitioned_baseline())
    entries = rn.journal_reset()
    kinds = {kind for kind, _, _ in entries}
    assert "engine" in kinds
    parent = Runner("tiny")
    parent.adopt(entries)
    assert parent.engine_summary()["resolved"] == {"event": 1}


def test_sim_metrics_records_configured_engine():
    rn = Runner("tiny")
    rn.simulate("vectoradd", partitioned_baseline())
    payload = rn.sim_metrics()
    assert [r["engine"] for r in payload["simulations"]] == ["columnar"]
