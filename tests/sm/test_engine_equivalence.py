"""Event vs columnar engine equivalence (the replay engine's contract).

The columnar replayer (:mod:`repro.sm.replay`) exists purely for speed:
for every kernel, partition, and memory-system configuration it must
produce a :class:`~repro.sm.result.SimResult` *equal* to the per-op
event engine's -- same cycles, same counters, same energy, same notes.
This sweep is the enforcement: kernels x partitions x MSHR settings,
single-SM and chip scope, compared field for field.
"""

from dataclasses import replace

import pytest

from repro.chip.config import ChipConfig
from repro.chip.simulator import simulate_chip
from repro.core import partitioned_baseline
from repro.experiments.runner import Runner
from repro.sm.simulator import mark_warm, simulate

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
        # Banked open-page timing alongside the MSHRs, as the memsys
        # experiments run it -- the replayer's hardest arm.
        return replace(
            cfg, mshr_entries=mshr, dram_banks=8, dram_row_hit_latency=160
        )
    return replace(cfg, mshr_entries=0)


@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("part_name", PARTITIONS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_engines_bit_identical(runner, kernel, part_name, mshr):
    ck = runner.compiled(kernel)
    part = _partition(runner, kernel, part_name)
    cfg = _config(runner, mshr)
    # Defeat the tiered warm-up (first uninstrumented sim of a kernel
    # runs the event core): every case here must compare the real
    # replayer, not the warm-up pass.
    mark_warm(ck, cfg)
    event = simulate(ck, part, replace(cfg, engine="event"))
    columnar = simulate(ck, part, replace(cfg, engine="columnar"))
    # Whole-dataclass equality covers cycles, instruction and conflict
    # counts, the conflict histogram, cache/DRAM stats, energy, and
    # notes in one shot; compare fields first for readable failures.
    assert columnar.cycles == event.cycles
    assert columnar.instructions == event.instructions
    assert columnar.notes == event.notes
    assert columnar == event


@pytest.mark.parametrize("mshr", MSHRS)
@pytest.mark.parametrize("kernel", ("vectoradd", "needle"))
def test_engines_bit_identical_at_chip_scope(runner, kernel, mshr):
    """Chip scope: shared arbitrated DRAM, 4 SMs, both engines."""
    ck = runner.compiled(kernel)
    part = partitioned_baseline()
    cfg = _config(runner, mshr)
    chip_e = ChipConfig(
        num_sms=4, dram_bytes_per_cycle=32.0, dram_channels=2,
        sm=replace(cfg, engine="event"),
    )
    chip_c = replace(chip_e, sm=replace(cfg, engine="columnar"))
    event = simulate_chip(ck, part, chip_e)
    columnar = simulate_chip(ck, part, chip_c)
    assert columnar.cycles == event.cycles
    assert columnar.per_sm == event.per_sm
    assert columnar.ctas_per_sm == event.ctas_per_sm
    assert columnar.dram_channel_bytes == event.dram_channel_bytes
    assert columnar.notes == event.notes
