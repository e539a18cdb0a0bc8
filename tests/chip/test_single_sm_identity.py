"""The refactor's contract: a 1-SM chip IS the single-SM simulator.

Every golden fixture (6 kernels x 3 designs, full SimResult
serialization) must be reproduced bit-for-bit by ``simulate_chip``
under ``ChipConfig.single_sm()`` -- one SM behind a private channel
carrying the paper's 8 B/cycle slice -- on both engines.  Any
divergence means the N-core arithmetic drifted from
:func:`repro.sm.simulate`.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chip import ChipConfig, simulate_chip
from repro.core import fermi_like, partitioned_baseline
from repro.experiments.runner import Runner
from repro.sm.serialize import result_to_dict

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
CASES = sorted(p.name for p in GOLDEN_DIR.glob("*__*.json"))
#: Every fixture on both engines; the columnar cases keep the bare
#: fixture name as their id.
CASE_ENGINES = [
    pytest.param(case, engine, id=case if engine == "columnar" else f"{case}-{engine}")
    for case in CASES
    for engine in ("columnar", "event")
]


@pytest.fixture(scope="module")
def rn():
    return Runner("tiny")


def _case_partition(rn, kernel: str, design: str):
    if design == "baseline":
        return partitioned_baseline()
    if design == "fermi0":
        return fermi_like(0)
    assert design == "unified384"
    return rn.allocation(kernel, total_kb=384).partition


@pytest.mark.parametrize(("case", "engine"), CASE_ENGINES)
def test_one_sm_chip_reproduces_golden_fixture(case, engine, rn):
    stored = json.loads((GOLDEN_DIR / case).read_text())
    kernel, design = case.removesuffix(".json").split("__")
    partition = _case_partition(rn, kernel, design)
    chip = ChipConfig.single_sm(replace(rn.config, engine=engine))
    cr = simulate_chip(rn.compiled(kernel), partition, chip)
    assert cr.num_sms == 1
    got = result_to_dict(cr.per_sm[0])
    assert got == stored, (
        f"{case}: 1-SM chip diverged from the single-SM simulator"
    )
    # Chip aggregates collapse to the single SM's numbers.
    assert cr.cycles == stored["cycles"]
    assert cr.instructions == stored["instructions"]
    assert cr.dram_bytes == stored["dram_bytes"]


def test_one_sm_shared_system_is_also_identical(rn):
    # Even without hard partitioning, one SM on a 1-channel DRAMSystem
    # carrying the slice bandwidth reserves the identical bus intervals.
    kernel = "matrixmul"
    partition = partitioned_baseline()
    cfg = rn.config
    shared = ChipConfig(
        num_sms=1,
        dram_bytes_per_cycle=cfg.dram_bytes_per_cycle,
        dram_channels=1,
        dram_partitioned=False,
        sm=cfg,
    )
    cr = simulate_chip(rn.compiled(kernel), partition, shared)
    baseline = rn.simulate(kernel, partition)
    assert result_to_dict(cr.per_sm[0]) == result_to_dict(baseline)
    assert cr.dram_channel_bytes == [baseline.dram_bytes]
