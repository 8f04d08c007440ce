"""Known-answer vectors for the cycle model.

``kat/simulate_kat.json`` holds ``repr(dataclasses.asdict(result))`` for
every case below (``test_simulate_reproduces_kat``) and ``repr`` of
``CpuModel.seconds`` per benchmark.  They were generated once from the per-op cost path and the
``max``-scan register file (the oracle in ``oracles.py``) that the
shape-keyed cost table and the heap Belady replaced.  ``repr`` of a
float round-trips exactly, so string equality is bit-identity of every
:class:`~repro.core.simulator.SimResult` field.  The vectors are
frozen: a case that stops matching is a modeled number that moved.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.baselines import CpuModel, f1plus_config
from repro.core.config import ChipConfig
from repro.core.simulator import simulate, simulate_ops
from repro.obs import collector as obs
from repro.workloads import ALL_BENCHMARKS

from tests.core import oracles

KAT_PATH = Path(__file__).parent / "kat" / "simulate_kat.json"

_CONFIGS = {"craterlake": ChipConfig, "f1plus": f1plus_config}


def _cases() -> dict[str, tuple]:
    """Case id -> (benchmark, compiled, config, register-file MB or None)."""
    cases = {}
    for name in ALL_BENCHMARKS:
        for cfg in _CONFIGS:
            cases[f"{name}/{cfg}"] = (name, False, cfg, None)
    cases["packed_bootstrap/compiled/craterlake"] = (
        "packed_bootstrap", True, "craterlake", None)
    cases["resnet20/craterlake-64MB"] = ("resnet20", False, "craterlake", 64)
    return cases


CASES = _cases()


def _case(benchmark_program, case: tuple):
    """The case's program and machine."""
    name, compiled, cfg_name, rf_mb = case
    cfg = _CONFIGS[cfg_name]()
    if rf_mb is not None:
        cfg = cfg.with_register_file(rf_mb)
    return benchmark_program(name, compiled), cfg


@pytest.fixture(scope="module")
def kat() -> dict:
    return json.loads(KAT_PATH.read_text())


def test_kat_covers_every_case(kat):
    assert set(kat["simulate"]) == set(CASES)
    assert set(kat["cpu_seconds"]) == set(ALL_BENCHMARKS)


@pytest.mark.parametrize("cid", sorted(CASES))
def test_simulate_reproduces_kat(kat, benchmark_program, cid):
    """Every field, and the per-op advances beside them telescope to
    ``program_cycles`` and group into ``tag_cycles``."""
    program, cfg = _case(benchmark_program, CASES[cid])
    result, advances = simulate_ops(program, cfg)
    assert repr(asdict(result)) == kat["simulate"][cid]
    oracles.check_advances(program, result, advances)


@pytest.mark.parametrize("cid", ["packed_bootstrap/compiled/craterlake",
                                 "resnet20/craterlake-64MB"])
def test_traced_simulate_reproduces_kat(kat, benchmark_program, cid):
    """Tracing takes its own branch of the op loop: it must move no
    field, and its ``sim.*`` counters must equal the fields they
    mirror."""
    program, cfg = _case(benchmark_program, CASES[cid])
    with obs.collecting() as c:
        result = simulate(program, cfg)
    assert repr(asdict(result)) == kat["simulate"][cid]
    for name in ("rf_evictions", "dead_drops", "stall_cycles"):
        assert c.counters.get(f"sim.{name}", 0) == getattr(result, name), \
            name


def test_cpu_model_reproduces_kat(kat, benchmark_program):
    cpu = CpuModel()
    for name in ALL_BENCHMARKS:
        seconds = cpu.seconds(benchmark_program(name, False))
        assert repr(seconds) == kat["cpu_seconds"][name]
