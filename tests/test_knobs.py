"""The settable surface of the configs and entry points, pinned.

Every name here is a value a caller can change.  Adding one is a design
decision - a knob must be able to change a result - so it shows up in
review as an edit to these lists rather than slipping in unnoticed.
"""

import importlib
import inspect
from dataclasses import fields

import pytest

from repro.compiler.hoisting import hoist_rotations
from repro.core.simulator import simulate
from repro.pod.config import PodConfig
from repro.pod.simulator import simulate_pod, stage_results
from repro.reliability.guards import IntegrityConfig, ReliabilityPolicy
from repro.reliability.recovery import RecoveryPolicy, take_checkpoint
from repro.serve.config import ServeConfig

CONFIG_FIELDS = {
    ServeConfig: [
        "degree", "max_level", "block_slots", "max_batch", "seed",
        "queue_depth", "default_deadline_s", "batch_window_s",
        "degrade_watermark", "max_retries", "checkpoint_every",
        "breaker_threshold", "breaker_cooldown_s", "verify_responses",
    ],
    RecoveryPolicy: [
        "checkpoint_every", "max_retries", "max_restarts", "backoff",
    ],
    PodConfig: [
        "chips", "link_gbps", "link_latency_cycles", "strategy", "seed",
    ],
    ReliabilityPolicy: ["mode", "track_noise", "checksums"],
    IntegrityConfig: ["ntt_checksum", "ntt_recheck_every", "boundary_hook"],
}

PARAMETERS = {
    simulate_pod: ["program", "cfg", "pod", "failed_chips", "cache"],
    stage_results: ["part", "cfg", "pod", "alive", "cache"],
    hoist_rotations: ["program", "cfg"],
    simulate: ["program", "cfg", "chip", "overlap_streams"],
    take_checkpoint: ["ctx", "state", "step", "label"],
}

# The campaign CLIs' flags, by the module whose ``parser()`` builds them.
# --check, --emit-baseline and --json come from
# ``repro.reliability.campaign.add_cli_flags`` in all three.
CLI_FLAGS = {
    "repro.reliability.faults": [
        "--seed", "--faults", "--degree", "--max-level",
        "--check", "--emit-baseline", "--json",
    ],
    "repro.serve.__main__": [
        "--campaign", "--requests", "--qps", "--tenants", "--fault-rate",
        "--seed", "--check", "--emit-baseline", "--json",
    ],
    "repro.pod.__main__": [
        "--campaign", "--events", "--chips", "--seed",
        "--check", "--emit-baseline", "--json", "--scaling", "--gate",
    ],
}


@pytest.mark.parametrize("config", list(CONFIG_FIELDS),
                         ids=lambda c: c.__name__)
def test_config_init_fields_are_pinned(config):
    names = [f.name for f in fields(config) if f.init]
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("fn", list(PARAMETERS), ids=lambda f: f.__name__)
def test_entry_point_parameters_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


@pytest.mark.parametrize("module", list(CLI_FLAGS))
def test_campaign_cli_flags_are_pinned(module):
    parser = importlib.import_module(module).parser()
    flags = [flag for action in parser._actions
             for flag in action.option_strings
             if flag.startswith("--") and flag != "--help"]
    assert flags == CLI_FLAGS[module]
