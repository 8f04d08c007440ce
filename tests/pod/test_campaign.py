"""Pod campaign: reproducibility and gates.

The full 520-event campaign is CI's pod smoke job
(``python -m repro.pod --campaign --check``); these tests run a scaled
campaign twice for bit-reproducibility.  Baseline drift and the gate
logic are the failure-condition matrix in
``tests/reliability/test_campaign.py``.
"""

import json
from pathlib import Path

import pytest

from repro.compiler.cache import compile_program
from repro.core.config import ChipConfig
from repro.interpret import lower
from repro.pod import PodConfig, partition
from repro.pod.campaign import KIND, run_pod_campaign
from repro.reliability.errors import ParameterError
from repro.serve.config import ServeConfig
from repro.workloads.serving import serving_program

BASELINE = Path(__file__).parent / "baseline.json"

EVENTS = 16  # small but alternates both sites and hits a stubborn trial


@pytest.fixture(scope="module")
def result():
    return run_pod_campaign(seed=5, events=EVENTS, chips=3)


def test_campaign_meets_absolute_gates(result):
    assert result.events >= EVENTS
    for site, s in result.sites.items():
        assert s.injected > 0, f"site {site} never exercised"
        assert s.detection_rate == 1.0
    assert result.wrong_answers == 0
    assert result.unrecovered == 0
    assert result.false_positives == 0
    # Coverage: both links carrying a cut edge (0->1, 1->2) saw a
    # corruption, and faults landed on >= 2 distinct chips.
    assert result.distinct_links == 2
    assert result.distinct_chips_failed >= 2


def test_campaign_is_bit_reproducible(result):
    again = run_pod_campaign(seed=5, events=EVENTS, chips=3)
    a, b = result.to_json(), again.to_json()
    assert a == b


def test_full_campaign_covers_every_link_and_chip():
    """The pinned 520-event campaign corrupted every link that carries a
    cut edge and fail-stopped every chip that has steps."""
    baseline = json.loads(BASELINE.read_text())
    c = ServeConfig()
    chip = ChipConfig()
    part = partition(
        compile_program(serving_program(KIND, c.degree, c.max_level,
                                        c.block_slots, c.max_batch), chip),
        chip, PodConfig(chips=baseline["chips"], strategy="model"))
    assert baseline["distinct_links"] == len({(e.src, e.dst)
                                              for e in part.edges})
    assert baseline["distinct_chips_failed"] == sum(
        1 for shard in part.shards if lower(shard.program).steps)


def test_a_pod_with_no_cut_edge_is_rejected():
    """One chip has no link to corrupt: a typed error, not a bad arm."""
    with pytest.raises(ParameterError, match="no cut edge"):
        run_pod_campaign(seed=5, events=2, chips=1)
