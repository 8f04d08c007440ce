"""Pod campaign: reproducibility and gates.

The full 520-event campaign is CI's pod smoke job
(``python -m repro.pod --campaign --check``); these tests run a scaled
campaign twice for bit-reproducibility.  Baseline drift and the gate
logic are the failure-condition matrix in
``tests/reliability/test_campaign.py``.
"""

import pytest

from repro.pod.campaign import run_pod_campaign

EVENTS = 16  # small but alternates both sites and hits a stubborn trial


@pytest.fixture(scope="module")
def result():
    return run_pod_campaign(seed=5, events=EVENTS, chips=3, rounds=4)


def test_campaign_meets_absolute_gates(result):
    assert result.events >= EVENTS
    for site, s in result.sites.items():
        assert s.injected > 0, f"site {site} never exercised"
        assert s.detection_rate == 1.0
    assert result.wrong_answers == 0
    assert result.unrecovered == 0
    assert result.false_positives == 0
    # Coverage: faults landed on >= 2 distinct links and chips.
    assert result.distinct_links >= 2
    assert result.distinct_chips_failed >= 2


def test_campaign_is_bit_reproducible(result):
    again = run_pod_campaign(seed=5, events=EVENTS, chips=3, rounds=4)
    a, b = result.to_json(), again.to_json()
    assert a == b
