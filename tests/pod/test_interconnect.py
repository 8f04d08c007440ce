"""Link cost model: algebraic identities of the ring interconnect."""

import pytest

from repro.core.config import ChipConfig
from repro.pod import LinkModel, PodConfig
from repro.reliability.errors import ConfigError

CFG = ChipConfig()


def test_words_per_cycle_follows_link_bandwidth():
    slow = LinkModel(CFG, PodConfig(link_gbps=50.0))
    fast = LinkModel(CFG, PodConfig(link_gbps=200.0))
    assert fast.words_per_cycle == pytest.approx(4 * slow.words_per_cycle)
    # 100 GB/s at 1 GHz is 100 bytes/cycle -> words scale by word size.
    link = LinkModel(CFG, PodConfig(link_gbps=100.0))
    assert link.words_per_cycle == pytest.approx(
        100e9 / CFG.clock_hz / CFG.bytes_per_word)


def test_transfer_cycles_is_latency_plus_serialization():
    pod = PodConfig(link_latency_cycles=500.0)
    link = LinkModel(CFG, pod)
    assert link.transfer_cycles(0.0) == 0.0  # nothing to move, no cost
    w = 1e6
    assert link.transfer_cycles(w) == pytest.approx(
        500.0 + w / link.words_per_cycle)
    assert link.transfer_cycles(w, hops=3) == pytest.approx(
        3 * 500.0 + w / link.words_per_cycle)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_ring_all_reduce_volume(k):
    """Ring all-reduce moves 2(k-1)/k words per chip send port."""
    link = LinkModel(CFG, PodConfig(chips=k))
    w = 4096.0
    assert link.all_reduce_words(w, k) == pytest.approx(2 * (k - 1) / k * w)
    # Latency term: 2(k-1) hops of link latency plus serialization.
    cycles = link.all_reduce_cycles(w, k)
    assert cycles == pytest.approx(
        2 * (k - 1) * link.pod.link_latency_cycles
        + link.all_reduce_words(w, k) / link.words_per_cycle)


def test_ring_hops_shorter_way_around():
    """Distance on the bidirectional ring is the shorter arc; the
    wraparound leg (last chip back to chip 0) is one hop, not K-1."""
    assert LinkModel.ring_hops(0, 7, 8) == 1   # wraparound leg
    assert LinkModel.ring_hops(7, 0, 8) == 1   # symmetric
    assert LinkModel.ring_hops(0, 4, 8) == 4   # antipode
    assert LinkModel.ring_hops(1, 6, 8) == 3   # 1->0->7->6 backwards
    assert LinkModel.ring_hops(2, 2, 8) == 0
    assert LinkModel.ring_hops(0, 1, 2) == 1
    assert LinkModel.ring_hops(0, 0, 1) == 0   # degenerate single chip


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_ring_hops_is_a_metric(k):
    for a in range(k):
        for b in range(k):
            d = LinkModel.ring_hops(a, b, k)
            assert 0 <= d <= k // 2
            assert d == LinkModel.ring_hops(b, a, k)
            assert (d == 0) == (a == b)


def test_all_reduce_degenerates_at_one_chip():
    link = LinkModel(CFG, PodConfig(chips=1))
    assert link.all_reduce_words(4096.0, 1) == 0.0


def test_pod_config_validation():
    with pytest.raises(ConfigError):
        PodConfig(chips=0)
    with pytest.raises(ConfigError):
        PodConfig(link_gbps=-1.0)
    with pytest.raises(ConfigError):
        PodConfig(strategy="tensor")
