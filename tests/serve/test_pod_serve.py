"""Pod-backed serving: lane dispatch, fail_chip degradation, typed
capacity shedding, and the ETA retry-budget fix.
"""

import numpy as np
import pytest

from repro.pod import PodConfig
from repro.reliability.errors import (
    ChipFailure,
    DeadlineExceeded,
    ParameterError,
)
from repro.serve import ServeConfig, Server


def cfg(**kw):
    base = dict(queue_depth=8, batch_window_s=1e-4, seed=11)
    base.update(kw)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def pod_server():
    return Server(cfg(queue_depth=32), pod=PodConfig(chips=3))


# -- ETA retry budget (satellite fix) ---------------------------------------

def test_retry_budget_formula():
    c = cfg(max_retries=2)
    # RETRY_BACKOFF's ceiling pause = base * factor**(retries-1) * (1 + jitter).
    assert c.retry_budget_s() == pytest.approx(2 * 1e-4 * 2.0 * 1.25)
    assert cfg(max_retries=0).retry_budget_s() == 0.0


def test_eta_includes_retry_budget():
    """A deadline that only fits the optimistic (no-fault) ETA is shed
    at admission: the feasibility check now budgets for every retry
    pausing at the backoff ceiling."""
    s = Server(cfg())
    optimistic = s._eta("logreg", 0.0) - s.cfg.retry_budget_s()
    assert s.cfg.retry_budget_s() > 0
    # Between the optimistic and budgeted ETA: must be shed now.
    tight = optimistic + 0.5 * s.cfg.retry_budget_s()
    with pytest.raises(DeadlineExceeded):
        s.submit("t0", "logreg", np.zeros(16), deadline_s=tight)
    assert s.tally["shed.deadline"] == 1
    # Past the budgeted ETA: admitted.
    s.submit("t0", "logreg", np.zeros(16),
             deadline_s=s._eta("logreg", 0.0) * 1.01)
    assert s.tally["admitted"] == 1


# -- pod lane dispatch --------------------------------------------------------

def test_batches_fan_out_across_lanes(pod_server):
    s = pod_server
    s.queue.clear()
    for k in s.alive:
        s.chips_free_at[k] = s.clock.now()
    # Two same-kind batches dispatched back to back at the same instant
    # land on two different lanes (earliest-free, id-tiebroken).
    for i in range(2 * s.cfg.max_batch):
        s.submit(f"t{i}", "logreg", np.zeros(16), deadline_s=1.0)
    assert s.pump() and s.pump()
    lanes = [b.chip for b in s.batches[-2:]]
    assert lanes[0] != lanes[1]


def test_fail_chip_shrinks_capacity_and_eta():
    s = Server(cfg(), pod=PodConfig(chips=2))
    s.submit("t0", "logreg", np.zeros(16), deadline_s=1.0)
    eta_full = s._eta("logreg", s.clock.now())
    s.fail_chip(1)
    eta_degraded = s._eta("logreg", s.clock.now())
    assert eta_degraded > eta_full  # backlog drains over fewer lanes
    assert s.tally["pod.chip_failures"] == 1
    with pytest.raises(ParameterError):
        s.fail_chip(1)  # already dead


def test_empty_pod_sheds_typed(pod_server=None):
    s = Server(cfg(), pod=PodConfig(chips=1))
    s.fail_chip(0)
    with pytest.raises(ChipFailure):
        s.submit("t0", "logreg", np.zeros(16), deadline_s=1.0)
    assert s.tally["shed.capacity"] == 1
    assert s.tally["offered"] == 1
    # next_wake never spins on a dead pod.
    assert s.chip_free_at == float("inf")


def test_single_chip_server_is_lane_zero():
    s = Server(cfg())
    assert s.chips_free_at == [0.0]
    s.chip_free_at = 1.5  # setter used by older tests/tools
    assert s.chips_free_at == [1.5]
    assert s.chip_free_at == 1.5


# -- model-parallel pod: one pipelined logical lane ---------------------------

def model_server(chips=4, **kw):
    return Server(cfg(queue_depth=64, **kw),
                  pod=PodConfig(chips=chips, strategy="model"))


def test_model_pod_is_one_pipelined_lane():
    s = model_server()
    assert len(s.chips_free_at) == 1  # the pipeline is one logical lane
    fill = s.service_seconds("logreg", s.cfg.max_batch)
    beat = s.throughput_seconds("logreg", s.cfg.max_batch)
    assert 0 < beat < fill  # micro-batches stream behind each other
    for i in range(2 * s.cfg.max_batch):
        s.submit(f"t{i}", "logreg", np.zeros(16), deadline_s=10.0)
    assert s.pump()
    done1 = max(r.completed_at for r in s.responses)
    overhead = done1 - fill
    # The lane frees after one steady-state beat, while the batch
    # itself completes only at the fill latency: the next batch can
    # enter the pipeline while this one is still draining.
    assert s.chips_free_at[0] == pytest.approx(beat + overhead)
    assert s.chips_free_at[0] < done1
    s.clock.advance(s.chips_free_at[0] - s.clock.now())
    assert s.pump()  # second batch dispatches mid-flight of the first
    done2 = max(r.completed_at for r in s.responses)
    assert done2 == pytest.approx(s.clock.now() + fill + overhead)
    # Chip-seconds are charged at pipeline occupancy, not fill.
    assert s.busy_s == pytest.approx(2 * (beat + overhead))


def test_model_pod_fail_chip_recuts_pipeline():
    s = model_server(chips=4)
    beat_clean = s.throughput_seconds("logreg", s.cfg.max_batch)
    s.fail_chip(2)
    assert s.tally["pod.chip_failures"] == 1
    # Cached service times are invalidated; the recut over 3 survivors
    # has a slower (or equal) beat.
    beat_degraded = s.throughput_seconds("logreg", s.cfg.max_batch)
    assert beat_degraded >= beat_clean
    with pytest.raises(ParameterError):
        s.fail_chip(2)  # already dead
    with pytest.raises(ParameterError):
        s.fail_chip(7)  # outside the pod


def test_model_pod_all_chips_dead_sheds_typed():
    s = model_server(chips=2)
    s.fail_chip(0)
    s.fail_chip(1)
    assert not s.alive
    with pytest.raises(ChipFailure):
        s.submit("t0", "logreg", np.zeros(16), deadline_s=1.0)
    assert s.tally["shed.capacity"] == 1
