"""Admission control properties: the queue bound, conservation, typing.

The hypothesis properties drive the server with adversarial request
streams (no pumping between submits - worst case for the queue) and
assert the two bookkeeping invariants the campaign later reconciles at
scale: the queue never exceeds its bound, and admitted + shed always
equals offered.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.errors import (
    CircuitOpen,
    ConfigError,
    DeadlineExceeded,
    Overloaded,
    ParameterError,
    ReproError,
)
from repro.serve import ServeConfig, Server
from repro.serve.request import EXPIRED

TYPED = (Overloaded, DeadlineExceeded, CircuitOpen, ParameterError)


def small_cfg(**kw):
    base = dict(queue_depth=6, batch_window_s=1e-4, seed=7)
    base.update(kw)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def shared_server():
    """One CKKS-initialized server reused by cheap admission tests."""
    return Server(small_cfg())


def _drain(server):
    server.queue.clear()
    server.chip_free_at = server.clock.now()


# -- typed rejections ---------------------------------------------------------

def test_queue_full_sheds_with_overloaded(shared_server):
    s = shared_server
    _drain(s)
    for i in range(s.cfg.queue_depth):
        s.submit("t0", "logreg", np.zeros(16))
    with pytest.raises(Overloaded):
        s.submit("t0", "logreg", np.zeros(16))
    assert len(s.queue) == s.cfg.queue_depth
    _drain(s)


def test_infeasible_deadline_sheds_with_deadline_exceeded(shared_server):
    s = shared_server
    _drain(s)
    with pytest.raises(DeadlineExceeded):
        s.submit("t0", "logreg", np.zeros(16), deadline_s=1e-9)


def test_invalid_payloads_raise_parameter_error(shared_server):
    s = shared_server
    _drain(s)
    bad = [np.full(16, np.nan),              # non-finite
           np.zeros(7),                      # wrong length
           np.full(16, 1e6),                 # over the magnitude limit
           "not numbers"]                    # not numeric at all
    # One tenant per probe: three strikes would (correctly) open the
    # breaker and turn the fourth rejection into CircuitOpen instead.
    for i, payload in enumerate(bad):
        with pytest.raises(ParameterError):
            s.submit(f"bad-{i}", "logreg", payload)
    with pytest.raises(ParameterError):
        s.submit("bad-kind", "nosuchkind", np.zeros(16))
    with pytest.raises(ParameterError):
        s.submit("bad-deadline", "logreg", np.zeros(16), deadline_s=-1.0)


def test_typed_errors_subclass_repro_error():
    for err in TYPED:
        assert issubclass(err, ReproError)


def test_breaker_quarantines_only_the_poison_tenant(shared_server):
    s = shared_server
    _drain(s)
    for _ in range(s.cfg.breaker_threshold):
        with pytest.raises(ParameterError):
            s.submit("poison", "logreg", np.full(16, np.nan))
    with pytest.raises(CircuitOpen):
        s.submit("poison", "logreg", np.zeros(16))
    # Another tenant is untouched.
    s.submit("honest", "logreg", np.zeros(16))
    # After the cooldown, the probe is admitted and (being valid)
    # closes the breaker at validation.
    s.clock.advance(s.cfg.breaker_cooldown_s * 1.01)
    s.submit("poison", "logreg", np.zeros(16))
    assert s.breakers["poison"].state == "closed"
    _drain(s)


def test_expired_requests_are_cancelled_not_dispatched():
    s = Server(small_cfg())
    s.submit("t0", "logreg", np.zeros(16), deadline_s=1e-3)
    s.clock.advance(2e-3)
    assert not s.pump()                     # nothing left to dispatch
    assert [r.status for r in s.responses] == [EXPIRED]
    assert s.tally["expired"] == 1


# -- hypothesis properties ----------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3),          # tenant
                          st.booleans(),              # lstm?
                          st.integers(0, 3)),         # payload flavour
                min_size=1, max_size=40))
def test_queue_never_exceeds_bound_and_books_balance(stream):
    """Adversarial submit storm: bound holds, conservation holds."""
    s = Server(small_cfg())
    for tenant, lstm, flavour in stream:
        payload = {0: np.zeros(16),
                   1: np.ones(16),
                   2: np.full(16, np.nan),
                   3: np.zeros(7)}[flavour]
        kind = "lstm" if lstm else "logreg"
        try:
            s.submit(f"t{tenant}", kind, payload)
        except TYPED:
            pass
        assert len(s.queue) <= s.cfg.queue_depth
        assert s.max_queue_seen <= s.cfg.queue_depth
        assert s.tally["offered"] == (s.tally["admitted"]
                                      + s.tally["shed"])
    shed_reasons = sum(v for k, v in s.tally.items()
                       if k.startswith("shed."))
    assert shed_reasons == s.tally["shed"]


@settings(max_examples=10, deadline=None)
@given(depth=st.integers(1, 5), extra=st.integers(1, 10))
def test_overload_shed_is_exact(depth, extra):
    """Exactly queue_depth admissions; everything past the bound sheds."""
    s = Server(small_cfg(queue_depth=depth))
    outcomes = []
    for i in range(depth + extra):
        try:
            s.submit("t0", "logreg", np.zeros(16))
            outcomes.append("admitted")
        except Overloaded:
            outcomes.append("shed")
    assert outcomes == ["admitted"] * depth + ["shed"] * extra
    assert s.tally["shed.overload"] == extra


# -- config validation --------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(queue_depth=0),
    dict(default_deadline_s=0.0),
    dict(degree=100),                  # not a power of two
    dict(block_slots=3),               # not a power of two
    dict(block_slots=256),             # exceeds the slot count
    dict(max_batch=0),
    dict(max_batch=100),               # exceeds block capacity
    dict(max_level=4),                 # lstm would end at level 1: wrap
    dict(batch_window_s=-1e-3),
    dict(degrade_watermark=0.0),
    dict(degrade_watermark=1.5),
    dict(max_retries=-1),
    dict(degree=4),                    # a power of two below 8
    dict(block_slots=1),               # below the 2-slot minimum
    dict(breaker_threshold=0),
    dict(breaker_cooldown_s=-1.0),
    dict(checkpoint_every=0),
])
def test_validate_config_rejects_nonsense(bad):
    with pytest.raises(ConfigError):
        ServeConfig(**bad)


def test_with_revalidates():
    cfg = ServeConfig()
    assert cfg.with_(queue_depth=8).queue_depth == 8
    with pytest.raises(ConfigError):
        cfg.with_(queue_depth=0)
