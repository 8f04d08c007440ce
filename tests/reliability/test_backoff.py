"""The one retry backoff: validation, the jitter rule, and the ceiling."""

import numpy as np
import pytest

from repro.reliability.backoff import RETRY_BACKOFF, Backoff
from repro.reliability.errors import ConfigError


@pytest.mark.parametrize("bad", [
    dict(base_s=-1.0, factor=2.0, jitter=0.0),
    dict(base_s=1e-4, factor=0.5, jitter=0.0),
    dict(base_s=1e-4, factor=2.0, jitter=1.0),
    dict(base_s=1e-4, factor=2.0, jitter=-0.1),
])
def test_backoff_rejects_nonsense(bad):
    with pytest.raises(ConfigError):
        Backoff(**bad)


def test_pause_without_jitter_leaves_the_rng_untouched():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert Backoff(0.5, 2.0, 0.0).pause(3, rng) == 2.0
    assert RETRY_BACKOFF.pause(2) == 2e-4
    assert rng.bit_generator.state == state


def test_pause_reproduces_the_inline_formulas_bit_for_bit():
    """Serve/recovery jittered ``base * factor**(retry - 1)``; the pod
    jittered ``base * factor**attempt`` with ``retry = attempt + 1``.
    Both draw one value per pause from the same seeded stream."""
    b = RETRY_BACKOFF
    ours, ref = np.random.default_rng(2022), np.random.default_rng(2022)
    for attempt in range(6):
        pod = b.base_s * b.factor ** attempt \
            * (1 + b.jitter * (2 * ref.random() - 1))
        assert b.pause(attempt + 1, ours) == pod


def test_ceiling_bounds_every_pause():
    rng = np.random.default_rng(0)
    for retries in (1, 2, 3):
        worst = RETRY_BACKOFF.ceiling(retries)
        assert all(RETRY_BACKOFF.pause(k, rng) <= worst
                   for k in range(1, retries + 1) for _ in range(50))
    assert RETRY_BACKOFF.ceiling(0) == RETRY_BACKOFF.ceiling(1) \
        == 1e-4 * 1.25
