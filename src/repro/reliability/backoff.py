"""Seeded exponential backoff, shared by every retry loop.

Three layers retry after a detected fault: the serving front-end
re-runs a faulted batch, the recovering executor replays from a
checkpoint, and the pod retransmits a corrupted transfer.  All three
pause with one rule, :class:`Backoff`: retry k sleeps
``base_s * factor**(k - 1)`` seconds, scaled by ``1 + jitter * u`` with
u uniform in [-1, 1) drawn from the caller's seeded rng, so jittered
schedules decorrelate retry storms and still replay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.errors import ConfigError


@dataclass(frozen=True)
class Backoff:
    """Exponential pause schedule with bounded multiplicative jitter."""

    base_s: float
    factor: float
    jitter: float

    def __post_init__(self):
        if self.base_s < 0 or self.factor < 1:
            raise ConfigError("backoff needs base >= 0 and factor >= 1",
                              base_s=self.base_s, factor=self.factor)
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("backoff jitter is a fraction in [0, 1)",
                              jitter=self.jitter)

    def pause(self, retry: int, rng=None) -> float:
        """Seconds to sleep before retry ``retry`` (counted from 1).

        Jitter draws one ``rng.random()`` only when both a jitter and an
        rng are present, so a jitter-free schedule leaves the caller's
        random stream untouched.
        """
        pause = self.base_s * self.factor ** (retry - 1)
        if self.jitter and rng is not None:
            pause *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return pause

    def ceiling(self, retries: int) -> float:
        """Largest single pause across ``retries`` retries: the last
        retry's exponential step at full positive jitter."""
        return self.base_s * self.factor ** max(0, retries - 1) \
            * (1.0 + self.jitter)


#: The retry schedule of the serving front-end and the pod interconnect:
#: 100 us doubling per retry, +-25% seeded jitter.
RETRY_BACKOFF = Backoff(base_s=1e-4, factor=2.0, jitter=0.25)
