"""Reference oracle for the simulator's register file.

:class:`ScanRegisterFile` is the plain textbook Belady-MIN store: every
eviction scans all residents with ``max`` for the farthest next use,
then the smallest words, and ``max`` returns the first such resident in
dict insertion order - the oldest.  The simulator's heap register file
must pick the same victims (``test_register_file.py``); the known-answer
vectors in ``kat/`` were frozen from a simulator built on this scan.
"""

from __future__ import annotations

from repro.core.simulator import _Resident


class ScanRegisterFile:
    """Belady-MIN by linear scan; the interface of the simulator's
    ``_RegisterFile``."""

    def __init__(self, capacity_words: float):
        self.capacity = capacity_words
        self.objects: dict[str, _Resident] = {}
        self.used = 0.0
        self.peak = 0.0

    def lookup(self, obj: str) -> _Resident | None:
        return self.objects.get(obj)

    def set_next_use(self, obj: str, record: _Resident,
                     next_use: float) -> None:
        record.next_use = next_use

    def insert(self, obj: str, words: float, category: str, dirty: bool,
               next_use: float) -> list[tuple[str, _Resident]]:
        evicted = []
        self.drop(obj)  # a redefined name overwrites its old value
        if words > self.capacity:
            return evicted
        while self.used + words > self.capacity:
            victim = max(
                self.objects, key=lambda o: (self.objects[o].next_use,
                                             -self.objects[o].words)
            )
            record = self.objects.pop(victim)
            self.used -= record.words
            evicted.append((victim, record))
        self.objects[obj] = _Resident(words, category, dirty, next_use)
        self.used += words
        self.peak = max(self.peak, self.used)
        return evicted

    def drop(self, obj: str) -> _Resident | None:
        record = self.objects.pop(obj, None)
        if record is not None:
            self.used -= record.words
        return record
