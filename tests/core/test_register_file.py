"""The heap Belady register file against the ``max``-scan oracle.

Both stores are driven with the same insert / next-use update / drop
sequences and must agree on every victim, on ``used`` and ``peak``, and
on the residents in insertion order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import _INF, _RegisterFile

from tests.core.oracles import ScanRegisterFile

NAMES = "abcdefgh"
# Few distinct sizes and next uses, so ties are the common case.
WORDS = st.sampled_from([1.0, 2.0, 3.0, 12.0])   # 12 > capacity: streams
NEXT = st.sampled_from([1, 2, 3, 4, _INF])

STEP = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(NAMES), WORDS, NEXT,
              st.booleans()),
    st.tuples(st.just("touch"), st.sampled_from(NAMES), NEXT),
    st.tuples(st.just("drop"), st.sampled_from(NAMES)),
)


def _state(rf):
    return ([(name, r.words, r.dirty, r.next_use)
             for name, r in rf.objects.items()], rf.used, rf.peak)


def _victims(evicted):
    return [(name, r.words, r.dirty, r.next_use) for name, r in evicted]


def _apply(rf, step):
    kind, name, *args = step
    if kind == "insert":
        words, next_use, dirty = args
        return _victims(rf.insert(name, words, "interm", dirty, next_use))
    if kind == "touch":
        record = rf.lookup(name)
        if record is not None:
            rf.set_next_use(name, record, args[0])
        return None
    record = rf.drop(name)
    return None if record is None else record.words


def _run_both(steps, capacity=10.0):
    heap, scan = _RegisterFile(capacity), ScanRegisterFile(capacity)
    for step in steps:
        assert _apply(heap, step) == _apply(scan, step), step
        assert _state(heap) == _state(scan), step
    return heap


@settings(max_examples=200, deadline=None)
@given(st.lists(STEP, max_size=80))
def test_heap_matches_scan_oracle(steps):
    _run_both(steps)


def _evict_one(setup):
    """Run ``setup`` then insert an object that forces one eviction;
    return the victim's name."""
    rf = _run_both(setup + [("insert", "z", 1.0, 1, True)], capacity=3.0)
    assert "z" in rf.objects
    return next(name for name in "abc" if name not in rf.objects)


def test_tie_evicts_oldest_insertion():
    setup = [("insert", name, 1.0, 4, True) for name in "abc"]
    assert _evict_one(setup) == "a"


def test_reinserted_name_loses_seniority():
    setup = [("insert", "a", 1.0, 4, True), ("insert", "b", 1.0, 4, True),
             ("drop", "a"), ("insert", "a", 1.0, 4, True),
             ("insert", "c", 1.0, 1, True)]
    assert _evict_one(setup) == "b"


def test_next_use_update_keeps_seniority():
    setup = [("insert", "a", 1.0, 1, True), ("insert", "b", 1.0, 4, True),
             ("touch", "a", 4), ("insert", "c", 1.0, 1, True)]
    assert _evict_one(setup) == "a"


def test_smaller_resident_goes_first_among_equal_next_uses():
    rf = _run_both([("insert", "a", 2.0, 4, True),
                    ("insert", "b", 1.0, 4, True),
                    ("insert", "z", 1.0, 1, True)], capacity=3.0)
    assert set(rf.objects) == {"a", "z"}


def test_redefinition_releases_the_old_value():
    rf = _run_both([("insert", "x", 2.0, 1, True)] * 5, capacity=3.0)
    assert rf.used == 2.0 and rf.peak == 2.0


def test_heap_stays_bounded_under_next_use_churn():
    rf = _RegisterFile(10.0)
    rf.insert("a", 1.0, "interm", True, 1)
    record = rf.lookup("a")
    for use in range(2, 2000):
        rf.set_next_use("a", record, use)
    assert len(rf._heap) <= 4 * len(rf.objects) + 65
