"""What a deep workload's op stream costs in memory, bounded.

Every layer holds whole op streams (lstm has 70,268 ops), so their size
is most of what generation, compile and simulation hold.  Sizes come
from ``tracemalloc``.
"""

import tracemalloc

from repro.workloads import benchmark


def test_lstm_stream_costs_at_most_235_bytes_per_op():
    """Spliced bootstraps share their hint ids, plaintext ids, tags and
    repeated operand tuples with the recorded body, and their operands
    are their producers' result strings.  Emitting every bootstrap op by
    op took 258 bytes an op."""
    benchmark("lstm")  # one-time caches (plans, digit schedules)
    tracemalloc.start()
    try:
        program = benchmark("lstm")
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 235 * len(program.ops), size / len(program.ops)
