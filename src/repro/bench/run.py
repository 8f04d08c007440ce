"""Benchmark entry point for one workload run, from the checkout root:

    python3 src/repro/bench/run.py --workload table3 --seed 1 \\
        --seconds 20 --trace 0

Prints one JSON line - ``correct``, ``attempted``, ``failed`` and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics named in
BENCHMARK.json - and exits 0 only when every correctness check passed.
"""

import sys
from pathlib import Path

# Import the package from this checkout's src/ rather than from the
# script's own directory (whose module names would shadow others).
sys.path[0] = str(Path(__file__).resolve().parents[2])

from repro.bench.harness import script_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(script_main())
