"""The CraterLake compiler (Sec. 6): from FHE programs to op streams.

A Python-embedded DSL (`repro.compiler.dsl`) builds dataflow programs of
homomorphic operations; kernels (`repro.compiler.kernels`) provide the
building blocks every benchmark uses (BSGS matrix-vector products,
polynomial activations, rotate-and-sum reductions); the digit scheduler
(`repro.compiler.digits`) picks the keyswitching variant per level for a
security target (Sec. 3.1); and the hoisting pass
(`repro.compiler.hoisting`) rewrites groups of same-source rotations into
shared-ModUp form (Halevi-Shoup).

:func:`compile_program` (`repro.compiler.cache`) is the one-call pipeline
entry - hoisting, behind an optional value-keyed memory cache.  The
pipeline and the cache-key contract are documented in docs/COMPILER.md.

Stability guarantees
--------------------
The compiler's output is deterministic: lowering the same
:class:`~repro.ir.Program` for the same
:class:`~repro.core.config.ChipConfig` always produces the identical op
stream (no randomness, no wall-clock input, cost-model-gated decisions
included).  That determinism is load-bearing - it is what lets the
compile cache substitute a stored schedule for a recompile bit-for-bit.

Cache keys (:func:`repro.compiler.cache.compile_key`) hold the program
by value - every op field, in order - and the config, so *every*
program or config change misses; only ``Program.name`` /
``description`` are left out.
"""

from repro.compiler.cache import CompileCache, compile_key, compile_program
from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.compiler.hoisting import hoist_rotations
from repro.compiler.kernels import (
    blocked_matvec,
    matvec,
    polynomial_activation,
    rotate_accumulate,
)

__all__ = [
    "CompileCache",
    "FheBuilder",
    "Value",
    "compile_key",
    "compile_program",
    "digit_schedule",
    "blocked_matvec",
    "matvec",
    "polynomial_activation",
    "rotate_accumulate",
    "hoist_rotations",
]
