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
entry - hoisting, behind an optional content-addressed memory cache.
The pipeline and the fingerprint contract are documented in
docs/COMPILER.md.

Stability guarantees
--------------------
The compiler's output is deterministic: lowering the same
:class:`~repro.ir.Program` for the same
:class:`~repro.core.config.ChipConfig` always produces the identical op
stream (no randomness, no wall-clock input, cost-model-gated decisions
included).  That determinism is load-bearing - it is what lets the
compile cache substitute a stored schedule for a recompile bit-for-bit.

Fingerprints (:func:`repro.compiler.cache.fingerprint`) are invariant
under SSA value renames and hint/plaintext-id renames (names are
canonicalized to first-appearance indices before hashing) and under
``Program.name`` / ``ChipConfig.name`` changes; *every* other program or
config change invalidates them.
"""

from repro.compiler.cache import CompileCache, compile_program, fingerprint
from repro.compiler.digits import digit_schedule
from repro.compiler.dsl import FheBuilder, Value
from repro.compiler.hoisting import hoist_rotations
from repro.compiler.kernels import (
    blocked_matvec,
    matvec,
    polynomial_activation,
    rotate_accumulate,
)
from repro.compiler.placement import (
    Placement,
    amortized_cost_per_op,
    plan_refreshes,
)

__all__ = [
    "CompileCache",
    "FheBuilder",
    "Value",
    "compile_program",
    "digit_schedule",
    "fingerprint",
    "blocked_matvec",
    "matvec",
    "polynomial_activation",
    "rotate_accumulate",
    "hoist_rotations",
    "Placement",
    "amortized_cost_per_op",
    "plan_refreshes",
]
