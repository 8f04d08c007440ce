"""Multi-tenant served workloads: masked inner products over packed slots.

The serving front-end (`repro.serve`) packs N tenant queries into one
CKKS ciphertext (each query owns a ``block`` of consecutive slots) and
runs one of two workload kinds over the shared vector:

* ``logreg`` - a logistic-regression-style scoring pass: slot-wise
  plaintext multiply by the model weights, then a rotate-and-accumulate
  reduction (strides block/2, block/4, ..., 1).  After the reduction,
  slot ``i*block`` holds exactly the sum over tenant i's own block -
  the cyclic windows that *other* slots accumulate do cross tenant
  boundaries, but the designated readout slots never do, which is what
  makes per-tenant demultiplexing sound.
* ``lstm`` - a deeper two-stage pipeline standing in for recurrent
  scoring: reduce, then a **per-tenant mask** (a plaintext that keeps
  only the block-start slots, zeroing the cross-tenant mixture the
  first reduction left elsewhere), a second weight multiply, and a
  second reduction.  The mask is load-bearing: without it the second
  reduction would sum stage-one values whose windows leak neighbouring
  tenants' data into the readout.

Each kind is written once, as the IR stream :func:`serving_program`
emits (tagged phases: pack/score/reduce/mask/score2/reduce2/emit).  The
chip simulator prices it, and `repro.interpret` lowers the same stream
into the functional CKKS steps a
:class:`~repro.reliability.recovery.RecoveringExecutor` runs, so
injected faults hit real limbs/NTTs/hints and recovery replays real
homomorphic state.  The stream is parameterized by ``blocks``
(occupancy) because the weight plaintexts stream per occupied block, so
fuller batches genuinely cost more HBM traffic.

:func:`slot_reference` is the numpy mirror of the slot arithmetic, used
by tests to bound the decrypted answers (approximately - CKKS is
approximate about values) while replay determinism is checked bit-exact.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.dsl import FheBuilder
from repro.ir import Program
from repro.reliability.errors import ParameterError

SERVE_KINDS = ("logreg", "lstm")

#: Levels each kind consumes (pmult rescales): logreg 1, lstm 3.
KIND_DEPTH = {"logreg": 1, "lstm": 3}


def rotation_strides(block: int) -> list[int]:
    """Reduction strides block/2, block/4, ..., 1."""
    if block < 2 or block & (block - 1):
        raise ParameterError("block must be a power of two >= 2",
                             block=block)
    strides = []
    s = block // 2
    while s >= 1:
        strides.append(s)
        s //= 2
    return strides


def check_kind(kind: str) -> str:
    if kind not in SERVE_KINDS:
        raise ParameterError("unknown serve workload kind", kind=kind,
                             known=SERVE_KINDS)
    return kind


# -- model parameters ---------------------------------------------------------


def serving_weights(seed: int, slots: int, block: int) -> dict[str, np.ndarray]:
    """Deterministic model weights shared by every tenant.

    ``w1``/``w2`` are the two stages' slot-wise weights; ``mask`` keeps
    only block-start slots (the per-tenant isolation mask between lstm
    stages).  Everything flows from ``seed``.  The keys are the
    plaintext ids :func:`serving_program` multiplies by.
    """
    rng = np.random.default_rng(seed)
    w1 = 0.5 * rng.standard_normal(slots)
    w2 = 0.5 * rng.standard_normal(slots)
    mask = np.zeros(slots)
    mask[::block] = 1.0
    return {"w1": w1, "w2": w2, "mask": mask}


def slot_reference(kind: str, vector: np.ndarray, weights: dict,
                   block: int) -> np.ndarray:
    """Numpy mirror of the packed slot arithmetic (full slot vector)."""
    check_kind(kind)
    v = vector * weights["w1"]
    for s in rotation_strides(block):
        v = v + np.roll(v, -s)
    if kind == "lstm":
        v = v * weights["mask"]
        v = v * weights["w2"]
        for s in rotation_strides(block):
            v = v + np.roll(v, -s)
    return v


def readout_slot(block_index: int, block: int) -> int:
    return block_index * block


# -- the one description of a served batch ------------------------------------


def serving_program(kind: str, degree: int, max_level: int, block: int,
                    blocks: int) -> Program:
    """Emit the serving batch as a tagged IR stream.

    ``blocks`` is the batch occupancy: the weight plaintexts carry
    ``repeat=blocks`` because each occupied block's weight diagonal
    streams from HBM, so a fuller ciphertext costs proportionally more
    memory traffic (this is what makes the degradation ladder's
    "smaller batches are cheaper per dispatch" trade real in-model).
    """
    check_kind(kind)
    if blocks < 1:
        raise ParameterError("batch must occupy at least one block",
                             blocks=blocks)
    b = FheBuilder(
        f"serve_{kind}_b{blocks}", degree=degree, max_level=max_level,
        description=f"multi-tenant {kind} batch, {blocks} packed queries",
    )
    b.phase("pack")
    x = b.input("batch", max_level)
    b.phase("score")
    x = b.pmult(x, "w1", repeat=blocks)
    b.phase("reduce")
    for s in rotation_strides(block):
        x = b.add(x, b.rotate(x, s, hint_id=f"srv/rot{s}"))
    if kind == "lstm":
        b.phase("mask")
        x = b.pmult(x, "mask")
        b.phase("score2")
        x = b.pmult(x, "w2", repeat=blocks)
        b.phase("reduce2")
        for s in rotation_strides(block):
            x = b.add(x, b.rotate(x, s, hint_id=f"srv/rot{s}"))
    b.phase("emit")
    b.output(x)
    return b.build()
