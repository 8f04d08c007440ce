"""Per-operation cost functions for CraterLake-style machines.

Costs are expressed in *elements processed per FU class* so that the same
formulas serve CraterLake and the (wider, clustered) F1+ baseline: a
machine config turns elements into cycles by dividing by its per-class
capacity (units x lanes).

The keyswitching formulas implement Listing 1 generalized to t digits and
reproduce Table 1's operation counts:

    boosted:  NTT passes = 6L (+ digit terms), CRB MACs = 3L^2,
              other multiplies = 6L (t=1): Table 1's 4L hint products
              plus the 2L P^-1 scaling Table 1 folds into the CRB pass
    standard: NTT passes = L^2, multiplies = 2L^2, adds = 2L^2

One function, :func:`boosted_keyswitch_cost`, prices Listing 1 by part:
the ModUp prefix (lines 2-4) that a hoisted rotation group shares, the
remainder (lines 5-10) that each hoisted rotation pays, or both for the
fused keyswitch of MULT, ROTATE and CONJUGATE.

Register-file pressure is modeled as stream counts (2 reads + 1 write per
un-chained vector op; NTT/automorphism are 1R+1W); vector chaining divides
total port traffic by the paper's measured 3.5x (Sec. 5.4).

An op's cost depends only on its *shape* - ``(kind, level, digits,
repeat)`` - and the machine, so consumers that price whole op streams
(the simulator, the CPU model, the pod partitioner, the hoisting pass,
the interpreter's replay pricing) read a :class:`CostTable` built per
call: one :func:`op_cost` per distinct shape (at most a few hundred per
benchmark) instead of one per op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import CROSSBAR_TRAFFIC_FACTOR, ChipConfig
from repro.ir import (
    ADD,
    CONJUGATE,
    HOIST_MODUP,
    INPUT,
    MULT,
    OUTPUT,
    PMULT,
    RESCALE,
    ROTATE,
    ROTATE_HOISTED,
    HomOp,
)
from repro.reliability.errors import ParameterError, ScheduleError

CHAINING_PORT_REDUCTION = 3.5  # Sec. 5.4: measured RF traffic reduction

# Streams (ports occupied while the op's vector flows) per FU class.
_STREAMS = {"ntt": 2, "aut": 2, "mul": 3, "add": 3, "crb": 2, "kshgen": 1}


@dataclass
class OpCost:
    """Element counts for one homomorphic op on one machine.

    ``fu_elements`` maps FU class -> elements to process; ``port_streams``
    counts register-file stream-elements; ``network_words`` covers the
    inter-lane-group transpose traffic; scalar counts feed the CPU model
    and the energy model.
    """

    fu_elements: dict[str, float] = field(default_factory=dict)
    port_stream_elements: float = 0.0
    network_words: float = 0.0
    scalar_mults: float = 0.0
    scalar_adds: float = 0.0
    hint_words: float = 0.0       # stored hint size (what memory must supply)
    kshgen_elements: float = 0.0  # pseudorandom elements generated on-chip

    def add_fu(self, cls: str, elements: float) -> None:
        """Charge ``elements`` (scalar residue elements, not cycles) to FU
        class ``cls``, plus the implied register-file stream elements."""
        self.fu_elements[cls] = self.fu_elements.get(cls, 0.0) + elements
        self.port_stream_elements += _STREAMS[cls] * elements

    def merge(self, other: "OpCost") -> None:
        """Accumulate another op's element/word counts into this one."""
        for cls, el in other.fu_elements.items():
            self.fu_elements[cls] = self.fu_elements.get(cls, 0.0) + el
        self.port_stream_elements += other.port_stream_elements
        self.network_words += other.network_words
        self.scalar_mults += other.scalar_mults
        self.scalar_adds += other.scalar_adds
        self.hint_words += other.hint_words
        self.kshgen_elements += other.kshgen_elements

    def compute_cycles(self, cfg: ChipConfig) -> float:
        """Convert element counts to *cycles* on ``cfg``: the max over
        FU classes, RF ports and the network of elements / per-cycle
        capacity (the limiting resource)."""
        times = []
        for cls, elements in self.fu_elements.items():
            capacity = _class_capacity(cfg, cls)
            if capacity > 0:
                times.append(elements / capacity)
        port_elements = self.port_stream_elements
        if cfg.chaining:
            port_elements /= CHAINING_PORT_REDUCTION
        port_width = cfg.rf_port_width or cfg.lanes
        times.append(port_elements / (cfg.rf_ports * port_width))
        if self.network_words:
            times.append(self.network_words / cfg.network_words_per_cycle)
        return max(times) if times else 0.0


def _class_capacity(cfg: ChipConfig, cls: str) -> float:
    """Elements per cycle FU class ``cls`` can absorb (units x lanes)."""
    units = {
        "ntt": cfg.ntt_units,
        "mul": cfg.mul_units,
        "add": cfg.add_units,
        "aut": cfg.aut_units,
        "crb": 1 if cfg.crb else 0,
        "kshgen": 1 if cfg.kshgen else 0,
    }[cls]
    return units * cfg.lanes


def _ntt_scalar_mults(degree: int) -> float:
    """Scalar multiplies in one NTT pass: (N/2) log2 N butterflies."""
    return degree / 2 * math.log2(degree)


def boosted_keyswitch_cost(cfg: ChipConfig, degree: int, level: int,
                           digits: int, *, modup: bool = True,
                           remainder: bool = True) -> OpCost:
    """Element/word cost (an :class:`OpCost`, *not* cycles) of one boosted
    keyswitch: Listing 1 generalized to t digits (Sec. 3, Sec. 3.1).

    The input's L residues are split into t digits of alpha = ceil(L/t)
    primes; each digit is base-converted (CRB) onto the L + alpha target
    residues, NTT'd, multiplied against the hint, accumulated, and the
    result ModDown'd back to L residues.

    ``modup`` prices the input-raising prefix (lines 2-4), ``remainder``
    the hint multiply, accumulate and ModDown (lines 5-10); the fused
    keyswitch is both.  A hoisted rotation group (Halevi-Shoup hoisting;
    `repro.compiler.hoisting`) pays one prefix for its shared
    :data:`~repro.ir.HOIST_MODUP` - the raised digits stay
    register-file-resident in the EVAL domain - and one remainder per
    :data:`~repro.ir.ROTATE_HOISTED`.  The two parts are the fused
    keyswitch split at line 4, so a hoisted singleton is break-even by
    construction.

    The remainder applies no automorphism to the t(L + alpha) raised
    rows: the evaluation key is stored/generated pre-permuted (b halves
    permuted at rest in HBM, a halves emitted in permuted order by the
    KSH generator - both free), the raised digits are multiplied against
    it unpermuted, and :func:`op_cost` charges one automorphism over the
    accumulated output pair (2L rows, as for an unhoisted rotate).
    """
    if not (modup or remainder):
        raise ParameterError("select modup, remainder or both")
    n = degree
    ell = level
    alpha = -(-ell // digits)
    raised = ell + alpha
    hint_rows = digits * raised
    cost = OpCost()
    ntt_passes = crb_in = crb_macs = vec_mults = vec_adds = 0

    if modup:
        # Line 2: INTT of the input's L residues.
        cost.add_fu("ntt", ell * n)
        # Line 3 (ModUp): CRB streams each digit's residues once; every
        # MAC pipeline accumulates one destination residue.
        crb_in += ell                  # total input residues streamed
        crb_macs += ell * ell          # t * (alpha * L) = L^2 MACs
        # Line 4: NTT the newly produced residues (L per digit).
        cost.add_fu("ntt", digits * ell * n)
        ntt_passes += ell + digits * ell
    if remainder:
        # Lines 5-6: multiply against both hint halves and accumulate.
        cost.add_fu("mul", 2 * hint_rows * n)
        if digits > 1:
            cost.add_fu("add", 2 * (digits - 1) * raised * n)
        # Lines 7-9 (ModDown), for both outputs: INTT the alpha special
        # residues, CRB them back onto L residues, NTT the corrections.
        cost.add_fu("ntt", 2 * alpha * n)
        crb_in += 2 * alpha
        crb_macs += 2 * alpha * ell
        cost.add_fu("ntt", 2 * ell * n)
        # Line 10: subtract correction and scale by P^-1.
        cost.add_fu("add", 2 * ell * n)
        cost.add_fu("mul", 2 * ell * n)
        ntt_passes += 2 * alpha + 2 * ell
        vec_mults = 2 * hint_rows + 2 * ell
        vec_adds = 2 * (digits - 1) * raised + 2 * ell

    if cfg.crb:
        cost.add_fu("crb", crb_in * n)
    else:
        # Ablation: MACs execute as individual vector mul+add ops through
        # the register file - the port-pressure wall of Sec. 2.5.
        cost.add_fu("mul", crb_macs * n)
        cost.add_fu("add", crb_macs * n)

    if remainder:
        # Pseudorandom hint half: generated on the fly or fetched.  When
        # the hoisting pass batches same-hint rotations (``repeat > 1``)
        # this charge is not scaled with the batch (see :func:`op_cost`).
        a_half_words = hint_rows * n
        if cfg.kshgen:
            cost.add_fu("kshgen", a_half_words)
            cost.kshgen_elements += a_half_words
            cost.hint_words += a_half_words          # stored b half only
        else:
            cost.hint_words += 2 * a_half_words      # both halves from memory

    # Every NTT/INTT pass crosses the transpose network once.
    cost.network_words += ntt_passes * n
    if not cfg.fixed_network:
        cost.network_words *= CROSSBAR_TRAFFIC_FACTOR

    cost.scalar_mults += (crb_macs * n + vec_mults * n
                          + ntt_passes * _ntt_scalar_mults(n))
    cost.scalar_adds += (crb_macs * n + vec_adds * n
                         + ntt_passes * _ntt_scalar_mults(n))
    return cost


def standard_keyswitch_cost(cfg: ChipConfig, degree: int, level: int) -> OpCost:
    """Element/word cost of one standard (per-prime, BV) keyswitch, the
    algorithm F1 is built around.

    Each of the L residues is its own digit, base-converted to all L primes
    (an exact lift: INTT + L NTTs), giving the L^2 NTT / 2L^2 mult / 2L^2
    add counts of Table 1 and a hint of 2L^2 residue polynomials.
    """
    n = degree
    ell = level
    cost = OpCost()
    cost.add_fu("ntt", ell * ell * n)            # Table 1: L^2 NTTs
    cost.add_fu("mul", 2 * ell * ell * n)        # 2L^2 multiplies
    cost.add_fu("add", 2 * ell * ell * n)        # 2L^2 adds
    # F1's datapath was co-designed for this algorithm: its NTT outputs
    # feed the hint multipliers directly, so the mul/add streams mostly
    # bypass the register file (unlike boosted keyswitching's simple-op
    # storm, which F1 has no forwarding paths for).
    cost.port_stream_elements *= 0.4
    cost.hint_words += 2 * ell * ell * n         # F1 stores full hints
    cost.network_words += ell * ell * n
    if not cfg.fixed_network:
        cost.network_words *= CROSSBAR_TRAFFIC_FACTOR
    cost.scalar_mults += 2 * ell**2 * n + ell**2 * _ntt_scalar_mults(n)
    cost.scalar_adds += 2 * ell**2 * n + ell**2 * _ntt_scalar_mults(n)
    return cost


def keyswitch_cost(cfg: ChipConfig, degree: int, level: int,
                   digits: int) -> OpCost:
    """Element/word cost of a keyswitch under the machine's algorithm
    policy.

    CraterLake always runs boosted keyswitching; F1+-style machines
    (``crb=False``) get whichever algorithm is cheaper at this level -
    the paper gives F1+ the best algorithm per level (Sec. 8).  'Cheaper'
    weighs compute *and* the hint fetch: standard keyswitching's O(L^2)
    hints dominate past small L, which is exactly why it stops scaling.
    """
    boosted = boosted_keyswitch_cost(cfg, degree, level, digits)
    if cfg.crb:
        return boosted
    standard = standard_keyswitch_cost(cfg, degree, level)

    def total(cost: OpCost) -> float:
        # Hints are typically applied several times while resident, so the
        # fetch amortizes; 8x is a conservative reuse estimate, and with it
        # the standard/boosted crossover lands at L ~ 14 as in the paper.
        amortized_hint = cost.hint_words / (8 * cfg.hbm_words_per_cycle)
        return cost.compute_cycles(cfg) + amortized_hint

    if total(standard) <= total(boosted):
        return standard
    return boosted


def rescale_cost(cfg: ChipConfig, degree: int, level: int) -> OpCost:
    """Element/word cost of a rescale: INTT the last residue of both
    ciphertext polynomials, re-NTT the correction onto the remaining L-1
    residues, subtract and scale."""
    n = degree
    ell = level
    cost = OpCost()
    cost.add_fu("ntt", 2 * ell * n)
    cost.add_fu("mul", 2 * (ell - 1) * n)
    cost.add_fu("add", 2 * (ell - 1) * n)
    cost.network_words += 2 * ell * n
    if not cfg.fixed_network:
        cost.network_words *= CROSSBAR_TRAFFIC_FACTOR
    cost.scalar_mults += 2 * (ell - 1) * n + 2 * ell * _ntt_scalar_mults(n)
    cost.scalar_adds += 2 * (ell - 1) * n + 2 * ell * _ntt_scalar_mults(n)
    return cost


def op_cost(cfg: ChipConfig, op: HomOp, degree: int) -> OpCost:
    """Total cost of one homomorphic op on ``cfg``: FU/port/network
    counts in *elements*, hint and network fields in *words*; convert to
    cycles with :meth:`OpCost.compute_cycles`.

    Batched ops (``repeat > 1``) scale every stream by the batch size
    except the shared hint fetch - and, for ROTATE_HOISTED, the KSHGen
    charge: same-hint hoisted rotations are batched by the hoisting
    pass precisely so each generated a-half row is broadcast to all
    batch members in one pass instead of being regenerated per member.
    """
    n = degree
    ell = op.level
    cost = OpCost()
    if op.kind == MULT:
        # Four partial products, two accumulations, relinearize d2.
        cost.add_fu("mul", 4 * ell * n)
        cost.add_fu("add", 2 * ell * n)
        cost.merge(keyswitch_cost(cfg, n, ell, op.digits))
        cost.add_fu("add", 2 * ell * n)  # fold keyswitch output into (d0, d1)
        cost.scalar_mults += 4 * ell * n
        cost.scalar_adds += 4 * ell * n
    elif op.kind in (ROTATE, CONJUGATE, ROTATE_HOISTED):
        cost.add_fu("aut", 2 * ell * n)
        # Each automorphism pass needs two transposes (Sec. 4.2).
        extra_net = 2 * 2 * ell * n
        cost.network_words += (
            extra_net * (CROSSBAR_TRAFFIC_FACTOR if not cfg.fixed_network else 1)
        )
        if op.kind == ROTATE_HOISTED:
            cost.merge(boosted_keyswitch_cost(cfg, n, ell, op.digits,
                                              modup=False))
        else:
            cost.merge(keyswitch_cost(cfg, n, ell, op.digits))
        cost.add_fu("add", ell * n)
        cost.scalar_adds += ell * n
    elif op.kind == HOIST_MODUP:
        cost.merge(boosted_keyswitch_cost(cfg, n, ell, op.digits,
                                          remainder=False))
    elif op.kind == PMULT:
        cost.add_fu("mul", 2 * ell * n)
        cost.scalar_mults += 2 * ell * n
    elif op.kind == ADD:
        cost.add_fu("add", 2 * ell * n)
        cost.scalar_adds += 2 * ell * n
    elif op.kind == RESCALE:
        cost.merge(rescale_cost(cfg, n, ell))
    elif op.kind in (INPUT, OUTPUT):
        pass  # pure data movement; the simulator charges the traffic
    else:
        raise ScheduleError(f"no cost model for op kind {op.kind!r}")
    if op.repeat > 1:
        scale = op.repeat
        # Hoisted batches share the generated a half (broadcast in one
        # pass), so their KSHGen stream does not grow with the batch.
        shared_gen = op.kind == ROTATE_HOISTED
        cost.fu_elements = {
            k: v * (1 if shared_gen and k == "kshgen" else scale)
            for k, v in cost.fu_elements.items()
        }
        cost.port_stream_elements *= scale
        cost.network_words *= scale
        cost.scalar_mults *= scale
        cost.scalar_adds *= scale
        if not shared_gen:
            cost.kshgen_elements *= scale
        # hint_words intentionally NOT scaled: batched ops share one hint.
    return cost


# Chained-pipeline depth per op kind: how many dependent FU stages a value
# traverses (keyswitching ops run the full Listing-1 pipeline; hoisted
# rotations split it into the ModUp prefix and the multiply/ModDown rest).
_PIPELINE_DEPTH = {MULT: 10, ROTATE: 10, CONJUGATE: 10, PMULT: 2, ADD: 1,
                   RESCALE: 3, HOIST_MODUP: 4, ROTATE_HOISTED: 6}


def op_latency(cfg: ChipConfig, op: HomOp, degree: int) -> float:
    """Pipeline-fill latency in *cycles* exposed when ops execute one at
    a time (zero for machines that overlap independent ops)."""
    if not cfg.serial_execution:
        return 0.0
    depth = _PIPELINE_DEPTH.get(op.kind, 0)
    return depth * (cfg.passes(degree) + cfg.fu_stage_latency)


@dataclass(frozen=True)
class ShapeCost:
    """Everything the cycle model reads about one op shape on one machine.

    ``fu_cycles`` holds ``(class, elements / max(1, capacity))`` pairs in
    ``cost.fu_elements`` order, the per-FU busy time the simulator adds
    into ``fu_busy_cycles``.  Entries are shared by every op of the
    shape: ``cost`` must never be mutated (merge it *into* an
    accumulator instead).
    """

    cost: OpCost
    cycles: float     # cost.compute_cycles(cfg)
    latency: float    # op_latency(cfg, op, degree)
    fu_cycles: tuple[tuple[str, float], ...]


class CostTable:
    """Op costs on one ``(cfg, degree)``, memoized by op shape.

    Build one per pricing call; there is deliberately no process-wide
    cache.  ``table[op]`` is the :class:`ShapeCost` of ``op``'s
    ``(kind, level, digits, repeat)`` - the only fields :func:`op_cost`
    and :func:`op_latency` read - computed on first use.
    """

    def __init__(self, cfg: ChipConfig, degree: int):
        self.cfg = cfg
        self.degree = degree
        self._entries: dict[tuple, ShapeCost] = {}

    def __getitem__(self, op: HomOp) -> ShapeCost:
        key = (op.kind, op.level, op.digits, op.repeat)
        entry = self._entries.get(key)
        if entry is None:
            cfg = self.cfg
            cost = op_cost(cfg, op, self.degree)
            entry = self._entries[key] = ShapeCost(
                cost=cost,
                cycles=cost.compute_cycles(cfg),
                latency=op_latency(cfg, op, self.degree),
                fu_cycles=tuple(
                    (cls, elements / max(1.0, _class_capacity(cfg, cls)))
                    for cls, elements in cost.fu_elements.items()),
            )
        return entry


def ciphertext_words(degree: int, level: int) -> int:
    """Residue *words* in a level-L ciphertext (2 polynomials x N x L);
    multiply by ``cfg.bytes_per_word`` for bytes."""
    return 2 * degree * level


def plaintext_words(degree: int, level: int) -> int:
    """Residue *words* in a packed plaintext (1 polynomial x N x L)."""
    return degree * level


def raised_words(degree: int, level: int, digits: int) -> int:
    """Residue *words* in a hoisted ModUp's raised digits: t digit
    polynomials of L + alpha residues each (alpha = ceil(L/t)), the
    object a ``hoist_modup`` produces and its ``rotate_hoisted``
    consumers keep register-file-resident."""
    alpha = -(-level // digits)
    return digits * (level + alpha) * degree
