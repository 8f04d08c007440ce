"""Limb-batched FHE kernel speedups vs the per-limb reference oracles.

Not a paper table: this is the regression artifact for the vectorized
CKKS hot path (``BatchedNttContext``, ``batch_rescale``,
``mod_down_pair``, the EVAL-domain automorphism).  Each row times the
batched kernel against the per-limb/per-poly oracle
(tests/fhe/oracles.py) that the
differential suite (tests/fhe/test_batched_kernels.py) proves it
bit-exact against, on the same data in the same process, and reports
the machine-relative speedup.  The nightly run archives the table so a
refactor that silently reintroduces per-limb Python loops shows up as a
collapsing ratio column; tests/fhe/test_perf_gate.py enforces hard
floors on the same ratios in tier-1 CI.

For the suite-level effect of the batching PR (58.6 s -> ~10 s for
``pytest tests/fhe``), see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit

from repro.analysis import format_table
from repro.fhe.keyswitch import mod_down_pair
from repro.fhe.ntt import BatchedNttContext
from repro.fhe.poly import EVAL, RnsPoly, batch_rescale
from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis
from tests.fhe.oracles import NttContext, mod_down, rescale

DEGREE, LIMBS, AUX = 4096, 8, 4


def _best_of(fn, reps=3, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _measure():
    primes = tuple(find_ntt_primes(LIMBS + AUX, 30, DEGREE))
    basis = RnsBasis(primes[:LIMBS])
    aux = RnsBasis(primes[LIMBS:])
    target = basis.extend(aux)
    rng = np.random.default_rng(7)
    data = np.stack([
        rng.integers(0, q, DEGREE, dtype=np.uint64) for q in basis
    ])
    batched = BatchedNttContext.get(basis.moduli, DEGREE)
    limbs = [NttContext.get(q, DEGREE) for q in basis.moduli]
    poly = RnsPoly(basis, data, EVAL)
    pair = [poly, RnsPoly(basis, data * np.uint64(3) % basis.moduli_col, EVAL)]
    wide = [
        RnsPoly(target, np.stack([
            rng.integers(0, q, DEGREE, dtype=np.uint64) for q in target
        ]), EVAL)
        for _ in range(2)
    ]

    rows = {}

    def add(name, reference, batched_fn):
        ref_t = _best_of(reference)
        bat_t = _best_of(batched_fn)
        rows[name] = (ref_t * 1e3, bat_t * 1e3, ref_t / bat_t)

    add("forward NTT (all limbs)",
        lambda: [c.forward(data[i]) for i, c in enumerate(limbs)],
        lambda: batched._forward(data))
    add("inverse NTT (all limbs)",
        lambda: [c.inverse(data[i]) for i, c in enumerate(limbs)],
        lambda: batched._inverse(data))
    add("rescale (ciphertext pair)",
        lambda: [rescale(p) for p in pair],
        lambda: batch_rescale(pair))
    acc = np.stack([p.data for p in wide])
    add("ModDown (ciphertext pair)",
        lambda: (mod_down(wide[0], basis, aux), mod_down(wide[1], basis, aux)),
        lambda: mod_down_pair(acc, basis, aux))
    add("automorphism (EVAL domain)",
        lambda: poly.to_coeff().automorphism(5).to_eval(),
        lambda: poly.automorphism(5))
    return rows


def test_fhe_speedup():
    results = _measure()
    table_rows = [
        [name, f"{ref:.2f}", f"{bat:.2f}", f"{ratio:.2f}x"]
        for name, (ref, bat, ratio) in results.items()
    ]
    emit("fhe_speedup", format_table(
        ["kernel", "per-limb oracle ms", "batched ms", "speedup"],
        table_rows,
        title=(f"Limb-batched CKKS kernels vs per-limb oracles "
               f"(N={DEGREE}, L={LIMBS}, best-of timing)"),
    ))
    # Batching never loses to the per-limb loop it replaced.
    for name, (_, _, ratio) in results.items():
        assert ratio > 1.0, f"{name}: batched kernel slower than oracle"
