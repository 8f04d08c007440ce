"""Perf-regression gate for the limb-batched kernels.

Times the batched kernel against the per-limb/per-poly reference oracle
(``tests/fhe/oracles.py``) *in the same process on the same data* at a fixed shape (N=4096, L=8),
the NTT alone at the serving shapes (N=256, 5 and 10 limbs), and the
keyswitch's base conversion and stacked ModDown at serve's shape (N=256,
5 limbs each side), and fails if a speedup ratio drops below the floor
recorded in ``tests/baselines/fhe_perf_floor.json``.  Because both sides run on the
same machine in the same run, the gate is machine-relative: absolute
speed does not matter, only the batching advantage.  A refactor that
quietly reintroduces a per-limb Python loop drives the ratio to ~1.0
and fails every floor.

Timing discipline: best-of-N (minimum over rounds) is the standard way
to reject scheduler noise when gating on ratios; both sides use it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fhe.keyswitch import mod_down_pair
from repro.fhe.ntt import BatchedNttContext
from repro.fhe.poly import COEFF, EVAL, RnsPoly, batch_rescale
from repro.fhe.primes import find_ntt_primes
from repro.fhe.rns import RnsBasis

from tests.fhe.oracles import NttContext, change_basis, mod_down, rescale

FLOOR_FILE = Path(__file__).parent.parent / "baselines" / "fhe_perf_floor.json"
SPEC = json.loads(FLOOR_FILE.read_text())


def _shape(degree: int, limbs: int):
    primes = tuple(find_ntt_primes(limbs, 30, degree))
    rng = np.random.default_rng(2024)
    data = np.stack([
        rng.integers(0, q, degree, dtype=np.uint64) for q in primes
    ])
    return RnsBasis(primes), data


@pytest.fixture(scope="module")
def gate():
    return (SPEC["floors"],) + _shape(SPEC["degree"], SPEC["limbs"])


def _best_of(fn, reps: int = 3, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _check_ntt_floors(floors, basis, data, reps: int) -> None:
    batched = BatchedNttContext.get(basis.moduli, data.shape[1])
    limbs = [NttContext.get(q, data.shape[1]) for q in basis.moduli]

    def per_limb_forward():
        return np.stack([c.forward(data[i]) for i, c in enumerate(limbs)])

    def per_limb_inverse():
        return np.stack([c.inverse(data[i]) for i, c in enumerate(limbs)])

    shape = f"N={data.shape[1]}, L={len(limbs)}"
    fwd_ratio = _best_of(per_limb_forward, reps) / _best_of(
        lambda: batched._forward(data), reps)
    inv_ratio = _best_of(per_limb_inverse, reps) / _best_of(
        lambda: batched._inverse(data), reps)
    assert fwd_ratio >= floors["ntt_forward"], (
        f"batched forward NTT speedup {fwd_ratio:.2f}x at {shape} fell "
        f"below the floor {floors['ntt_forward']}x - a per-limb loop or "
        "radix-2 butterflies crept back in?"
    )
    assert inv_ratio >= floors["ntt_inverse"], (
        f"batched inverse NTT speedup {inv_ratio:.2f}x at {shape} fell "
        f"below the floor {floors['ntt_inverse']}x"
    )


def test_batched_ntt_beats_per_limb_floor(gate):
    _check_ntt_floors(*gate, reps=3)


@pytest.mark.parametrize(
    "shape", SPEC["serving_shapes"],
    ids=lambda s: f"N{s['degree']}-L{s['limbs']}")
def test_batched_ntt_beats_per_limb_floor_at_serving_shape(shape):
    # Small transforms: more repetitions per timing round.
    _check_ntt_floors(shape["floors"],
                      *_shape(shape["degree"], shape["limbs"]), reps=30)


def test_batch_rescale_beats_per_poly_floor(gate):
    floors, basis, data = gate
    polys = [
        RnsPoly(basis, data, EVAL),
        RnsPoly(basis, data * np.uint64(3) % basis.moduli_col, EVAL),
    ]
    ratio = _best_of(lambda: [rescale(p) for p in polys]) / _best_of(
        lambda: batch_rescale(polys))
    assert ratio >= floors["rescale"], (
        f"batch_rescale speedup {ratio:.2f}x fell below the floor "
        f"{floors['rescale']}x - lazy transforms regressed?"
    )


def test_eval_automorphism_beats_roundtrip_floor(gate):
    floors, basis, data = gate
    poly = RnsPoly(basis, data, EVAL)
    k = 5

    def roundtrip():
        return poly.to_coeff().automorphism(k).to_eval()

    ratio = _best_of(roundtrip) / _best_of(lambda: poly.automorphism(k))
    assert ratio >= floors["eval_automorphism"], (
        f"EVAL-domain automorphism speedup {ratio:.2f}x fell below the "
        f"floor {floors['eval_automorphism']}x - rotations are paying "
        "for NTTs again?"
    )


@pytest.fixture(scope="module")
def keyswitch_gate():
    spec = SPEC["serving_keyswitch"]
    limbs = spec["limbs"]
    basis, data = _shape(spec["degree"], 2 * limbs)
    return spec["floors"], basis[:limbs], basis[limbs:], data


def test_convert_approx_beats_per_term_floor_at_serving_shape(keyswitch_gate):
    floors, src, dest, data = keyswitch_gate
    rows = data[:len(src)]
    poly = RnsPoly(src, rows, COEFF)
    ratio = _best_of(lambda: change_basis(poly, dest), reps=30) / _best_of(
        lambda: src.convert_approx(rows, dest), reps=30)
    assert ratio >= floors["convert_approx"], (
        f"convert_approx speedup {ratio:.2f}x fell below the floor "
        f"{floors['convert_approx']}x - the BLAS MAC regressed?"
    )


def test_stacked_mod_down_beats_per_poly_floor_at_serving_shape(
        keyswitch_gate):
    floors, q_basis, aux_basis, data = keyswitch_gate
    target = q_basis.extend(aux_basis)
    acc = np.stack([data, data * np.uint64(3) % target.moduli_col])
    polys = [RnsPoly(target, half, EVAL) for half in acc]
    ratio = _best_of(
        lambda: [mod_down(p, q_basis, aux_basis) for p in polys], reps=30
    ) / _best_of(lambda: mod_down_pair(acc, q_basis, aux_basis), reps=30)
    assert ratio >= floors["mod_down"], (
        f"stacked ModDown speedup {ratio:.2f}x fell below the floor "
        f"{floors['mod_down']}x - the accumulator is being split again?"
    )
