"""Dispatch budget of the serving-shape CKKS ops.

At serve's shape (N=256, L=5, one-digit keyswitching) an op's cost is
mostly per-call numpy dispatch, so the number of batched transforms and
base conversions it runs *is* its cost model.  These counts come from
the ``fhe.ntt.*``, ``fhe.batch.ntt_rows`` and ``fhe.cache.conversion.*``
counters and involve no timing: a refactor that splits a batched call in
two, or adds a round trip, fails here deterministically.

A rotation is ModUp (the c1 INTT over Q, one conversion Q -> P, the NTT
over P) then ModDown of both accumulators (one INTT over P, one
conversion P -> Q, one NTT over Q, each stacked over both halves):
4 transforms of 5 + 5 + 10 + 10 = 30 rows and 2 conversions.  A pmult
with a memoized plaintext is a multiply and a lazy rescale: the INTT of
both halves' last limb and the NTT of both corrections, 2 + 8 rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe.ckks import CkksContext, CkksParams
from repro.fhe.hoisting import HoistedRotator
from repro.obs import collector as obs
from repro.reliability import guards
from repro.serve import ServeConfig


def _budget(fn) -> tuple[float, float, float]:
    """(transforms, NTT rows, base conversions) one call of ``fn`` runs."""
    with obs.collecting() as col:
        fn()
    c = col.counters
    return (c.get("fhe.ntt.forward", 0) + c.get("fhe.ntt.inverse", 0),
            c.get("fhe.batch.ntt_rows", 0),
            c.get("fhe.cache.conversion.hit", 0)
            + c.get("fhe.cache.conversion.miss", 0))


@pytest.fixture(scope="module")
def serving():
    """A context at the server's shape and policy, with the integrity
    checks the server runs every batch under."""
    cfg = ServeConfig()
    ctx = CkksContext(
        CkksParams(degree=cfg.degree, max_level=cfg.max_level, digits=1,
                   secret_hamming=max(8, cfg.degree // 16), seed=cfg.seed),
        policy=guards.ReliabilityPolicy(checksums=True))
    sk = ctx.keygen()
    ct = ctx.encrypt_values(sk, np.linspace(-1, 1, ctx.params.slots))
    integ = guards.IntegrityConfig()
    with guards.integrity(integ):
        yield ctx, sk, ct


def test_serving_shape_is_five_limbs_at_n256(serving):
    ctx, _, ct = serving
    assert (ctx.params.degree, ct.level, ctx.params.digits) == (256, 5, 1)


def test_rotation_runs_four_transforms_and_two_conversions(serving):
    ctx, sk, ct = serving
    hint = ctx.rotation_hint(sk, 3)
    ctx.rotate(ct, 3, hint)  # warm every table the op touches
    assert _budget(lambda: ctx.rotate(ct, 3, hint)) == (4, 30, 2)


def test_hoisted_rotation_runs_only_the_moddown(serving):
    """The rotator's shared ModUp leaves each rotation the ModDown: one
    stacked INTT, one conversion, one stacked NTT."""
    ctx, sk, ct = serving
    hint = ctx.rotation_hint(sk, 5)
    rotator = HoistedRotator(ctx, ct, alpha=ctx.params.alpha)
    assert _budget(lambda: rotator.rotate(5, hint)) == (2, 20, 1)


def test_pmult_runs_two_transforms(serving):
    ctx, _, ct = serving
    cache = {}
    values = np.linspace(0, 1, ctx.params.slots)
    ctx.pmult(ct, values, cache=cache, cache_key="w")  # memoize the encode
    assert _budget(lambda: ctx.pmult(ct, values, cache=cache,
                                     cache_key="w")) == (2, 10, 0)
