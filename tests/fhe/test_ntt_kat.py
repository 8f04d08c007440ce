"""Known-answer vectors for the negacyclic NTT.

``kat/ntt_kat.json`` was generated once from the per-limb radix-2
``NttContext`` (now the oracle in ``oracles.py``) and is frozen: the
transform is pinned
by data, not by a second implementation.  The four-step
:class:`~repro.fhe.ntt.BatchedNttContext` must reproduce every vector,
alone, stacked over the limb axis, and with a leading batch axis.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fhe.ntt import BatchedNttContext

from tests.fhe.oracles import NttContext

KAT = json.loads((Path(__file__).parent / "kat" / "ntt_kat.json").read_text())


def _input(q: int, n: int) -> np.ndarray:
    return np.array([(i * 2654435761 + 97) * (i + 12345) % q
                     for i in range(n)], dtype=np.uint64)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<u8").tobytes()).hexdigest()


def _cases():
    by_degree: dict[int, list[dict]] = {}
    for case in KAT["cases"]:
        by_degree.setdefault(case["degree"], []).append(case)
    return [pytest.param(n, cases, id=f"N{n}")
            for n, cases in sorted(by_degree.items())]


def _matches(got: np.ndarray, case: dict, key: str) -> bool:
    if key in case:
        return [int(v) for v in got] == case[key]
    return _digest(got) == case[f"{key}_sha256"]


@pytest.mark.parametrize("degree,cases", _cases())
def test_kat_covers_both_prime_widths(degree, cases):
    bits = sorted(int(c["modulus"]).bit_length() for c in cases)
    assert bits == [28, 30]
    for case in cases:
        x = _input(case["modulus"], degree)
        if "input" in case:
            assert [int(v) for v in x] == case["input"]
        else:
            assert _digest(x) == case["input_sha256"]


@pytest.mark.parametrize("degree,cases", _cases())
def test_batched_ntt_reproduces_kat(degree, cases):
    moduli = [c["modulus"] for c in cases]
    ctx = BatchedNttContext.get(moduli, degree)
    x = np.stack([_input(q, degree) for q in moduli])          # (L, N)
    fwd, inv = ctx.forward(x), ctx.inverse(x)
    for i, case in enumerate(cases):
        assert _matches(fwd[i], case, "forward"), case["modulus"]
        assert _matches(inv[i], case, "inverse"), case["modulus"]
        # One limb on its own takes the same path.
        single = BatchedNttContext.get((case["modulus"],), degree)
        assert np.array_equal(single.forward(x[i:i + 1])[0], fwd[i])
    # (2, L, N): a leading batch axis, each slice with a known answer.
    assert np.array_equal(ctx.forward(np.stack([x, inv])),
                          np.stack([fwd, x]))
    assert np.array_equal(ctx.inverse(np.stack([x, fwd])),
                          np.stack([inv, x]))


@pytest.mark.parametrize("degree", [16, 256])
def test_reference_oracle_reproduces_kat(degree):
    """The per-limb oracle the vectors came from still agrees."""
    for case in KAT["cases"]:
        if case["degree"] != degree:
            continue
        ctx = NttContext.get(case["modulus"], degree)
        x = np.array(case["input"], dtype=np.uint64)
        assert [int(v) for v in ctx.forward(x)] == case["forward"]
        assert [int(v) for v in ctx.inverse(x)] == case["inverse"]
