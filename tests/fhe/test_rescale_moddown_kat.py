"""Known-answer vectors for the rescale and ModDown kernels.

``kat/rescale_moddown_kat.json`` was generated once from the
per-polynomial oracles (``rescale`` and ``mod_down`` in ``oracles.py``)
and is frozen: ``batch_rescale`` and ``mod_down_pair`` must reproduce
every vector on both halves of a ciphertext pair, for 28- and 30-bit
chains, and ``batch_rescale`` in both domains.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fhe.keyswitch import mod_down_pair
from repro.fhe.poly import EVAL, RnsPoly, batch_rescale
from repro.fhe.rns import RnsBasis

from tests.fhe.oracles import mod_down, rescale

KAT = json.loads(
    (Path(__file__).parent / "kat" / "rescale_moddown_kat.json").read_text())


def _input(moduli, degree: int) -> np.ndarray:
    """The (2, L, N) ciphertext-pair input the JSON comment defines."""
    return np.array([[[((i + 1000 * j + 7919 * p) * 2654435761 + 97)
                       * (i + 12345) % q for i in range(degree)]
                      for j, q in enumerate(moduli)] for p in (0, 1)],
                    dtype=np.uint64)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<u8").tobytes()).hexdigest()


def _matches(got: np.ndarray, case: dict, key: str) -> bool:
    if key in case:
        return got.tolist() == case[key]
    return _digest(got) == case[f"{key}_sha256"]


def _cases(kernel: str):
    return [pytest.param(c, id=f"{c['domain']}-N{c['degree']}-"
                         f"{int(c['moduli'][0]).bit_length()}bit")
            for c in KAT["cases"] if c["kernel"] == kernel]


def _setup(case):
    moduli = case["moduli"] + case.get("aux_moduli", [])
    x = _input(moduli, case["degree"])
    assert _matches(x, case, "input")
    return x, RnsBasis(case["moduli"])


def test_kat_covers_both_kernels_widths_and_domains():
    seen = {(c["kernel"], c["domain"], int(c["moduli"][0]).bit_length(),
             c["degree"]) for c in KAT["cases"]}
    assert seen == {(k, d, b, n) for b in (28, 30) for n in (16, 256)
                    for k, d in (("rescale", "coeff"), ("rescale", "eval"),
                                 ("mod_down", "eval"))}


@pytest.mark.parametrize("case", _cases("rescale"))
def test_batch_rescale_reproduces_kat(case):
    x, basis = _setup(case)
    polys = [RnsPoly(basis, x[p], case["domain"]) for p in (0, 1)]
    got = batch_rescale(polys)
    assert all(g.domain == case["domain"] for g in got)
    assert _matches(np.stack([g.data for g in got]), case, "output")
    # The oracle the vectors came from still agrees.
    assert _matches(np.stack([rescale(p).data for p in polys]), case,
                    "output")


@pytest.mark.parametrize("case", _cases("mod_down"))
def test_mod_down_pair_reproduces_kat(case):
    x, q_basis = _setup(case)
    aux_basis = RnsBasis(case["aux_moduli"])
    target = q_basis.extend(aux_basis)
    polys = [RnsPoly(target, x[p], EVAL) for p in (0, 1)]
    got = mod_down_pair(x, q_basis, aux_basis)
    assert _matches(np.stack([g.data for g in got]), case, "output")
    assert _matches(
        np.stack([mod_down(p, q_basis, aux_basis).data for p in polys]),
        case, "output")
