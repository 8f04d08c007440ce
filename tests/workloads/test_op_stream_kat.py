"""Known answers for the emitted op streams.

``kat/op_stream_kat.json`` holds a sha256 over ``repr(astuple(op))`` of
every op, in stream order, of each ``ALL_BENCHMARKS`` program at security
80 and 128: the plain stream the workload emits and the stream
``compile_program(cache=None)`` lowers it to.  ``combined`` hashes every
stream in the file's order (security 80, then 128; benchmarks in
``ALL_BENCHMARKS`` order) through one hasher.  ``repr`` of each field
round-trips, so an unchanged digest means every op - kind, level, names,
operands, hint and plaintext ids, digits, tag, steps, repeat - is
unchanged.  The vectors are frozen: a stream that stops matching is a
workload or compiler pass whose output moved.

Regenerate (only for a declared change to the streams) with
``PYTHONPATH=src python tests/workloads/test_op_stream_kat.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import pytest

from repro.compiler.cache import compile_program
from repro.ir import HomOp
from repro.workloads import ALL_BENCHMARKS, benchmark

KAT_PATH = Path(__file__).parent / "kat" / "op_stream_kat.json"
SECURITIES = (80, 128)
KINDS = ("plain", "compiled")
STREAMS = [f"{name}/{sec}" for sec in SECURITIES for name in ALL_BENCHMARKS]
# An op's field values in field order: the tuple ``astuple(op)`` builds,
# without its per-field deep copy.
_FIELDS = attrgetter(*(f.name for f in fields(HomOp)))


def _digests() -> dict:
    """Every stream's digest, plus the combined digest per kind."""
    combined = {kind: hashlib.sha256() for kind in KINDS}
    streams = {}
    for sec in SECURITIES:
        for name in ALL_BENCHMARKS:
            plain = benchmark(name, security=sec)
            entry = {}
            for kind, program in (
                    ("plain", plain),
                    ("compiled", compile_program(plain, cache=None))):
                own = hashlib.sha256()
                for op in program.ops:
                    line = repr(_FIELDS(op)).encode()
                    own.update(line)
                    combined[kind].update(line)
                entry[kind] = own.hexdigest()
            streams[f"{name}/{sec}"] = entry
    return {"combined": {k: h.hexdigest() for k, h in combined.items()},
            "streams": streams}


@pytest.fixture(scope="module")
def digests() -> dict:
    return _digests()


@pytest.fixture(scope="module")
def kat() -> dict:
    return json.loads(KAT_PATH.read_text())


def test_kat_covers_every_stream(kat):
    assert list(kat["streams"]) == STREAMS


@pytest.mark.parametrize("stream", STREAMS)
def test_op_stream_matches_kat(stream, digests, kat):
    assert digests["streams"][stream] == kat["streams"][stream]


def test_combined_digest_matches_kat(digests, kat):
    assert digests["combined"] == kat["combined"]


if __name__ == "__main__":
    KAT_PATH.write_text(json.dumps(_digests(), indent=1) + "\n")
