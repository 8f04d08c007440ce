"""Cross-tenant slot packing: N queries in one ciphertext.

CraterLake-class chips amortize their cost by batching: one CKKS
ciphertext at N=65536 carries 32K slots, far more than one query needs.
The serving front-end therefore packs up to ``max_batch`` tenant queries
into a single ciphertext, one ``block_slots``-wide block per query, and
runs the workload *once* over the shared vector.  Per-tenant results
come back out at the block-start readout slots (see
:mod:`repro.workloads.serving` for why those slots never mix tenants).

Payload validation lives here too, on purpose: the packer is the last
gate before a tenant's numbers enter a *shared* ciphertext, and the
CKKS encoder is a global transform - one tenant's NaN or 1e30 outlier
destroys every co-packed tenant's slots, not just its own.  Invalid
payloads are therefore rejected at admission with
:class:`~repro.reliability.errors.ParameterError` (tenant-attributable:
they count against that tenant's circuit breaker), and the packer can
assume every vector it packs is already clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.reliability.errors import ParameterError
from repro.serve.config import PAYLOAD_LIMIT
from repro.serve.request import Request


@dataclass
class BatchLayout:
    """Where each request of one batch lives in the shared ciphertext."""

    requests: list[Request]
    block_slots: int

    @property
    def occupancy(self) -> int:
        return len(self.requests)

    def readout_slot(self, i: int) -> int:
        return i * self.block_slots


class SlotPacker:
    """Packs validated tenant payloads into one slot vector."""

    def __init__(self, slots: int, block_slots: int, max_batch: int):
        self.slots = slots
        self.block_slots = block_slots
        self.max_batch = max_batch

    # -- admission-side validation (tenant-attributable on failure) --------

    def validate_payload(self, payload) -> np.ndarray:
        """Return the payload as a clean float vector or raise
        :class:`ParameterError` describing exactly what was wrong."""
        try:
            vec = np.asarray(payload, dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ParameterError("payload is not numeric",
                                 detail=str(exc)) from None
        if vec.size != self.block_slots:
            raise ParameterError(
                "payload length must equal the tenant block size",
                got=int(vec.size), expected=self.block_slots)
        if not np.all(np.isfinite(vec)):
            raise ParameterError(
                "payload contains non-finite values; a NaN/inf in one "
                "tenant's block corrupts every co-packed tenant",
                bad=int(np.sum(~np.isfinite(vec))))
        peak = float(np.max(np.abs(vec))) if vec.size else 0.0
        if peak > PAYLOAD_LIMIT:
            raise ParameterError(
                "payload magnitude exceeds the admission limit",
                peak=peak, limit=PAYLOAD_LIMIT)
        return vec

    # -- pack / unpack -----------------------------------------------------

    def pack(self, requests: list[Request]) -> tuple[np.ndarray, BatchLayout]:
        """One slot vector with request i's payload in block i.

        Unused blocks stay zero - they contribute nothing to any cyclic
        reduction window that crosses into them.
        """
        if not requests:
            raise ParameterError("cannot pack an empty batch")
        if len(requests) > self.max_batch:
            raise ParameterError("batch exceeds packing capacity",
                                 got=len(requests), max_batch=self.max_batch)
        vec = np.zeros(self.slots)
        for i, req in enumerate(requests):
            lo = i * self.block_slots
            vec[lo:lo + self.block_slots] = req.payload
        return vec, BatchLayout(list(requests), self.block_slots)

    def unpack(self, decoded: np.ndarray, layout: BatchLayout) -> list[float]:
        """Per-request scores from the decrypted slot vector.

        Request i's answer is the real part of its block-start slot -
        the one slot whose reduction window is exactly its own block.
        """
        return [float(np.real(decoded[layout.readout_slot(i)]))
                for i in range(layout.occupancy)]
