"""Packet-loss models.

The paper injects loss with Linux ``tc``: a FIFO queue that "normally
dequeues messages as fast as they can be delivered to the underlying
hardware was configured to drop packets at a defined rate" (§VI.A.2).
We attach loss models at the same point — the NIC egress queue — so a
dropped packet never consumes wire time, exactly like ``tc`` netem.

A loss model is a :class:`~repro.simnet.faults.FaultModel` stage whose
only effect is a drop: it emits the offered frame unchanged
(``[(0, frame)]``) or not at all (``[]``).  So it attaches to a port on
its own (:meth:`~repro.simnet.nic.NicPort.set_loss_model`) or composes
with reorder/dup/delay/flap in a
:class:`~repro.simnet.faults.FaultPipeline`, and keeps the shared
``seen``/``dropped`` counters.  All models draw from their own seeded
:class:`random.Random` so loss patterns are reproducible and independent
of any other randomness.
"""

from __future__ import annotations

import random
from typing import Iterable, List

from .faults import Emission, FaultModel
from .packet import Frame


class BernoulliLoss(FaultModel):
    """Independent drop with probability ``rate`` — the model the paper's
    ``tc`` configuration implements (0.1 %, 0.5 %, 1 %, 5 % in Figs. 7–8)."""

    def __init__(self, rate: float, seed: int = 0):
        super().__init__()
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        if self.rate > 0.0 and self._rng.random() < self.rate:
            return []
        return [(0, frame)]


class ExplicitLoss(FaultModel):
    """Drop exactly the frames whose 1-based egress index is listed.

    The sharpest tool for unit tests: "drop frames 3 and 7" is stated
    directly instead of being reverse-engineered from probabilities.
    """

    def __init__(self, indices: Iterable[int]):
        super().__init__()
        self.indices = set(int(i) for i in indices)
        if any(i < 1 for i in self.indices):
            raise ValueError("frame indices are 1-based")

    def _admit(self, frame: Frame, now: int) -> List[Emission]:
        # ``admit`` counted this frame already: ``seen`` is its index.
        return [] if self.seen in self.indices else [(0, frame)]


class BitErrorModel:
    """Per-datagram payload corruption.

    Models wire corruption that slips past link-layer checks — precisely
    the failure datagram-iWARP's mandatory CRC32 exists to catch
    (§IV.B item 6), especially with the UDP checksum disabled as the
    paper recommends.  ``apply`` returns the (possibly corrupted) bytes;
    the original buffer is never mutated because in-flight data is
    shared with the sender in the simulation.
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"corruption rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed ^ 0x5EED)
        self.corrupted = 0
        self.seen = 0

    def apply(self, data: bytes) -> bytes:
        self.seen += 1
        if not data or self.rate <= 0.0 or self._rng.random() >= self.rate:
            return data
        self.corrupted += 1
        index = self._rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[index] ^= 1 << self._rng.randrange(8)
        return bytes(flipped)
