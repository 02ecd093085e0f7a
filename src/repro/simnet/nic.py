"""Network interface with a FIFO egress queue.

The NIC is where the paper's loss injection lives (a ``tc`` FIFO queue in
front of the hardware, §VI.A.2), so the egress path is modelled
explicitly:

1. the protocol stack enqueues a frame (drop-tail if the queue is full,
   a drop by the loss model or the fault model if one is attached — all
   before any wire time is spent, like ``tc``);
2. an admitted frame's transmit schedule is fixed on the spot: the
   transmitter serializes frames back to back in admission order, so
   serialization starts at ``max(now, tx_free_at)`` and takes
   ``wire_size * 8 / bandwidth``;
3. the frame's arrival at the link peer (serialization finish plus
   propagation delay) is scheduled at admission — one engine event per
   frame per hop.

The FIFO is represented by the serialization start times of the frames
that have not started yet.  **Tie rule:** a frame leaves the FIFO at the
instant its serialization starts, so an admission at that same
nanosecond already sees it gone.  Because the schedule is fixed at
admission, ``tx_frames``/``tx_bytes``, the link counters and the
tracer's ``"tx"`` record are taken when a frame is admitted, not when
its serialization finishes.

Reception is passive: arriving frames are handed to the owner (host or
switch) immediately; receive-side CPU costs are charged by the protocol
stacks, which know what processing each frame actually needs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..obs import sim_registry
from .engine import Simulator
from .faults import FaultModel
from .link import Link
from .packet import Frame


class NicPort:
    """One port: egress queue + transmitter + attachment to a link."""

    #: Counters exported through :meth:`repro.obs.Registry.expose`.
    OBS_FIELDS = (
        ("simnet.port.tx_frames", "counter", "tx_frames"),
        ("simnet.port.tx_bytes", "counter", "tx_bytes"),
        ("simnet.port.rx_frames", "counter", "rx_frames"),
        ("simnet.port.rx_bytes", "counter", "rx_bytes"),
        ("simnet.port.drops_queue_full", "counter", "drops_queue_full"),
        ("simnet.port.drops_loss_model", "counter", "drops_loss_model"),
        ("simnet.port.drops_fault", "counter", "drops_fault"),
        ("simnet.port.dup_frames", "counter", "dup_frames"),
        ("simnet.port.held_frames", "counter", "held_frames"),
        ("simnet.port.queue_hwm", "gauge", "queue_hwm"),
        ("simnet.loss.", "counter", "loss_stats"),
        ("simnet.faults.", "counter", "fault_stats"),
    )

    def __init__(
        self,
        sim: Simulator,
        owner,
        name: str = "nic",
        queue_frames: int = 1000,
    ):
        if queue_frames < 1:
            raise ValueError(f"queue must hold at least one frame, got {queue_frames}")
        self.sim = sim
        self.owner = owner                     # object with .on_frame(frame, port)
        self.name = name
        self.queue_frames = queue_frames
        self.link: Optional[Link] = None
        self.loss_model: Optional[FaultModel] = None
        self.fault_model: Optional[FaultModel] = None
        # Serialization start times of admitted frames that have not
        # started yet (the FIFO's occupants), oldest first.
        self._waiting: Deque[int] = deque()
        self._tx_free_at = 0                   # when the transmitter goes idle
        self._peer: Optional["NicPort"] = None  # lazily cached link peer
        # Counters for tests and reports.
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.drops_queue_full = 0
        self.drops_loss_model = 0
        self.drops_fault = 0
        self.dup_frames = 0
        self.held_frames = 0
        self.queue_hwm = 0                     # egress queue high-water mark
        self.tracer = None                     # optional repro.simnet.trace.Tracer
        sim_registry(sim).expose(self, {"port": name}, self.OBS_FIELDS)

    # -- egress -----------------------------------------------------------

    def enqueue(self, frame: Frame) -> bool:
        """Queue a frame for transmission.  Returns False if dropped.

        A frame held back by the fault model (delay/reorder) counts as
        accepted: it enters the FIFO when its hold time elapses.
        """
        if self.link is None:
            raise RuntimeError(f"port {self.name!r} is not cabled to a link")
        loss = self.loss_model
        if loss is not None and not loss.admit(frame, self.sim.now):
            self.drops_loss_model += 1
            if self.tracer:
                self.tracer.record("drop.loss", port=self.name, frame=frame)
            return False
        if self.fault_model is None:
            return self._admit(frame)
        emissions = self.fault_model.admit(frame, self.sim.now)
        if not emissions:
            self.drops_fault += 1
            if self.tracer:
                self.tracer.record("drop.fault", port=self.name, frame=frame)
            return False
        if len(emissions) > 1:
            self.dup_frames += len(emissions) - 1
        accepted = False
        for delay, out in emissions:
            if delay <= 0:
                accepted = self._admit(out) or accepted
            else:
                self.held_frames += 1
                self.sim.schedule(delay, self._admit, out)
                accepted = True
        return accepted

    def _admit(self, frame: Frame) -> bool:
        """Append to the egress FIFO (drop-tail), fix the frame's transmit
        schedule and schedule its arrival at the link peer."""
        now = self.sim.now
        waiting = self._waiting
        while waiting and waiting[0] <= now:
            waiting.popleft()              # started serializing by now
        depth = len(waiting)
        if depth >= self.queue_frames:
            self.drops_queue_full += 1
            if self.tracer:
                self.tracer.record("drop.queue", port=self.name, frame=frame)
            return False
        if depth >= self.queue_hwm:
            self.queue_hwm = depth + 1
        start = self._tx_free_at
        if start > now:
            waiting.append(start)
        else:
            start = now
        link = self.link
        size = frame.wire_size
        finish = start + link.serialization_ns(size)
        self._tx_free_at = finish
        self.tx_frames += 1
        self.tx_bytes += size
        link.frames += 1
        link.bytes += size
        if self.tracer:
            self.tracer.record("tx", port=self.name, frame=frame)
        peer = self._peer
        if peer is None:
            peer = self._peer = link.peer_of(self)
        self.sim.call_at(finish + link.delay_ns, peer.deliver, frame)
        return True

    # -- ingress ----------------------------------------------------------

    def deliver(self, frame: Frame) -> None:
        """Called by the link when a frame fully arrives at this port."""
        self.rx_frames += 1
        self.rx_bytes += frame.wire_size
        if self.tracer:
            self.tracer.record("rx", port=self.name, frame=frame)
        self.owner.on_frame(frame, self)

    # -- configuration ----------------------------------------------------

    def set_loss_model(self, model: Optional[FaultModel]) -> None:
        """Attach a loss stage (``BernoulliLoss``, ``ExplicitLoss``):
        only its drop decision is read, and its drops count as
        ``drops_loss_model``.  None detaches."""
        self.loss_model = model

    def set_fault_model(self, model: Optional[FaultModel]) -> None:
        """Attach a composable fault model (reorder/dup/delay/flap) at
        the same egress point, after the loss stage; None detaches."""
        self.fault_model = model

    def queue_depth(self) -> int:
        """Frames admitted but not yet serializing as of ``now``."""
        now = self.sim.now
        return sum(1 for start in self._waiting if start > now)

    # -- metrics -----------------------------------------------------------

    @property
    def loss_stats(self) -> Optional[Dict[str, int]]:
        """The attached loss model's counters, if one is attached."""
        return None if self.loss_model is None else self.loss_model.stats()

    @property
    def fault_stats(self) -> Optional[Dict[str, int]]:
        """The attached fault model's counters, if one is attached."""
        return None if self.fault_model is None else self.fault_model.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NicPort {self.name!r} q={self.queue_depth()} tx={self.tx_frames} rx={self.rx_frames}>"


def cable(sim: Simulator, port_a: NicPort, port_b: NicPort, link: Link) -> Link:
    """Wire two ports together with ``link``."""
    link.attach(port_a, port_b)
    port_a.link = link
    port_b.link = link
    sim_registry(sim).expose(
        link, {"link": link.name or f"{port_a.name}-{port_b.name}"}, link.OBS_FIELDS
    )
    return link
