"""The benchmark's four workloads: which points they run and how one
point is driven.

A *point* is one figure sample: a fresh testbed, one measurement on it,
and the simulated outcome that measurement produced.  Each workload is a
fixed list of points (a figure sweep); the workload seed only permutes
their order, draws the Bernoulli loss seeds, and draws the payload bytes
the senders transmit.  Nothing else about a workload reaches the
program: it sees ordinary harness calls with generated arguments.

Loop type: every workload is a closed loop.  Points run back to back,
one at a time, and inside a point the next message goes out only when
the window (given per workload below) has room.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.apps.sip.client as sip_client
import repro.apps.sip.workload as sip_workload
from repro.bench.harness import VerbsEndpointPair
from repro.simnet.loss import BernoulliLoss

DEFAULT_SEED = 1

#: The four bulk/latency modes of Figs. 5-6 (§VI.A).
VERBS_MODES = ("ud_sendrecv", "ud_write_record", "rc_sendrecv", "rc_rdma_write")


@dataclass(frozen=True)
class Point:
    """One figure sample.  ``key`` names it in golden files and spans."""

    kind: str                 # stream | pingpong | sip_seq | sip_ramp
    mode: str
    size: int = 0             # message bytes (verbs kinds)
    count: int = 0            # messages / round trips / calls / held calls
    window: int = 1
    loss: float = 0.0
    loss_seed: int = 0

    @property
    def key(self) -> str:
        parts = [self.kind, self.mode, str(self.size), str(self.count)]
        if self.loss:
            parts += [f"loss{self.loss:g}", f"s{self.loss_seed}"]
        return "/".join(parts)


@dataclass
class Outcome:
    """What one point simulated.  ``digest()`` is the part a golden file
    pins: everything but event counts, which engine work may change."""

    sim_ns: int
    payload_bytes: int        # application payload delivered
    msgs: int                 # messages / round trips / calls delivered
    partial: int              # partially placed messages (Write-Record)
    drops: int                # frames dropped anywhere (loss, queue, fault)
    retransmits: int          # LLP retransmissions (RUDP or TCP)
    result: float             # MB/s, one-way us, mean response ms, or hwm bytes
    extra: Dict[str, int]

    def digest(self) -> Dict[str, Any]:
        return {
            "sim_ns": self.sim_ns, "payload_bytes": self.payload_bytes,
            "msgs": self.msgs, "partial": self.partial, "drops": self.drops,
            "retransmits": self.retransmits, "result": round(self.result, 6),
            **self.extra,
        }


@dataclass
class PointRun:
    """A point after it ran: outcome, wall times and its correctness."""

    point: Point
    build_s: float
    wall_s: float
    events: int
    outcome: Optional[Outcome]
    errors: List[str]
    bed: Any = None           # kept only until the checks have read it

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Inputs:
    """Generated inputs of one run: point order and payload bytes."""

    points: List[Point]
    payload: Tuple[bytes, bytes]   # host 0 / host 1 send buffers


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (want one of {WORKLOADS})")
    rng = random.Random(f"{workload}:{seed}")
    points = _POINTS[workload](rng)
    rng.shuffle(points)
    n = VerbsEndpointPair.MAX_MSG
    return Inputs(points, (rng.randbytes(n), rng.randbytes(n)))


# ----------------------------------------------------------------------
# Point lists
# ----------------------------------------------------------------------

def _bulk_stream(rng: random.Random) -> List[Point]:
    # UD moves 12 MB per point and RC 2 MB (two 1 MB messages at the
    # largest size, the harness's minimum for a rate): RC costs about six
    # times more wall time per byte, so every point costs about the same
    # and the percentiles sit inside one cluster rather than between two.
    points = []
    for mode in VERBS_MODES:
        budget = (12 if mode.startswith("ud") else 2) << 20
        for size in (64 << 10, 256 << 10, 1 << 20):
            points.append(Point("stream", mode, size, budget // size, window=64))
    return points


def _small_msg(rng: random.Random) -> List[Point]:
    return [Point("pingpong", mode, size, 100)
            for mode in VERBS_MODES for size in (1, 64, 512, 1024, 2048)]


def _lossy_rd(rng: random.Random) -> List[Point]:
    points = []
    for mode in ("rd_sendrecv", "rd_write_record"):
        for size in (16 << 10, 64 << 10):
            for loss in (0.01, 0.03, 0.05):
                points.append(Point("stream", mode, size, (1 << 20) // size, window=16,
                                    loss=loss, loss_seed=rng.randrange(1, 1 << 31)))
    for size in (16 << 10, 64 << 10):
        for _ in range(2):
            points.append(Point("stream", "ud_write_record", size, (4 << 20) // size,
                                window=16, loss=0.01, loss_seed=rng.randrange(1, 1 << 31)))
    return points


def _sip_calls(rng: random.Random) -> List[Point]:
    points = []
    for mode in ("ud", "rc"):
        points += [Point("sip_seq", mode, count=20) for _ in range(3)]
        points += [Point("sip_ramp", mode, count=n) for n in (16, 32, 48)]
    return points


#: Point list of each workload; why each exists is in BENCHMARK.json.
_POINTS: Dict[str, Callable[[random.Random], List[Point]]] = {
    "bulk_stream": _bulk_stream,
    "small_msg": _small_msg,
    "lossy_rd": _lossy_rd,
    "sip_calls": _sip_calls,
}
WORKLOADS = tuple(_POINTS)


# ----------------------------------------------------------------------
# Driving one point
# ----------------------------------------------------------------------

class _Built:
    """The testbed a point builds, and the wall time building it took."""

    def __init__(self) -> None:
        self.bed: Any = None
        self.build_s = 0.0

    def timed(self, build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        self.bed = build(*args, **kwargs)
        self.build_s = time.perf_counter() - t0
        return self.bed


def run_point(point: Point, inputs: Inputs) -> PointRun:
    """Run the point on a fresh testbed, timing the build and the whole.
    An exception anywhere counts the point as failed."""
    built = _Built()
    t0 = time.perf_counter()
    try:
        outcome: Optional[Outcome] = _DRIVE[point.kind](point, inputs, built)
        errors: List[str] = []
    except Exception as exc:  # a failed point is data, not a crash
        outcome = None
        errors = [f"raised {type(exc).__name__}: {exc}"]
    wall_s = time.perf_counter() - t0
    bed = built.bed
    events = bed.sim.events_processed if bed is not None else 0
    return PointRun(point, built.build_s, wall_s, events, outcome, errors, bed)


def _build_pair(point: Point, inputs: Inputs) -> VerbsEndpointPair:
    loss = BernoulliLoss(point.loss, seed=point.loss_seed) if point.loss else None
    pair = VerbsEndpointPair.build(point.mode, loss=loss)
    for i in (0, 1):
        pair.send_mrs[i].view()[:] = inputs.payload[i]
    return pair


def _drops(testbed) -> int:
    ports = [h.port for h in testbed.hosts]
    if testbed.switch is not None:
        ports += testbed.switch.ports
    return sum(p.drops_loss_model + p.drops_queue_full + p.drops_fault for p in ports)


def _retransmits(pair: VerbsEndpointPair) -> int:
    total = 0
    for qp in pair.qps:
        rd = getattr(qp, "rd", None)
        if rd is not None:
            total += rd.retransmissions
        mpa = getattr(qp, "mpa", None)
        if mpa is not None:
            total += mpa.sock.conn.retransmissions
    return total


def _drive_stream(point: Point, inputs: Inputs, built: _Built) -> Outcome:
    pair = built.timed(_build_pair, point, inputs)
    out = pair.bandwidth_mbs(point.size, messages=point.count, window=point.window)
    return Outcome(
        sim_ns=pair.sim.now, payload_bytes=int(out["received_bytes"]),
        msgs=int(out["received_msgs"]), partial=int(out["partial_msgs"]),
        drops=_drops(pair.testbed), retransmits=_retransmits(pair),
        result=out["mbs"], extra={"sent": int(out.get("sent_msgs", point.count))},
    )


#: Unmeasured round trips before the timed ones.
PINGPONG_WARMUP = 4


def _drive_pingpong(point: Point, inputs: Inputs, built: _Built) -> Outcome:
    pair = built.timed(_build_pair, point, inputs)
    latency_us = pair.pingpong_latency_us(point.size, iters=point.count, warmup=PINGPONG_WARMUP)
    trips = point.count + PINGPONG_WARMUP
    return Outcome(
        sim_ns=pair.sim.now, payload_bytes=2 * trips * point.size, msgs=2 * trips,
        partial=0, drops=_drops(pair.testbed), retransmits=_retransmits(pair),
        result=latency_us, extra={},
    )


class _CountingApi:
    """Socket-interface proxy that counts the SIP payload bytes handed
    to ``send``/``sendto``.  It adds no simulation events."""

    def __init__(self, api):
        self._api = api
        self.payload_bytes = 0
        self.messages = 0

    def sendto(self, fd, data, addr):
        self.payload_bytes += len(data)
        self.messages += 1
        return self._api.sendto(fd, data, addr)

    def send(self, fd, data):
        self.payload_bytes += len(data)
        self.messages += 1
        return self._api.send(fd, data)

    def __getattr__(self, name):
        return getattr(self._api, name)


@contextmanager
def _capturing_sip_build(built: _Built) -> Iterator[None]:
    """Run a figure function of ``repro.apps.sip.workload`` unchanged while
    capturing the testbed it builds: ``build_sip_testbed`` is rebound for
    the block so the build is timed, both socket interfaces count payload
    bytes, and the bed stays readable for the checks afterwards."""
    # Call-IDs come from a process-wide counter in the SIP client, and
    # their digits are part of every message; restarting it makes each
    # point's bytes independent of what ran before it in the process.
    sip_client._call_ids = itertools.count(1)
    build = sip_workload.build_sip_testbed

    def capture(*args: Any, **kwargs: Any) -> Any:
        bed = built.timed(build, *args, **kwargs)
        bed.client_api = _CountingApi(bed.client_api)
        bed.server.api = _CountingApi(bed.server.api)
        return bed

    sip_workload.build_sip_testbed = capture
    try:
        yield
    finally:
        sip_workload.build_sip_testbed = build


def _sip_outcome(bed: Any, result: float, extra: Dict[str, int]) -> Outcome:
    apis = (bed.client_api, bed.server.api)
    server = bed.server
    return Outcome(
        sim_ns=bed.sim.now, payload_bytes=sum(a.payload_bytes for a in apis),
        msgs=server.total_calls, partial=0, drops=_drops(bed.testbed), retransmits=0,
        result=result,
        extra={"sip_messages": sum(a.messages for a in apis),
               "requests": server.requests_handled, "active_at_end": server.active_calls,
               **extra},
    )


def _drive_sip_seq(point: Point, inputs: Inputs, built: _Built) -> Outcome:
    """Fig. 10: ``measure_response_time`` (one call in flight)."""
    with _capturing_sip_build(built):
        out = sip_workload.measure_response_time(point.mode, calls=point.count)
    return _sip_outcome(built.bed, out["mean_ms"], {"responses": int(out["samples"])})


def _drive_sip_ramp(point: Point, inputs: Inputs, built: _Built) -> Outcome:
    """Fig. 11: ``measure_memory`` (ramp ``count`` held calls)."""
    with _capturing_sip_build(built):
        out = sip_workload.measure_memory(point.mode, point.count)
    return _sip_outcome(built.bed, float(out["high_water_bytes"]),
                        {"final_bytes": int(out["final_bytes"])})


_DRIVE: Dict[str, Callable[[Point, Inputs, _Built], Outcome]] = {
    "stream": _drive_stream, "pingpong": _drive_pingpong,
    "sip_seq": _drive_sip_seq, "sip_ramp": _drive_sip_ramp,
}
