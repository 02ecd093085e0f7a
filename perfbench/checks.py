"""Correctness checks: per point, per pass (paper shape), and golden.

* Per point — reliable modes deliver every message and the receiver's
  buffer holds the sender's bytes; unreliable modes deliver no more than
  was sent; the SIP server sets up and tears down every call.
* Per pass — the paper-shape relations of the workload's figures hold.
* Golden — a point whose inputs match the default seed's must reproduce
  the committed simulated-outcome digest exactly.

Every failure is appended to the point's ``errors``; a point with any
error counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import Inputs, PointRun

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def check_point(run: PointRun, inputs: Inputs) -> None:
    if run.outcome is None:
        return
    check = _CHECKS[run.point.kind]
    run.errors += check(run, inputs)


def _reliable(mode: str) -> bool:
    return mode.startswith(("rc", "rd"))


def _landing_buffer(pair, host: int, mode: str):
    if mode.endswith("sendrecv"):
        return pair.recv_mrs[host]
    return pair.sinks[host]


def _bytes_match(pair, mode: str, size: int, src: int, payload: bytes) -> bool:
    dst = 1 - src
    got = _landing_buffer(pair, dst, mode).view()[:size]
    return bytes(got) == payload[:size]


def _check_stream(run: PointRun, inputs: Inputs) -> List[str]:
    p, o, pair = run.point, run.outcome, run.bed
    sent_bytes = p.count * p.size
    errors = []
    if o.msgs + o.partial > p.count or o.payload_bytes > sent_bytes:
        errors.append(f"delivered more than sent ({o.msgs}+{o.partial} msgs, "
                      f"{o.payload_bytes} B of {sent_bytes} B)")
    complete = o.msgs == p.count and o.payload_bytes == sent_bytes
    if _reliable(p.mode) and not complete:
        errors.append(f"reliable mode lost data: {o.msgs}/{p.count} msgs, "
                      f"{o.payload_bytes}/{sent_bytes} B")
    if complete and not _bytes_match(pair, p.mode, p.size, 0, inputs.payload[0]):
        errors.append("receive buffer differs from the sender's bytes")
    return errors


def _check_pingpong(run: PointRun, inputs: Inputs) -> List[str]:
    p, pair = run.point, run.bed
    return [f"host {1 - src} buffer differs from host {src}'s bytes"
            for src in (0, 1)
            if not _bytes_match(pair, p.mode, p.size, src, inputs.payload[src])]


def _check_sip(run: PointRun, inputs: Inputs) -> List[str]:
    # The figure functions raise on a failed call; what is left to check is
    # the server's own view: every call was set up and torn down again.
    p, o = run.point, run.outcome
    errors = []
    if o.msgs != p.count:
        errors.append(f"server set up {o.msgs}/{p.count} SIP calls")
    if o.extra["active_at_end"]:
        errors.append(f"{o.extra['active_at_end']} SIP calls still active at the end")
    if p.kind == "sip_seq" and o.extra["responses"] != p.count:
        errors.append(f"{o.extra['responses']}/{p.count} INVITE responses timed")
    return errors


_CHECKS = {
    "stream": _check_stream, "pingpong": _check_pingpong,
    "sip_seq": _check_sip, "sip_ramp": _check_sip,
}


# ----------------------------------------------------------------------
# Paper-shape relations, checked over one pass
# ----------------------------------------------------------------------

def check_relations(workload: str, runs: List[PointRun]) -> None:
    """Mark the points of any violated relation in one full pass as
    failed.  Points that raised (no outcome) are left out."""
    done = [r for r in runs if r.outcome is not None]
    for claim, involved, holds in _RELATIONS[workload](done):
        if not holds:
            for r in involved:
                r.errors.append(f"paper shape violated: {claim}")


def _find(runs: List[PointRun], **attrs) -> List[PointRun]:
    return [r for r in runs if all(getattr(r.point, k) == v for k, v in attrs.items())]


def _mean(runs: List[PointRun]) -> float:
    return sum(r.outcome.result for r in runs) / len(runs)


def _less(claim: str, low: List[PointRun], high: List[PointRun]) -> Tuple[str, List[PointRun], bool]:
    """The mean result of ``low`` is below that of ``high``."""
    holds = not (low and high) or _mean(low) < _mean(high)
    return claim, low + high, holds


def _bulk_relations(runs):
    # Fig. 6: UD Write-Record out-streams RC RDMA Write at every size.
    for size in sorted({r.point.size for r in runs}):
        yield _less(f"rc_rdma_write MB/s < ud_write_record at {size} B",
                    _find(runs, mode="rc_rdma_write", size=size),
                    _find(runs, mode="ud_write_record", size=size))


def _small_relations(runs):
    # Fig. 5: datagram modes have lower latency than RC up to 1 KB.
    for size in sorted({r.point.size for r in runs if r.point.size <= 1024}):
        for ud, rc in (("ud_sendrecv", "rc_sendrecv"), ("ud_write_record", "rc_rdma_write")):
            yield _less(f"{ud} latency < {rc} at {size} B",
                        _find(runs, mode=ud, size=size), _find(runs, mode=rc, size=size))


def _lossy_relations(runs):
    # Figs. 7-8: more loss means more RD repair work, and reliability
    # costs bandwidth: UD Write-Record out-streams RD Write-Record at 1 %.
    for mode in ("rd_sendrecv", "rd_write_record"):
        lo, hi = _find(runs, mode=mode, loss=0.01), _find(runs, mode=mode, loss=0.05)
        holds = not (lo and hi) or (sum(r.outcome.retransmits for r in lo)
                                    < sum(r.outcome.retransmits for r in hi))
        yield f"{mode} retransmits more at 5% than at 1% loss", lo + hi, holds
    yield _less("rd_write_record MB/s < ud_write_record at 1% loss",
                _find(runs, mode="rd_write_record", loss=0.01),
                _find(runs, mode="ud_write_record", loss=0.01))


def _sip_relations(runs):
    # Fig. 10: SIP over UD answers faster than over RC.  Fig. 11: the
    # UD server holds less memory at every concurrency.
    yield _less("SIP response time UD < RC",
                _find(runs, kind="sip_seq", mode="ud"), _find(runs, kind="sip_seq", mode="rc"))
    for n in sorted({r.point.count for r in runs if r.point.kind == "sip_ramp"}):
        yield _less(f"SIP server memory UD < RC at {n} calls",
                    _find(runs, kind="sip_ramp", mode="ud", count=n),
                    _find(runs, kind="sip_ramp", mode="rc", count=n))


_RELATIONS = {
    "bulk_stream": _bulk_relations,
    "small_msg": _small_relations,
    "lossy_rd": _lossy_relations,
    "sip_calls": _sip_relations,
}


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> Dict[str, dict]:
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def check_golden(run: PointRun, golden: Dict[str, dict]) -> None:
    want = golden.get(run.point.key)
    if want is None or run.outcome is None:
        return
    got = run.outcome.digest()
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        run.errors.append(f"outcome digest differs from golden in {diff}")


def write_golden(workload: str, runs: List[PointRun]) -> Path:
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    data = {r.point.key: r.outcome.digest() for r in sorted(runs, key=lambda r: r.point.key)}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
