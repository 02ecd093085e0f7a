"""Benchmark entry point: time one workload, or trace it layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload bulk_stream --seed 1 --seconds 25 --trace 1

A run repeats the workload's sweep ("pass") until ``--seconds`` have
elapsed, always finishing the pass it is in, after an unmeasured
warm-up of one point per mode.  Every point that runs is checked (see
``checks.py``).  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, and writes the spans to ``perfbench/out/``.  The exit
status is 1 when any point failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

#: A run measures at least this many passes, so set-up time has a median.
MIN_PASSES = 3

#: Metric names and units, declared once in BENCHMARK.json.
SPEC = HERE.parent / "BENCHMARK.json"


def metric_units(section: str) -> Dict[str, str]:
    """``{name: unit}`` for ``end_to_end`` or ``per_layer``."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@dataclass
class Pass:
    runs: list                 # PointRun, in execution order
    wall_s: float              # summed point wall time, set-up included
    build_s: float             # summed testbed set-up time
    payload_bytes: int

    @classmethod
    def of(cls, runs: list) -> "Pass":
        return cls(runs, sum(r.wall_s for r in runs), sum(r.build_s for r in runs),
                   sum(r.outcome.payload_bytes for r in runs if r.outcome is not None))


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (interpreter speed of
    this machine, recorded as metadata so rows from different machines
    can be normalised; no metric or gate uses it)."""
    def loop() -> int:
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        return acc

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def _warmup_points(points: list) -> list:
    """The first point of each (kind, mode): enough to import and exercise
    every code path once before anything is timed."""
    seen = {}
    for p in points:
        seen.setdefault((p.kind, p.mode), p)
    return list(seen.values())


def run_pass(workload: str, inputs, golden: Dict[str, dict], rec=None, counts=None,
             points: Optional[list] = None) -> Pass:
    """Run every point once (or just ``points``), in the seeded order,
    and check them all."""
    from checks import check_golden, check_point, check_relations
    from workloads import run_point

    runs = []
    for index, point in enumerate(inputs.points if points is None else points):
        if rec is None:
            run = run_point(point, inputs)
        else:
            rec.point = index
            run = rec.span(f"point:{point.key}", "bench.harness", run_point, (point, inputs), {})
            _count_point(run, counts)
        check_point(run, inputs)
        check_golden(run, golden)
        run.bed = None
        runs.append(run)
    if points is None:          # the paper's shape is a property of a whole sweep
        check_relations(workload, runs)
    return Pass.of(runs)


def _timed_passes(workload, inputs, golden, seconds, min_passes, rec=None, counts=None) -> List[Pass]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(workload, inputs, golden, rec, counts))
    return passes


# ----------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ----------------------------------------------------------------------

def tail_rank(n: int) -> int:
    """Index (ascending order) of the highest percentile with at least
    ten samples beyond it; the largest sample when there are fewer."""
    return max(n - 11, 0) if n > 10 else n - 1


def end_to_end(passes: List[Pass]) -> Dict[str, Any]:
    walls = sorted(r.wall_s for p in passes for r in p.runs)
    n = len(walls)
    rank = tail_rank(n)
    values = {
        "sim_mb_per_s": sum(p.payload_bytes for p in passes)
        / sum(p.wall_s - p.build_s for p in passes) / 1e6,
        "points_per_s": n / sum(p.wall_s for p in passes),
        "point_ms_p50": statistics.median(walls) * 1e3,
        "point_ms_tail": walls[rank] * 1e3,
        "setup_s": statistics.median(p.build_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = f"point_ms_tail is p{100 * (rank + 1) / n:.1f} of {n} points ({n - rank - 1} beyond)"
    return {"values": values, "notes": [note]}


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------

#: Registry series summed per point: count -> (series name, label filter).
#: Names starting with "_" feed ratios and are not reported themselves.
REGISTRY_SUMS = {
    "simnet.nic.frames": ("simnet.port.tx_frames", ""),
    "simnet.nic.drops": ("simnet.port.drops_", ""),
    "simnet.link.tx_bytes": ("simnet.link.tx_bytes", ""),
    "_host_tx_bytes": ("simnet.port.tx_bytes", 'port="host'),
    "transport.tcp.segments": ("transport.tcp.segments", 'dir="tx"'),
    "transport.tcp.retransmits": ("transport.tcp.retransmissions", ""),
    "transport.tcp.dup_acks": ("transport.tcp.dup_acks", ""),
    "transport.rudp.retransmits.rto": ("transport.rudp.retransmits", 'cause="rto"'),
    "transport.rudp.retransmits.fast": ("transport.rudp.retransmits", 'cause="fast"'),
    "transport.rudp.retransmits.sack": ("transport.rudp.retransmits", 'cause="sack"'),
    "_rudp_retransmissions": ("transport.rudp.retransmissions", ""),
    "transport.rudp.acks_sent": ("transport.rudp.acks_sent", ""),
    "transport.rudp.timeouts": ("transport.rudp.timeouts", ""),
    "core.rdmap.messages": ("rdmap.tx.messages", ""),
    "core.rdmap.segments": ("rdmap.tx.segments", ""),
    "core.rdmap.rx_drops": ("rdmap.rx.drops_", ""),
}

#: Counts that are high-water marks over the run rather than sums.
MAXIMA = ("simnet.nic.queue_hwm", "apps.sip.server_hwm_bytes")


def new_counts() -> Dict[str, float]:
    keys = [*REGISTRY_SUMS, *MAXIMA, "_payload_bytes",
            "simnet.engine.events", "simnet.cpu.submits", "simnet.cpu.busy_sim_ns"]
    return dict.fromkeys(keys, 0)


def _count_point(run, counts: Dict[str, float]) -> None:
    """Add one traced point's counts from public state and the registry."""
    bed = run.bed
    if bed is None:
        return
    testbed = bed.testbed
    counts["simnet.engine.events"] += bed.sim.events_processed
    counts["_payload_bytes"] += run.outcome.payload_bytes if run.outcome else 0
    for host in testbed.hosts:
        counts["simnet.cpu.submits"] += host.cpu.work_items
        counts["simnet.cpu.busy_sim_ns"] += host.cpu.busy_ns
    for key, value in testbed.registry.snapshot().items():
        name = key.split("{", 1)[0]
        if name == "simnet.port.queue_hwm":
            counts["simnet.nic.queue_hwm"] = max(counts["simnet.nic.queue_hwm"], value)
            continue
        for count, (prefix, label) in REGISTRY_SUMS.items():
            if name.startswith(prefix) and label in key:
                counts[count] += value
    meter = getattr(bed, "meter", None)
    if meter is not None:
        counts["apps.sip.server_hwm_bytes"] = max(counts["apps.sip.server_hwm_bytes"],
                                                  meter.high_water)


def per_layer(rec, counts, passes: List[Pass], base: Pass) -> Dict[str, Any]:
    from spans import LAYERS

    n = len(passes)
    calls = rec.calls

    def per_pass(x: float) -> float:
        return x / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, float] = {f"{layer}.self_s": per_pass(rec.self_ns[layer] / 1e9)
                                for layer in LAYERS}
    for key, value in counts.items():
        if not key.startswith("_"):
            values[key] = value if key in MAXIMA else per_pass(value)
    values["simnet.link.wire_efficiency"] = ratio(counts["_payload_bytes"], counts["_host_tx_bytes"])
    values["simnet.engine.ns_per_event"] = ratio(
        values["simnet.engine.self_s"] * 1e9, values["simnet.engine.events"])

    def calls_of(*names: str) -> float:
        return per_pass(sum(calls[name] for name in names))

    def seconds_in(*names: str) -> float:
        return per_pass(sum(rec.total_ns[name] for name in names) / 1e9)

    values["transport.ip.packets"] = calls_of("IpStack.send")
    values["transport.ip.fragments"] = calls_of("IpStack.on_packet")
    values["transport.udp.datagrams"] = calls_of("UdpSocket.sendto", "UdpSocket.sendto_uncharged")
    values["core.mpa.fpdus"] = calls_of("MpaConnection.send_ulpdu", "MpaConnection.emit_ulpdu_now")
    first_tx = calls_of("RudpSocket.sendto")
    values["transport.rudp.goodput_ratio"] = ratio(
        first_tx, first_tx + per_pass(counts["_rudp_retransmissions"]))
    values["core.verbs.posts"] = calls_of("QueuePair.post_send", "QueuePair.post_recv")
    values["core.verbs.cq_polls"] = calls_of("CompletionQueue.poll")
    values["core.verbs.cq_poll_hit_ratio"] = ratio(
        rec.counts["core.verbs.cq_poll_hits"], calls["CompletionQueue.poll"])
    values["core.ddp.segments"] = calls_of("decode_segment")
    values["memory.placed_bytes"] = per_pass(rec.counts["memory.placed_bytes"])
    values["memory.partial_completions"] = per_pass(rec.counts["memory.partial_completions"])
    values["simnet.topology.build_s"] = seconds_in("build_testbed")
    values["transport.stacks.install_s"] = seconds_in("install_stacks")
    values["core.verbs.reg_mr_s"] = seconds_in("RnicDevice.reg_mr")
    values["core.verbs.connect_s"] = seconds_in("RnicDevice.rc_connect", "RnicDevice.rc_listen")
    socket_calls = [name for name in calls if name.startswith("IwSocketInterface.")]
    values["core.socketif.calls"] = calls_of(*socket_calls)
    values["core.socketif.connections"] = calls_of("IwSocketInterface.connect_future")
    values["apps.sip.calls"] = calls_of("SipClient.run_call", "SipClient.hold_call")
    values["trace.pass_s"] = per_pass(sum(p.wall_s for p in passes))
    values["trace.overhead"] = values["trace.pass_s"] / base.wall_s
    accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS) / values["trace.pass_s"]
    notes = [f"layer self times account for {accounted:.4f} of traced point wall time "
             f"({n} traced passes)"]
    return {"values": values, "notes": notes}


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool,
        golden: Optional[Dict[str, dict]] = None, min_passes: int = MIN_PASSES) -> Dict[str, Any]:
    """One benchmark run; returns the result object plus notes and meta."""
    import checks
    from workloads import make_inputs

    # The timed run keeps the metrics registry off; the traced run turns
    # it on (metrics-on and -off runs simulate identically).
    os.environ.pop("IWARP_OBS_DUMP", None)
    os.environ["IWARP_OBS"] = "0"
    inputs = make_inputs(workload, seed)
    if golden is None:
        golden = checks.load_golden(workload)
    meta = {"workload": workload, "seed": seed, "calibration_s": calibrate(),
            "points_per_pass": len(inputs.points)}
    warm = run_pass(workload, inputs, golden, points=_warmup_points(inputs.points))
    if not trace:
        passes = _timed_passes(workload, inputs, golden, seconds, min_passes)
        result = end_to_end(passes)
    else:
        result, passes = _traced(workload, inputs, golden, seconds, meta)
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(units) != set(result["values"]):
        raise RuntimeError(f"metrics differ from {SPEC.name}: "
                           f"{sorted(set(units) ^ set(result['values']))}")
    result["units"] = units
    runs = [r for p in [warm] + passes for r in p.runs]
    failed = [r for r in runs if not r.ok]
    meta["passes"] = len(passes)
    return {"correct": not failed, "attempted": len(runs), "failed": len(failed),
            "failures": failed, "meta": meta, **result}


def _traced(workload, inputs, golden, seconds, meta):
    from spans import SpanRecorder, install

    # The reference pass runs with the registry on as well, so that
    # trace.overhead is the cost of the spans alone.
    os.environ["IWARP_OBS"] = "1"
    rec = SpanRecorder()
    counts = new_counts()
    try:
        base = run_pass(workload, inputs, golden)
        with install(rec):
            passes = _timed_passes(workload, inputs, golden, seconds, 1, rec, counts)
    finally:
        os.environ["IWARP_OBS"] = "0"
    digests = {r.point.key: r.outcome.digest() for r in base.runs if r.outcome}
    for r in (r for p in passes for r in p.runs):
        if r.outcome is not None and r.outcome.digest() != digests.get(r.point.key):
            r.errors.append("traced outcome digest differs from the untraced one")
    result = per_layer(rec, counts, passes, base)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-s{meta['seed']}.json"
    rec.dump(path, meta, [p.key for p in inputs.points])
    result["notes"].append(f"spans written to {path.relative_to(HERE.parent)}")
    return result, [base] + passes    # the untraced reference pass counts too


def pin_hash_seed() -> None:
    """Re-execute this script with a fixed ``PYTHONHASHSEED``.

    The SIP client derives its From-tag from ``hash(user)``, which
    Python salts per process, so SIP message sizes (and with them
    ``sim_ns``) would differ between two processes running the same
    point.  A fixed hash seed makes every outcome reproducible."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main() -> int:
    pin_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="run one pass at the default seed and rewrite its golden file")
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC} does not hold the repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from workloads import DEFAULT_SEED, WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.write_golden:
        if seed != DEFAULT_SEED:
            parser.error(f"golden files are written at the default seed {DEFAULT_SEED}")
        done = run_pass(args.workload, make_inputs(args.workload, seed), golden={})
        bad = [r for r in done.runs if not r.ok]
        if bad:
            print(f"error: {len(bad)} points failed; golden not written", file=sys.stderr)
            return 1
        print(f"wrote {checks.write_golden(args.workload, done.runs)}")
        return 0

    out = run(args.workload, seed, args.seconds, bool(args.trace))
    report(args.workload, out)
    return 1 if out["failed"] else 0


def report(workload: str, out: Dict[str, Any]) -> None:
    """Print failures (stderr), each metric with its unit, notes, and
    the result object as the last line of stdout."""
    for r in out["failures"][:20]:
        print(f"FAILED {r.point.key}: {'; '.join(r.errors)}", file=sys.stderr)
    print(f"meta {json.dumps(out['meta'], sort_keys=True)}")
    for name, unit in out["units"].items():
        print(f"{workload} {name} = {out['values'][name]:.6g} {unit}")
    print(f"{workload} failed_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']} points)")
    for note in out["notes"]:
        print(f"note: {note}")
    metrics = {name: {"value": out["values"][name], "unit": unit}
               for name, unit in out["units"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
