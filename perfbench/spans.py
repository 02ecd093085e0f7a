"""Outside-in span recorder for the traced run.

Nothing under ``src/`` knows about it.  :func:`install` replaces, for
the duration of a ``with`` block, the public entry points of each layer
of ``repro`` with thin wrappers that time the call:

* ``Simulator.at`` / ``Simulator.call_at`` hand every scheduled callback
  to :meth:`SpanRecorder.dispatch`, so each event becomes a span owned
  by the module that defines the callback (a process step is owned by
  the module of its generator);
* ``Simulator.run`` / ``run_until`` become engine spans, so the event
  loop's own time is the engine's self time;
* the layer entry points in :data:`ENTRY_POINTS` become spans owned by
  their layer, so calls across layers nest.

A span's self time is its duration minus the durations of its child
spans.  Every span of a point descends from the point's root span, so
the self times of all layers add up to the point's wall time exactly.

Spans are kept in memory (the first :data:`KEEP_SPANS` of them in full;
all of them in the per-layer totals) and written once, by :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.verbs import WcStatus
from repro.simnet.engine import Process, Simulator

#: Spans kept in full for the span file; later ones only count.
KEEP_SPANS = 200_000

#: Module prefix -> layer; the first match wins.  Modules matching none
#: (topology, stacks, SCTP, RTO, FSM, obs, cost models) fall to "other".
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.simnet.engine", "simnet.engine"),
    ("repro.simnet.cpu", "simnet.cpu"),
    ("repro.simnet.topology", "other"),
    ("repro.simnet.", "simnet.nic"),        # NIC, link, switch, host demux, loss
    ("repro.transport.ip", "transport.ip"),
    ("repro.transport.udp", "transport.udp"),
    ("repro.transport.tcp", "transport.tcp"),
    ("repro.transport.rudp", "transport.rudp"),
    ("repro.core.mpa", "core.mpa"),
    ("repro.core.ddp", "core.ddp"),
    ("repro.core.rdmap", "core.rdmap"),
    ("repro.core.verbs", "core.verbs"),
    ("repro.core.socketif", "core.socketif"),
    ("repro.memory", "memory"),
    ("repro.apps.sip", "apps.sip"),
    ("repro.bench", "bench.harness"),
    ("workloads", "bench.harness"),
    ("run", "bench.harness"),
    ("__main__", "bench.harness"),
)

#: Layers whose self time is reported by name; the rest add to "other".
LAYERS = (
    "simnet.engine", "simnet.nic", "simnet.cpu", "transport.ip", "transport.udp",
    "transport.tcp", "core.mpa", "transport.rudp", "core.verbs", "core.rdmap",
    "core.ddp", "memory", "core.socketif", "apps.sip", "bench.harness", "other",
)


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix.rstrip(".") + "."):
            return layer
    return "other"


# ----------------------------------------------------------------------
# Entry points: (module, class or None for module functions, attributes).
# A layer is entered from above through its public calls and from below
# through the upcall the lower layer was handed (the underscored names).
# ----------------------------------------------------------------------

ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("repro.simnet.nic", "NicPort", ("enqueue", "deliver")),
    ("repro.simnet.cpu", "CpuResource", ("submit", "charge")),
    ("repro.simnet.topology", None, ("build_testbed",)),
    ("repro.transport.stacks", None, ("install_stacks",)),
    ("repro.transport.ip", "IpStack", ("send", "on_packet")),
    ("repro.transport.udp", "UdpSocket", ("sendto", "sendto_uncharged", "deliver")),
    ("repro.transport.udp", "UdpStack", ("_on_ip_delivery",)),
    ("repro.transport.tcp.connection", "TcpConnection", ("send", "on_segment")),
    ("repro.transport.tcp.socket", "TcpStack", ("_on_ip_delivery",)),
    ("repro.transport.rudp", "RudpSocket", ("sendto", "_on_datagram")),
    ("repro.core.mpa.connection", "MpaConnection", ("send_ulpdu", "emit_ulpdu_now", "_on_bytes")),
    ("repro.core.ddp.headers", "DdpSegment", ("encode",)),
    ("repro.core.ddp.headers", None, ("decode_segment",)),
    ("repro.core.ddp.segmentation", "UntaggedReassembly", ("place",)),
    ("repro.core.rdmap.engine", "RdmapTx", ("post",)),
    ("repro.core.rdmap.engine", "RdmapRx", ("on_segment",)),
    ("repro.core.verbs.qp", "QueuePair", ("post_send", "post_recv")),
    ("repro.core.verbs.qp", "UdQp", ("_on_datagram",)),
    ("repro.core.verbs.qp", "RcQp", ("_on_ulpdu",)),
    ("repro.core.verbs.cq", "CompletionQueue", ("poll", "poll_wait", "push")),
    ("repro.core.verbs.device", "RnicDevice", ("reg_mr", "rc_connect", "rc_listen")),
    ("repro.memory.region", "MemoryRegion", ("write",)),
    ("repro.memory.validity", "ValidityMap", ("add",)),
    ("repro.core.socketif.interface", "IwSocketInterface", (
        "socket", "sendto", "recvfrom_future", "connect_future", "listen",
        "accept_future", "send", "recv_future", "close")),
    ("repro.apps.sip.client", "SipClient", ("run_call", "hold_call")),
    ("repro.apps.sip.workload", None, ("build_sip_testbed",)),
    ("repro.bench.harness", "VerbsEndpointPair", ("build", "bandwidth_mbs", "pingpong_latency_us")),
)

_RUN_UNTIL = "Simulator.run_until"


class SpanRecorder:
    """In-memory span store with per-layer self time and call counts."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self._stack: List[list] = []           # open spans: [id, child_ns, name]
        self._next_id = 0
        self.self_ns: Dict[str, int] = defaultdict(int)     # by layer
        self.total_ns: Dict[str, int] = defaultdict(int)    # inclusive, by span name
        self.calls: Dict[str, int] = defaultdict(int)       # by span name
        self.counts: Dict[str, int] = defaultdict(int)      # hook-derived counts
        self.records: List[tuple] = []
        self.module_of: Dict[str, str] = {}                 # span name -> module
        self.dropped = 0
        self.point = -1
        self._owners: Dict[Any, Tuple[str, str]] = {}

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        sid = self._next_id
        self._next_id = sid + 1
        frame = [sid, 0, name]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            self.self_ns[layer] += dur - frame[1]
            self.total_ns[name] += dur
            self.calls[name] += 1
            parent = -1
            if stack:
                stack[-1][1] += dur
                parent = stack[-1][0]
            if len(self.records) < KEEP_SPANS:
                self.records.append((sid, name, layer, start, end, parent, self.point))
            else:
                self.dropped += 1

    def dispatch(self, fn: Callable, *args: Any) -> None:
        """Run one scheduled callback as a span of its owning module."""
        func = getattr(fn, "__func__", fn)
        if getattr(func, "_span_layer", None) is not None:
            fn(*args)                  # already a wrapped entry point
            return
        name, layer = self._owner(fn, func)
        self.span(name, layer, fn, args, {})

    def _owner(self, fn: Callable, func: Any) -> Tuple[str, str]:
        if func is _PROCESS_STEP:
            code = fn.__self__.gen.gi_code
            key = code
        else:
            code = getattr(func, "__code__", None)
            key = code if code is not None else type(func)
        hit = self._owners.get(key)
        if hit is None:
            name, module = _describe(fn, func, code)
            self.module_of[name] = module
            hit = self._owners[key] = (name, layer_of(module))
        return hit

    def in_run_until(self) -> bool:
        return bool(self._stack) and self._stack[-1][2] is _RUN_UNTIL

    # -- output ------------------------------------------------------------

    def dump(self, path, meta: Dict[str, Any], points: List[str]) -> None:
        """Write the kept spans once, with their point labels and metadata."""
        data = {
            "meta": meta,
            "columns": ["id", "name", "layer", "start_ns", "end_ns", "parent", "point"],
            "modules": self.module_of,
            "points": points,
            "dropped": self.dropped,
            "spans": self.records,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


_PROCESS_STEP = Process._step


def _describe(fn: Callable, func: Any, code: Any) -> Tuple[str, str]:
    """``(span name, module)`` for a callback the engine is about to fire."""
    if func is _PROCESS_STEP:
        frame = fn.__self__.gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        return f"process:{code.co_qualname}", module
    module = getattr(func, "__module__", None) or type(func).__module__ or ""
    name = getattr(func, "__qualname__", None) or type(func).__qualname__
    return name, module


# ----------------------------------------------------------------------
# Count hooks: derive counts from an entry point's arguments or result
# ----------------------------------------------------------------------

def _placed(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.counts["memory.placed_bytes"] += len(args[2])


def _poll(rec: SpanRecorder, args: tuple, result: Any) -> None:
    if result:
        rec.counts["core.verbs.cq_poll_hits"] += 1


def _push(rec: SpanRecorder, args: tuple, result: Any) -> None:
    if args[1].status is WcStatus.PARTIAL_MESSAGE:
        rec.counts["memory.partial_completions"] += 1


HOOKS: Dict[str, Callable[[SpanRecorder, tuple, Any], None]] = {
    "MemoryRegion.write": _placed,
    "UntaggedReassembly.place": _placed,
    "CompletionQueue.poll": _poll,
    "CompletionQueue.push": _push,
}


def _wrap(rec: SpanRecorder, fn: Callable, name: str, layer: str) -> Callable:
    span = rec.span
    hook = HOOKS.get(name)
    if hook is None:
        def wrapper(*args, **kwargs):
            return span(name, layer, fn, args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            result = span(name, layer, fn, args, kwargs)
            hook(rec, args, result)
            return result
    functools.update_wrapper(wrapper, fn)
    wrapper._span_layer = layer
    return wrapper


def _rewrap(rec: SpanRecorder, raw: Any, name: str, layer: str) -> Any:
    """Wrap a class-dict entry, keeping classmethod/staticmethod-ness."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(rec, raw.__func__, name, layer))
    return _wrap(rec, raw, name, layer)


@contextmanager
def install(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every entry point for the ``with`` block; restore on exit."""
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, cls_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            for attr in attrs:
                if cls_name is None:
                    rec.module_of[attr] = module_name
                    orig = getattr(module, attr)
                    new = _wrap(rec, orig, attr, layer)
                    # Rebind the name wherever it was imported.
                    for mod in list(sys.modules.values()):
                        if getattr(mod, attr, None) is orig:
                            patch(mod, attr, new)
                    continue
                cls = getattr(module, cls_name)
                for klass in _with_subclasses(cls):
                    if attr in klass.__dict__:
                        name = f"{klass.__name__}.{attr}"
                        rec.module_of[name] = klass.__module__
                        patch(klass, attr, _rewrap(rec, klass.__dict__[attr], name, layer))
        _patch_engine(rec, patch)
        yield rec
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _patch_engine(rec: SpanRecorder, patch: Callable[[Any, str, Any], None]) -> None:
    orig_at, orig_call_at = Simulator.at, Simulator.call_at
    orig_run, orig_run_until = Simulator.run, Simulator.run_until
    dispatch, span = rec.dispatch, rec.span

    def at(sim, time_ns, fn, *args):
        return orig_at(sim, time_ns, dispatch, fn, *args)

    def call_at(sim, time_ns, fn, *args):
        orig_call_at(sim, time_ns, dispatch, fn, *args)

    def run(sim, *args, **kwargs):
        if rec.in_run_until():         # one step of run_until's own loop
            return orig_run(sim, *args, **kwargs)
        return span("Simulator.run", "simnet.engine", orig_run, (sim,) + args, kwargs)

    def run_until(sim, *args, **kwargs):
        return span(_RUN_UNTIL, "simnet.engine", orig_run_until, (sim,) + args, kwargs)

    patch(Simulator, "at", at)
    patch(Simulator, "call_at", call_at)
    patch(Simulator, "run", run)
    patch(Simulator, "run_until", run_until)
