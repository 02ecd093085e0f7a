"""Named metrics registry: counters, gauges, fixed-bucket histograms.

The observability layer the evaluation figures lean on.  Design rules:

* **Stdlib only, support layer.**  ``repro.obs`` imports nothing from
  the protocol stack (iwarplint treats it like ``memory``/``models``:
  any layer may import it, it may import none of them).
* **~zero cost when disabled.**  A disabled :class:`Registry` hands out
  shared null instruments whose methods do nothing, and components guard
  hot-path instrument creation behind ``registry.enabled``.  Metrics
  never schedule events, never branch protocol logic, and never read
  simulated state except at snapshot time — so an enabled run and a
  disabled run produce bit-identical simulations (tested in
  ``tests/obs/test_determinism.py``).
* **Hybrid push/pull.**  Genuinely new metrics are event-push
  instruments created through the registry.  The plain-int counters the
  stack already keeps (NIC ports, links, TCP, RUDP, CQs, QPs) remain
  the source of truth; each class declares once, in a class-level
  ``OBS_FIELDS`` table of :data:`Field` rows, which of them it exports,
  and :meth:`Registry.expose` reads that table at snapshot/export time
  (Prometheus-collector style — the hot paths never touch the registry).
* **Documented naming scheme** (DESIGN.md §8): every metric name is
  ``layer.component.name`` — at least three lowercase dot-separated
  segments, first segment one of :data:`METRIC_LAYERS`.  Violations are
  a runtime :class:`RegistryError` here; iwarplint's IW501 calls
  :func:`validate_name` on the literal names passed to the instrument
  factories.

One registry exists per :class:`~repro.simnet.engine.Simulator`, lazily
attached by :func:`sim_registry` — per-testbed isolation without any
global mutable state (beyond the opt-in ``IWARP_OBS_DUMP`` tracking
used to merge a whole test session's snapshots into one CI artifact).
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

METRIC_NAME_PATTERN = r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$"

#: Legal first segments: the stack layers plus the support layers that
#: own measurable state.
METRIC_LAYERS = frozenset({
    "apps", "bench", "socketif", "verbs", "rdmap", "ddp", "mpa",
    "transport", "simnet", "memory", "models", "obs",
})

#: Default histogram upper edges (powers of two: batch sizes, counts).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

_NAME_RE = re.compile(METRIC_NAME_PATTERN)

LabelItems = Tuple[Tuple[str, str], ...]

#: One exported counter: ``(name, kind, attribute path[, extra])``.
#: The path may be dotted (``"rx.drops_malformed"``); a ``None`` value
#: is skipped.  ``extra`` is a dict of fixed labels, or — for a dict
#: value — the label its keys go under; a dict value without one
#: appends each key to ``name`` (``"simnet.faults."`` + key).
Field = Tuple[Any, ...]


class RegistryError(Exception):
    """Metric misuse: bad name, kind collision, bucket mismatch."""


def validate_name(name: str) -> str:
    """Check ``name`` against the ``layer.component.name`` scheme."""
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"metric name {name!r} does not match the layer.component.name "
            f"scheme (pattern {METRIC_NAME_PATTERN})"
        )
    layer = name.split(".", 1)[0]
    if layer not in METRIC_LAYERS:
        raise RegistryError(
            f"metric name {name!r} starts with unknown layer {layer!r} "
            f"(known: {', '.join(sorted(METRIC_LAYERS))})"
        )
    return name


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Point-in-time value (cwnd, queue depth, window)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v

    def set_max(self, v: float) -> None:
        """High-water-mark update."""
        if v > self.value:
            self.value = v

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``edges`` are ascending inclusive upper bounds; an observation lands
    in the first bucket whose edge is ``>= value``, or in the implicit
    ``+Inf`` overflow bucket.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        if not edges:
            raise RegistryError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise RegistryError(f"bucket edges must be strictly ascending: {edges}")
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(edges) + 1)  # last = +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[Union[float, str], int]]:
        """``(upper_edge, cumulative_count)`` pairs ending with +Inf."""
        out: List[Tuple[Union[float, str], int]] = []
        running = 0
        for edge, n in zip(self.edges, self.counts):
            running += n
            out.append((edge, running))
        out.append(("+Inf", self.count))
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in; bucket edges must match exactly."""
        if other.edges != self.edges:
            raise RegistryError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": [[edge, cum] for edge, cum in self.cumulative()],
        }

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.sum = 0.0
        self.count = 0


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def set_max(self, v: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


# ---------------------------------------------------------------------------
# Samples (the exporter/snapshot interchange unit)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """One exported data point."""

    name: str
    labels: LabelItems
    kind: str  # "counter" | "gauge" | "histogram"
    value: Any  # number, or Histogram.as_dict() for histograms

    def key(self) -> str:
        """Canonical flat key: ``name{k="v",...}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Registry:
    """Named instruments plus exposed component counters, with
    snapshot/export."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        # name -> (kind, histogram edges or None): collision detection.
        self._kinds: Dict[str, Tuple[str, Optional[Tuple[float, ...]]]] = {}
        # (owner, labels, [(name, kind, getter, extra)]) per expose().
        self._exposed: List[Tuple[Any, Dict[str, str], List[Tuple[Any, ...]]]] = []
        self._validated: set = set()  # names already regex-checked

    # -- instrument factories ---------------------------------------------

    def _get(self, name: str, kind: str, labels: Dict[str, Any],
             edges: Optional[Tuple[float, ...]] = None) -> Any:
        self._check_name(name)
        registered = self._kinds.get(name)
        if registered is not None and registered != (kind, edges):
            raise RegistryError(
                f"metric {name!r} already registered as {registered[0]} "
                f"{'' if registered[1] is None else f'with edges {registered[1]} '}"
                f"— cannot re-register as {kind}"
                f"{'' if edges is None else f' with edges {edges}'}"
            )
        key = (name, _label_items(labels))
        inst = self._instruments.get(key)
        if inst is None:
            if kind == "counter":
                inst = Counter()
            elif kind == "gauge":
                inst = Gauge()
            else:
                assert edges is not None
                inst = Histogram(edges)
            self._instruments[key] = inst
            self._kinds[name] = (kind, edges)
        return inst

    def counter(self, name: str, **labels: Any) -> Any:
        """Get or create a counter (returns a null instrument when the
        registry is disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels: Any) -> Any:
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._get(name, "gauge", labels)

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS, **labels: Any
    ) -> Any:
        if not self.enabled:
            return NULL_INSTRUMENT
        return self._get(
            name, "histogram", labels, edges=tuple(float(b) for b in buckets)
        )

    # -- exposed component counters ----------------------------------------

    def expose(self, owner: Any, labels: Dict[str, str],
               fields: Sequence[Field]) -> None:
        """Export ``owner``'s attributes named by ``fields`` (see
        :data:`Field`), read at snapshot/export time under ``labels``.
        No-op when disabled, so a disabled registry holds no references
        into the stack."""
        if self.enabled:
            rows = [(name, kind, attrgetter(path), extra[0] if extra else None)
                    for name, kind, path, *extra in fields]
            self._exposed.append((owner, labels, rows))

    def _pull(self) -> Iterator[Tuple[str, Dict[str, str], str, Union[int, float]]]:
        for owner, labels, rows in self._exposed:
            for name, kind, get, extra in rows:
                value = get(owner)
                if value is None:
                    continue
                if isinstance(value, dict):
                    for key, v in value.items():
                        if extra is None:
                            yield name + key, labels, kind, v
                        else:
                            yield name, {extra: key, **labels}, kind, v
                elif extra is None:
                    yield name, labels, kind, value
                else:
                    yield name, {**extra, **labels}, kind, value

    # -- reading -----------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if name not in self._validated:
            validate_name(name)
            self._validated.add(name)

    def collect(self) -> List[Sample]:
        """Every sample: registry-owned instruments plus exposed
        component counters, sorted by (name, labels)."""
        out: List[Sample] = []
        for (name, labels), inst in self._instruments.items():
            if isinstance(inst, Histogram):
                out.append(Sample(name, labels, "histogram", inst.as_dict()))
            elif isinstance(inst, Gauge):
                out.append(Sample(name, labels, "gauge", inst.value))
            else:
                out.append(Sample(name, labels, "counter", inst.value))
        for name, labels, kind, value in self._pull():
            self._check_name(name)
            out.append(Sample(name, _label_items(labels), kind, value))
        out.sort(key=lambda s: (s.name, s.labels))
        return out

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """Flat ``{canonical_key: value}`` dict (histograms appear as
        their ``as_dict()`` form).  ``prefix`` filters by name prefix."""
        out: Dict[str, Any] = {}
        for s in self.collect():
            if prefix is not None and not s.name.startswith(prefix):
                continue
            out[s.key()] = s.value
        return out

    def reset(self) -> None:
        """Zero every registry-owned instrument, keeping registrations
        (names, kinds, label sets, exposed owners).  Exposed values live
        in the components and are not touched."""
        for inst in self._instruments.values():
            inst.reset()


def diff(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Per-key delta of two :meth:`Registry.snapshot` dicts.

    Keys present only in ``after`` count from zero; keys that vanished
    are dropped.  Histogram values diff count/sum/buckets element-wise.
    """
    out: Dict[str, Any] = {}
    for key, after_v in after.items():
        before_v = before.get(key)
        if isinstance(after_v, dict):
            if not isinstance(before_v, dict):
                before_v = {"count": 0, "sum": 0.0, "buckets": []}
            before_cum = {edge: cum for edge, cum in before_v.get("buckets", [])}
            out[key] = {
                "count": after_v["count"] - before_v.get("count", 0),
                "sum": after_v["sum"] - before_v.get("sum", 0.0),
                "buckets": [
                    [edge, cum - before_cum.get(edge, 0)]
                    for edge, cum in after_v.get("buckets", [])
                ],
            }
        else:
            out[key] = after_v - (before_v or 0)
    return out


# ---------------------------------------------------------------------------
# Per-simulator attachment
# ---------------------------------------------------------------------------

#: Registries created while ``IWARP_OBS_DUMP`` names a path — merged
#: into one snapshot artifact at test-session end (see repro.obs.export
#: and tests/conftest.py).
_TRACKED: List[Registry] = []


def default_enabled() -> bool:
    """Metrics default: the ``IWARP_OBS`` environment switch."""
    return os.environ.get("IWARP_OBS", "") not in ("", "0")


def sim_registry(sim: Any, enable: Optional[bool] = None) -> Registry:
    """The one :class:`Registry` attached to ``sim`` (lazily created).

    ``enable`` pins the enabled state at creation; ``None`` defers to
    :func:`default_enabled`.  The first caller wins — components created
    under the same simulator all see the same registry, which is why
    :func:`repro.simnet.topology.build_testbed` resolves it before any
    port or stack exists.
    """
    reg = getattr(sim, "obs_registry", None)
    if reg is None:
        reg = Registry(enabled=default_enabled() if enable is None else enable)
        sim.obs_registry = reg
        if os.environ.get("IWARP_OBS_DUMP"):
            _TRACKED.append(reg)
    return reg


def tracked_registries() -> List[Registry]:
    return list(_TRACKED)
