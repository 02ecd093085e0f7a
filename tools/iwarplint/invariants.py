"""Declarative invariants checked by iwarplint.

This module is pure data: the layer order and import allowlist, the
determinism ban lists and the metric factory names.  The rule
implementations in :mod:`iwarplint.rules` interpret it; changing an
invariant is a one-line edit here.  Two facts have no data here because
each is declared once in the stack itself: the FSM rules read the live
machines each stack module declares (see :mod:`repro.core.fsm`), and
each wire layout is its module's ``struct.Struct``, pinned byte for
byte by the golden vectors in ``tests/wire/``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Layering (IW1xx)
# ---------------------------------------------------------------------------
#
# Stack order from the paper (Fig. 1 / section IV): applications and the
# socket interface sit on verbs, verbs on RDMAP, RDMAP on DDP, DDP on MPA
# (stream mode only), MPA on the transport, transports on the simulated
# network.  ``memory`` and ``models`` are support libraries usable from
# any layer.  Lower rank = higher in the stack.

LAYER_RANK: Dict[str, int] = {
    "apps": 0,
    "bench": 0,
    "socketif": 1,
    "verbs": 2,
    "rdmap": 3,
    "ddp": 4,
    "mpa": 5,
    "transport": 6,
    "simnet": 7,
}

SUPPORT_LAYERS: FrozenSet[str] = frozenset({"memory", "models", "obs"})

# Longest-prefix match from dotted module name to layer.
LAYER_OF_PREFIX: Sequence[Tuple[str, str]] = (
    ("repro.apps", "apps"),
    ("repro.bench", "bench"),
    ("repro.core.socketif", "socketif"),
    ("repro.core.verbs", "verbs"),
    ("repro.core.rdmap", "rdmap"),
    ("repro.core.ddp", "ddp"),
    ("repro.core.mpa", "mpa"),
    ("repro.transport", "transport"),
    ("repro.simnet", "simnet"),
    ("repro.memory", "memory"),
    ("repro.models", "models"),
    ("repro.obs", "obs"),
)

# Sanctioned non-adjacent edges: (source layer, target layer) -> allowed
# target-module prefixes, or None for "any module in that layer".
# Anything not adjacent-downward, same-layer, support-target, or listed
# here is a violation.
SANCTIONED_EDGES: Dict[Tuple[str, str], Optional[FrozenSet[str]]] = {
    # Harness/demo layers drive the whole stack directly.
    ("apps", "verbs"): None,
    ("apps", "transport"): frozenset({"repro.transport.stacks"}),
    ("apps", "simnet"): None,
    ("bench", "verbs"): None,
    ("bench", "transport"): frozenset({"repro.transport.stacks"}),
    ("bench", "simnet"): None,
    # The socket interface builds on verbs but also needs the assembled
    # NetStack facade and the event loop.
    ("socketif", "transport"): frozenset({"repro.transport.stacks"}),
    ("socketif", "simnet"): frozenset({"repro.simnet.engine"}),
    # Datagram iWARP (paper section IV.B): UD QPs frame DDP segments
    # straight onto UDP/RUDP, bypassing MPA.  This is THE sanctioned
    # layer skip the paper is about; verbs also owns connection setup,
    # so it touches MPA and DDP directly.
    ("verbs", "ddp"): None,
    ("verbs", "mpa"): None,
    ("verbs", "transport"): None,
    ("verbs", "simnet"): frozenset({"repro.simnet.engine"}),
    # Protocol engines may use the event-loop primitives, nothing else
    # from simnet (hosts/NICs/topology belong to the harness).
    ("rdmap", "simnet"): frozenset({"repro.simnet.engine"}),
    ("mpa", "simnet"): frozenset({"repro.simnet.engine"}),
    # RDMAP completes verbs-level work requests; it may import the WR/WC
    # vocabulary (plain dataclasses), never QP/CQ machinery.
    ("rdmap", "verbs"): frozenset({"repro.core.verbs.wr"}),
}


def layer_of(module: str) -> Optional[str]:
    """Layer for a dotted module name, or None if unlayered."""
    best: Optional[str] = None
    best_len = -1
    for prefix, layer in LAYER_OF_PREFIX:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


# ---------------------------------------------------------------------------
# FSM conformance (IW2xx)
# ---------------------------------------------------------------------------
#
# The machines are not restated here: IW201-IW203 read each live
# ``repro.core.fsm.Fsm`` from the module in ``repro.core.fsm.FSM_MODULES``
# that declares it.  Every machine keeps its state in ``self.<attr>``
# and changes it only through ``self.<helper>()``.

FSM_STATE_ATTR = "state"
FSM_HELPER = "_set_state"


# ---------------------------------------------------------------------------
# Determinism (IW4xx)
# ---------------------------------------------------------------------------

DETERMINISM_SCOPES: Sequence[str] = (
    "repro.simnet", "repro.transport", "repro.core", "repro.obs",
)

# Wall-clock and environment entropy: (module, function) pairs.
WALL_CLOCK_CALLS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("os", "getrandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
)

# Modules whose every attribute use is entropy (no seeded mode exists).
ENTROPY_MODULES: FrozenSet[str] = frozenset({"secrets"})

# The one sanctioned randomness pattern: an explicitly seeded
# random.Random(seed) instance.  Everything else on the module-level
# random API shares hidden global state and is banned.
SEEDED_RNG_CLASS = "Random"

# Builtins through which iterating a set is order-insensitive.
ORDER_INSENSITIVE_WRAPPERS: FrozenSet[str] = frozenset(
    {"sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset"}
)


# ---------------------------------------------------------------------------
# Metric naming (IW5xx)
# ---------------------------------------------------------------------------
#
# The naming scheme itself lives in repro.obs.metrics (validate_name);
# IW501 calls it on every literal name handed to these factories.

#: Registry factory method names whose first positional argument is a
#: metric name.
METRIC_FACTORIES: FrozenSet[str] = frozenset({"counter", "gauge", "histogram"})
