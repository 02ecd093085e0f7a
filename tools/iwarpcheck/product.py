"""Cross-layer product machine: QP x MPA x TCP on the RC path.

The single-machine checks prove each table is internally sound; the
bugs that matter in deployment live *between* the layers — a QP that
reaches RTS before MPA negotiation completed, an MPA stream that fails
without the QP ever seeing an error.  This module builds the explicit
product of the three RC-path machines under a small event alphabet
(handshake, negotiation, loss/dup/reorder, close/reset) and checks
declared cross-layer invariants over every reachable composite state,
reporting minimal counterexample event traces.

Atomicity mirrors the code: where the stack performs coupled updates in
one synchronous call chain (``MpaConnection._fail`` -> ``on_error`` ->
``QueuePair._enter_error``), the product rule moves both components in
one step.

Rule codes:

* **IC201** — a product rule applies a component move the component's
  own pair table forbids (the spec model and the per-layer tables
  disagree).
* **IC202** — an ``always`` invariant violated in a reachable state.
* **IC203** — a ``leads-to`` invariant violated: a reachable state
  matches ``when`` but no state matching ``require`` is reachable from
  it.
* **IC204** — a reachable composite state with no path to a terminal
  composite state (cross-layer live-lock).
* **IC205** — a product rule that never fires (over-guarded: the model
  carries dead specification).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.fsm import Fsm

from iwarpcheck.model import Finding, TraceStep

RULES: Dict[str, str] = {
    "IC201": "product rule applies a component move its pair table forbids",
    "IC202": "'always' cross-layer invariant violated in a reachable state",
    "IC203": "'leads-to' cross-layer invariant violated (no path to the required states)",
    "IC204": "reachable composite state with no path to a terminal composite state",
    "IC205": "product rule never fires from any reachable state",
}

State = Tuple[str, ...]


@dataclass(frozen=True)
class ProductRule:
    """One event of the product alphabet.

    ``guard`` maps component name -> source states the rule fires from
    (a missing component means "any state"); ``update`` maps component
    name -> target state (missing components keep their state; a target
    equal to the current state is a legal no-op, mirroring
    ``_set_state``)."""

    event: str
    guard: Mapping[str, FrozenSet[str]] = field(default_factory=dict)
    update: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ProductInvariant:
    """A declared cross-layer property.

    ``kind`` is ``"always"`` (every reachable state matching ``when``
    must match ``require``) or ``"leads-to"`` (every reachable state
    matching ``when`` must be able to reach a state matching
    ``require``).  Both maps are component name -> allowed states; a
    missing component matches anything."""

    name: str
    kind: str  # "always" | "leads-to"
    when: Mapping[str, FrozenSet[str]] = field(default_factory=dict)
    require: Mapping[str, FrozenSet[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ProductMachine:
    name: str
    components: Tuple[str, ...]
    machines: Mapping[str, Fsm]
    initial: Mapping[str, str]
    rules: Tuple[ProductRule, ...]
    invariants: Tuple[ProductInvariant, ...]
    #: Terminal predicate: component -> allowed states (missing = any).
    terminal: Mapping[str, FrozenSet[str]] = field(default_factory=dict)

    def initial_state(self) -> State:
        return tuple(self.initial[c] for c in self.components)

    def render(self, state: State) -> str:
        return "/".join(state)

    def matches(self, state: State, predicate: Mapping[str, FrozenSet[str]]) -> bool:
        for comp, allowed in predicate.items():
            if state[self.components.index(comp)] not in allowed:
                return False
        return True


@dataclass
class Exploration:
    """Reachable fragment of a product machine."""

    states: Dict[State, List[TraceStep]]  # state -> minimal event trace
    successors: Dict[State, List[Tuple[str, State]]]
    fired: FrozenSet[str]  # rules that fired at least once
    conformance: List[Finding]  # IC201 findings met during exploration


def _apply_rule(
    pm: ProductMachine, rule: ProductRule, state: State
) -> Tuple[Optional[State], Optional[str]]:
    """(successor, None) for a legal firing, (None, reason) for a
    component move the per-layer table forbids, (None, None) if the
    guard blocks the rule here."""
    for comp, allowed in rule.guard.items():
        if state[pm.components.index(comp)] not in allowed:
            return None, None
    nxt = list(state)
    for comp, target in rule.update.items():
        idx = pm.components.index(comp)
        current = nxt[idx]
        if target == current:
            continue
        machine = pm.machines[comp]
        if target not in machine.pairs.get(current, ()):
            return None, (
                f"rule {rule.event!r} moves {comp} {current} -> {target}, "
                f"which {machine.name}'s pair table forbids"
            )
        nxt[idx] = target
    return tuple(nxt), None


def explore(pm: ProductMachine, max_states: int = 100_000) -> Exploration:
    initial = pm.initial_state()
    states: Dict[State, List[TraceStep]] = {initial: []}
    successors: Dict[State, List[Tuple[str, State]]] = {}
    fired = set()
    conformance: List[Finding] = []
    reported = set()  # (rule event, component) pairs already flagged
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        succ: List[Tuple[str, State]] = []
        for rule in pm.rules:
            nxt, illegal = _apply_rule(pm, rule, state)
            if illegal is not None:
                fired.add(rule.event)
                key = (rule.event, illegal)
                if key not in reported:
                    reported.add(key)
                    conformance.append(
                        Finding(
                            pm.name,
                            "IC201",
                            illegal,
                            trace=tuple(states[state])
                            + ((pm.render(state), rule.event, "<illegal>"),),
                        )
                    )
                continue
            if nxt is None:
                continue
            fired.add(rule.event)
            succ.append((rule.event, nxt))
            if nxt not in states:
                if len(states) >= max_states:
                    raise RuntimeError(
                        f"product machine {pm.name} exceeded {max_states} states"
                    )
                states[nxt] = states[state] + [
                    (pm.render(state), rule.event, pm.render(nxt))
                ]
                queue.append(nxt)
        successors[state] = succ
    return Exploration(
        states=states,
        successors=successors,
        fired=frozenset(fired),
        conformance=conformance,
    )


def _can_reach(
    pm: ProductMachine,
    exploration: Exploration,
    start: State,
    predicate: Mapping[str, FrozenSet[str]],
) -> bool:
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if pm.matches(state, predicate):
            return True
        for _event, nxt in exploration.successors.get(state, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def check_product(pm: ProductMachine, max_states: int = 100_000) -> List[Finding]:
    """Run every IC2xx rule over the product machine."""
    exploration = explore(pm, max_states=max_states)
    findings: List[Finding] = list(exploration.conformance)

    for invariant in pm.invariants:
        for state in exploration.states:
            if not pm.matches(state, invariant.when):
                continue
            if invariant.kind == "always":
                if not pm.matches(state, invariant.require):
                    findings.append(
                        Finding(
                            pm.name,
                            "IC202",
                            f"invariant {invariant.name!r} violated in state "
                            f"{pm.render(state)}",
                            trace=tuple(exploration.states[state]),
                        )
                    )
                    break  # one minimal counterexample per invariant
            elif invariant.kind == "leads-to":
                if not _can_reach(pm, exploration, state, invariant.require):
                    findings.append(
                        Finding(
                            pm.name,
                            "IC203",
                            f"invariant {invariant.name!r} violated: from "
                            f"{pm.render(state)} no required state is reachable",
                            trace=tuple(exploration.states[state]),
                        )
                    )
                    break
            else:
                raise ValueError(
                    f"unknown invariant kind {invariant.kind!r} "
                    f"({invariant.name})"
                )

    if pm.terminal:
        for state in exploration.states:
            if not _can_reach(pm, exploration, state, pm.terminal):
                findings.append(
                    Finding(
                        pm.name,
                        "IC204",
                        f"composite state {pm.render(state)} cannot reach any "
                        f"terminal composite state",
                        trace=tuple(exploration.states[state]),
                    )
                )
                break

    for rule in pm.rules:
        if rule.event not in exploration.fired:
            findings.append(
                Finding(
                    pm.name,
                    "IC205",
                    f"product rule {rule.event!r} never fires from any "
                    f"reachable state",
                )
            )

    return findings


# ---------------------------------------------------------------------------
# The RC-path product model
# ---------------------------------------------------------------------------

_ANY_OPEN_TCP = frozenset(
    {
        "SYN_SENT",
        "SYN_RCVD",
        "ESTABLISHED",
        "FIN_WAIT_1",
        "FIN_WAIT_2",
        "CLOSE_WAIT",
        "LAST_ACK",
        "CLOSING",
        "TIME_WAIT",
    }
)


def rc_product(machines: Mapping[str, Fsm]) -> ProductMachine:
    """QP x MPA x TCP for one RC endpoint (``RcQp`` over
    ``MpaConnection`` over ``TcpConnection``).

    ``machines`` maps machine name ("QP", "MPA", "TCP") to its Fsm;
    pass :func:`iwarpcheck.model.machines_by_name` output.  The event
    alphabet covers connection setup, MPA negotiation, the loss /
    duplication / reordering faults the datagram paper's network model
    injects (explicitly state-invisible: retransmission absorbs them),
    both close directions, and RST teardown.
    """
    rules = (
        # -- TCP handshake -------------------------------------------------
        ProductRule(
            "tcp_active_open",
            guard={
                "tcp": frozenset({"CLOSED"}),
                "qp": frozenset({"RESET"}),
                "mpa": frozenset({"NEGOTIATING"}),
            },
            update={"tcp": "SYN_SENT"},
        ),
        ProductRule(
            "tcp_passive_syn",
            guard={
                "tcp": frozenset({"CLOSED"}),
                "qp": frozenset({"RESET"}),
                "mpa": frozenset({"NEGOTIATING"}),
            },
            update={"tcp": "SYN_RCVD"},
        ),
        ProductRule(
            "tcp_syn_ack",
            guard={"tcp": frozenset({"SYN_SENT"})},
            update={"tcp": "ESTABLISHED"},
        ),
        ProductRule(
            "tcp_handshake_ack",
            guard={"tcp": frozenset({"SYN_RCVD"})},
            update={"tcp": "ESTABLISHED"},
        ),
        # -- the fault alphabet: state-invisible by design -----------------
        # A lost, duplicated, or reordered segment triggers
        # retransmission / dup-ACK machinery but never moves the
        # connection FSM; declaring the self-loops here makes that an
        # explicit, checked property of the model rather than an
        # accident.
        ProductRule(
            "segment_loss",
            guard={"tcp": frozenset({"SYN_SENT", "SYN_RCVD", "ESTABLISHED"})},
        ),
        ProductRule("segment_dup", guard={"tcp": frozenset({"ESTABLISHED"})}),
        ProductRule("segment_reorder", guard={"tcp": frozenset({"ESTABLISHED"})}),
        ProductRule(
            "handshake_timeout",
            guard={"tcp": frozenset({"SYN_SENT", "SYN_RCVD"})},
            update={"tcp": "CLOSED", "mpa": "FAILED", "qp": "ERROR"},
        ),
        # -- MPA negotiation (atomic with the QP callback) -----------------
        ProductRule(
            "mpa_neg_complete",
            guard={
                "tcp": frozenset({"ESTABLISHED"}),
                "mpa": frozenset({"NEGOTIATING"}),
                "qp": frozenset({"RESET"}),
            },
            update={"mpa": "OPERATIONAL", "qp": "RTS"},
        ),
        ProductRule(
            "mpa_neg_reject",
            guard={
                "tcp": frozenset({"ESTABLISHED"}),
                "mpa": frozenset({"NEGOTIATING"}),
            },
            update={"mpa": "FAILED", "qp": "ERROR"},
        ),
        # -- operational-stream faults -------------------------------------
        ProductRule(
            "crc_mismatch",
            guard={
                "mpa": frozenset({"OPERATIONAL"}),
                "qp": frozenset({"RTS", "SQD", "ERROR"}),
            },
            update={"mpa": "FAILED", "qp": "ERROR"},
        ),
        ProductRule(
            "remote_terminate",
            guard={
                "mpa": frozenset({"OPERATIONAL"}),
                "qp": frozenset({"RTS", "SQD"}),
            },
            update={"qp": "ERROR"},
        ),
        # -- verbs-driven send-queue drain ---------------------------------
        ProductRule(
            "sq_drain",
            guard={"qp": frozenset({"RTS"}), "mpa": frozenset({"OPERATIONAL"})},
            update={"qp": "SQD"},
        ),
        ProductRule(
            "sq_resume",
            guard={"qp": frozenset({"SQD"}), "mpa": frozenset({"OPERATIONAL"})},
            update={"qp": "RTS"},
        ),
        # -- close / teardown ----------------------------------------------
        ProductRule(
            "app_close_established",
            guard={"tcp": frozenset({"ESTABLISHED"})},
            update={"qp": "ERROR", "tcp": "FIN_WAIT_1"},
        ),
        ProductRule(
            "app_close_close_wait",
            guard={"tcp": frozenset({"CLOSE_WAIT"})},
            update={"qp": "ERROR", "tcp": "LAST_ACK"},
        ),
        ProductRule(
            "peer_fin",
            guard={"tcp": frozenset({"ESTABLISHED"})},
            update={"tcp": "CLOSE_WAIT"},
        ),
        ProductRule(
            "peer_fin_fin_wait_1",
            guard={"tcp": frozenset({"FIN_WAIT_1"})},
            update={"tcp": "CLOSING"},
        ),
        ProductRule(
            "peer_fin_fin_wait_2",
            guard={"tcp": frozenset({"FIN_WAIT_2"})},
            update={"tcp": "TIME_WAIT"},
        ),
        ProductRule(
            "peer_fin_acked",
            guard={"tcp": frozenset({"FIN_WAIT_1"})},
            update={"tcp": "TIME_WAIT"},
        ),
        ProductRule(
            "fin_acked_fin_wait_1",
            guard={"tcp": frozenset({"FIN_WAIT_1"})},
            update={"tcp": "FIN_WAIT_2"},
        ),
        ProductRule(
            "fin_acked_closing",
            guard={"tcp": frozenset({"CLOSING"})},
            update={"tcp": "TIME_WAIT"},
        ),
        ProductRule(
            "fin_acked_last_ack",
            guard={"tcp": frozenset({"LAST_ACK"})},
            update={"tcp": "CLOSED"},
        ),
        ProductRule(
            "msl_timeout",
            guard={"tcp": frozenset({"TIME_WAIT"})},
            update={"tcp": "CLOSED"},
        ),
        ProductRule(
            "tcp_reset",
            guard={"tcp": _ANY_OPEN_TCP},
            update={"tcp": "CLOSED", "mpa": "FAILED", "qp": "ERROR"},
        ),
    )
    invariants = (
        # An RC QP only reaches (or stays in) the send-capable states
        # while the MPA stream is fully operational.
        ProductInvariant(
            "rts-implies-mpa-operational",
            kind="always",
            when={"qp": frozenset({"RTS", "SQD"})},
            require={"mpa": frozenset({"OPERATIONAL"})},
        ),
        # ... and while the TCP connection can still carry its FPDUs.
        ProductInvariant(
            "rts-implies-tcp-alive",
            kind="always",
            when={"qp": frozenset({"RTS", "SQD"})},
            require={"tcp": frozenset({"ESTABLISHED", "CLOSE_WAIT"})},
        ),
        # A failed MPA stream must surface as a QP error — §IV.B item 2:
        # an RC stream error terminates the connection and flushes the QP.
        ProductInvariant(
            "mpa-failed-leads-to-qp-error",
            kind="leads-to",
            when={"mpa": frozenset({"FAILED"})},
            require={"qp": frozenset({"ERROR"})},
        ),
    )
    return ProductMachine(
        name="RC-PRODUCT",
        components=("qp", "mpa", "tcp"),
        machines={
            "qp": machines["QP"],
            "mpa": machines["MPA"],
            "tcp": machines["TCP"],
        },
        initial={"qp": "RESET", "mpa": "NEGOTIATING", "tcp": "CLOSED"},
        rules=rules,
        invariants=invariants,
        terminal={"qp": frozenset({"ERROR"}), "tcp": frozenset({"CLOSED"})},
    )
