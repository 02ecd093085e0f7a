"""Shared FSM core: one declaration per machine, one validator, one
observation point.

The four guarded state machines in the stack (QP ladder, TCP
connection, MPA negotiation, SCTP association) each declare themselves
exactly once, as a module-level :class:`Fsm` built from an
event-labelled table ``(state, event) -> state``.  Everything else is
derived from that table when the :class:`Fsm` is constructed:

* ``pairs`` — the ``(from, to)`` view :func:`transition` enforces at
  runtime;
* ``states`` — every state an arc touches, plus the initial state.

The static checker (``tools/iwarplint``, IW201–IW203) and the model
checker (``tools/iwarpcheck``) import the same objects through
:func:`declared_fsms`, so there is no second copy of any table to keep
in step.  A same-state arc is rejected at construction: the runtime
treats a same-state write as a no-op, so such an arc could never be
observed, only claimed.

The machines follow one discipline: a single ``_set_state`` mutator,
same-state writes as no-ops (that is what makes teardown paths
idempotent), and a machine-specific exception on an illegal move.
:func:`transition` is the one shared implementation of that mutator.

Funnelling every state change through one call site also creates the
hook the runtime transition-coverage sanitizer needs
(``tools/iwarpcheck``): an observer registered here sees the complete
``(machine, from_state, to_state)`` stream of a run, which the test
suite records and checks against the declared pairs — every runtime
transition must be declared, and every declared transition must be
exercised (or explicitly waived).

Observers must be cheap and must not raise: they run synchronously
inside protocol event handlers.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Protocol, Set, Tuple

#: ``observer(machine, from_state, to_state)`` — called after the write,
#: only for real moves (same-state no-ops are invisible, matching the
#: declared machines, which cannot contain self-loops).
TransitionObserver = Callable[[str, str, str], None]

_observers: List[TransitionObserver] = []

#: The modules that each declare one guarded machine as a module-level
#: :class:`Fsm`.  Both tools walk this tuple to find the live machines.
FSM_MODULES: Tuple[str, ...] = (
    "repro.core.verbs.qp",
    "repro.transport.tcp.connection",
    "repro.core.mpa.connection",
    "repro.transport.sctp",
)


@dataclass(frozen=True)
class Fsm:
    """One guarded state machine, declared by its event arcs.

    ``name`` is the label observers and coverage records key on;
    ``terminals`` are the quiescent states every run must be able to
    reach.  ``pairs`` (state -> allowed next states) and ``states`` are
    derived from ``events``; an arc whose source equals its target
    raises :class:`ValueError`.
    """

    name: str
    initial: str
    terminals: FrozenSet[str]
    events: Mapping[Tuple[str, str], str]
    pairs: Mapping[str, FrozenSet[str]] = field(init=False, repr=False)
    states: FrozenSet[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pairs: Dict[str, Set[str]] = {}
        states = {self.initial}
        for (src, event), dst in self.events.items():
            if src == dst:
                raise ValueError(
                    f"{self.name}: event {event!r} loops on {src}; a same-state "
                    f"write is a no-op, so the arc could never be taken"
                )
            pairs.setdefault(src, set()).add(dst)
            states.update((src, dst))
        object.__setattr__(
            self, "pairs", {src: frozenset(dsts) for src, dsts in pairs.items()}
        )
        object.__setattr__(self, "states", frozenset(states))


def declared_fsms() -> Dict[str, Fsm]:
    """Import every module in :data:`FSM_MODULES` and return
    ``module name -> the Fsm it declares``."""
    found: Dict[str, Fsm] = {}
    for module_name in FSM_MODULES:
        module = importlib.import_module(module_name)
        (fsm,) = [value for value in vars(module).values() if isinstance(value, Fsm)]
        found[module_name] = fsm
    return found


class Stateful(Protocol):
    """Anything carrying a guarded ``state`` attribute."""

    state: str


def add_transition_observer(observer: TransitionObserver) -> None:
    """Register ``observer`` for every subsequent state transition."""
    if observer not in _observers:
        _observers.append(observer)


def remove_transition_observer(observer: TransitionObserver) -> None:
    """Deregister ``observer`` (a no-op if it is not registered)."""
    try:
        _observers.remove(observer)
    except ValueError:
        pass


def transition(
    machine: Stateful,
    fsm: Fsm,
    new_state: str,
    error: Callable[[str], Exception],
    detail: str = "",
) -> bool:
    """Validated state change: the body of every ``_set_state``.

    A same-state "transition" is a no-op returning False.  A move absent
    from ``fsm.pairs`` raises ``error(message)`` with the machine's own
    exception type and leaves the state untouched.  A declared move
    writes the state, notifies registered observers, and returns True.
    """
    current = machine.state
    if new_state == current:
        return False
    if new_state not in fsm.pairs.get(current, ()):
        raise error(
            f"illegal {fsm.name} state transition {current} -> {new_state}{detail}"
        )
    machine.state = new_state
    for observer in tuple(_observers):
        observer(fsm.name, current, new_state)
    return True
