"""Finding type, plus the loader for the stack's four FSMs.

The checker's view of a protocol state machine is the live
:class:`repro.core.fsm.Fsm` itself: the event-labelled table
``(state, event) -> state`` that gives every arc a protocol meaning,
the ``(from, to)`` pairs ``_set_state`` enforces (derived from it), an
initial state, and the terminal (quiescent) states every run must be
able to reach.  :func:`machines_by_name` imports the modules that
declare them — the checker verifies what the stack actually ships, not
a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.fsm import Fsm, declared_fsms

#: One step of a counterexample trace: (from_state, event, to_state).
#: Product traces use a composite state rendering on either side.
TraceStep = Tuple[str, str, str]


@dataclass(frozen=True)
class Finding:
    """One model-checker result, optionally with a counterexample trace
    (the minimal event sequence from the initial state that exhibits
    the problem)."""

    machine: str
    rule: str
    message: str
    trace: Tuple[TraceStep, ...] = ()

    def render(self) -> str:
        lines = [f"{self.machine}: {self.rule} {self.message}"]
        if self.trace:
            lines.append("    counterexample trace:")
            for src, event, dst in self.trace:
                lines.append(f"      {src} --{event}--> {dst}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine,
            "rule": self.rule,
            "message": self.message,
            "trace": [
                {"from": src, "event": event, "to": dst}
                for src, event, dst in self.trace
            ],
        }


def machines_by_name() -> Dict[str, Fsm]:
    """The stack's live machines keyed by :attr:`Fsm.name` — the exact
    string the runtime coverage records key on.

    Requires ``src/`` on ``sys.path`` (the repo-root ``iwarpcheck.py``
    shim arranges this; under pytest, ``PYTHONPATH=src`` does).
    """
    return {fsm.name: fsm for fsm in declared_fsms().values()}
