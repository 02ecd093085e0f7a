"""iwarplint — protocol-invariant static analysis for the datagram-iWARP repo.

A small AST-based checker with a pluggable rule driver.  It enforces the
invariants that ordinary linters cannot see but that the reproduction of
"RDMA Capable iWARP over Datagrams" (IPDPS 2011) depends on:

* **Layering** (IW1xx) — the iWARP stack order from the paper
  (apps/socketif -> verbs -> rdmap -> ddp -> mpa -> transport -> simnet)
  with a declarative allowlist for the sanctioned datagram MPA-bypass.
* **FSM conformance** (IW2xx) — every write to a QP/connection ``state``
  attribute goes through a validated ``_set_state`` helper, and every
  statically-inferable transition is legal per the live machine each
  stack module declares (:class:`repro.core.fsm.Fsm`).
* **Determinism** (IW4xx) — no wall-clock reads, unseeded randomness, or
  set-ordering-dependent iteration inside the simulated stack, so that
  seeded runs (including PR 1's chaos tests) stay replayable.

Usage::

    python -m iwarplint src/            # from the repo root (via shim)
    PYTHONPATH=tools:src python -m iwarplint src/

Suppressions: append ``# iwarplint: disable=IW101`` to a line, or place
``# iwarplint: disable-file=IW101`` in the first ten lines of a file.
"""

from iwarplint.driver import Violation, lint_paths  # noqa: F401

__version__ = "0.1.0"
__all__ = ["Violation", "lint_paths", "__version__"]
