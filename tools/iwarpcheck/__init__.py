"""iwarpcheck — explicit-state model checking for the protocol FSMs.

Where ``iwarplint`` checks the *source* against the declared machines,
iwarpcheck checks the *machines themselves* and the runtime behaviour
of the stack:

* :mod:`iwarpcheck.model` loads the four live ``repro.core.fsm.Fsm``
  machines (QP, TCP, MPA, SCTP) from the ``repro`` modules that
  declare them.
* :mod:`iwarpcheck.explore` exhaustively explores each machine:
  unreachable states and states with no path to a terminal.
* :mod:`iwarpcheck.product` builds the cross-layer RC product machine
  (QP x MPA x TCP) under a loss/dup/reorder/close event alphabet and
  checks the declared cross-layer invariants, reporting minimal
  counterexample event traces.
* :mod:`iwarpcheck.sanitizer` is the runtime transition-coverage
  sanitizer: an observer on ``repro.core.fsm`` records every transition
  the test suite takes, and the coverage gate fails on any runtime
  transition absent from the declared tables or any declared transition
  no test exercises (unless waived in the manifest).

Run ``python -m iwarpcheck`` from the repo root (``iwarpcheck.py`` is
the path shim), or ``make verify-fsm`` for the full model-check +
coverage pipeline.
"""

from iwarpcheck.explore import check_machine, event_paths_covering_all_edges
from iwarpcheck.model import Finding, machines_by_name
from iwarpcheck.product import ProductMachine, check_product, rc_product
from iwarpcheck.sanitizer import TransitionRecorder, coverage_findings

__all__ = [
    "Finding",
    "ProductMachine",
    "TransitionRecorder",
    "check_machine",
    "check_product",
    "coverage_findings",
    "event_paths_covering_all_edges",
    "machines_by_name",
    "rc_product",
]
