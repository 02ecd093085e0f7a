"""Golden pin of every series the metrics registry exports.

Each harness mode streams a short ``bandwidth_mbs`` leg with metrics on;
the UD and RD modes add 2 % egress loss and the RD modes a seeded
reorder+dup pipeline on the switch port facing the receiver, so the
loss, fault and repair counters all carry non-zero values.  The full
``{series key: [kind, value]}`` map must equal the committed golden —
same names, kinds, labels and values.  This is the contract between the
stack's plain-int counters and what the registry reports (and what
``perfbench/run.py`` sums by name).

Regenerate after a deliberate change with
``PYTHONPATH=src:. python tests/obs/test_exported_series.py``.
"""

import json
import pathlib

import pytest

from repro.bench.harness import MODES, VerbsEndpointPair
from repro.simnet.engine import US
from repro.simnet.faults import seeded_chaos
from repro.simnet.loss import BernoulliLoss

from tests.properties.test_determinism_matrix import _canonicalize

GOLDEN = pathlib.Path(__file__).with_name("golden") / "exported_series.json"


def exported_series(mode: str) -> dict:
    """Canonicalised ``{series key: [kind, value]}`` after one short
    streaming leg."""
    lossy = mode.startswith(("ud", "rd"))
    pair = VerbsEndpointPair.build(
        mode, loss=BernoulliLoss(0.02, seed=5) if lossy else None, metrics=True,
    )
    if mode.startswith("rd"):
        pair.testbed.set_switch_faults(1, seeded_chaos(
            9, reorder_prob=0.05, reorder_hold_ns=20 * US, dup_prob=0.05,
        ))
    pair.bandwidth_mbs(16384, messages=24, window=8)
    return _canonicalize({s.key(): [s.kind, s.value] for s in pair.registry.collect()})


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
def test_exported_series_match_golden(mode):
    assert exported_series(mode) == _golden()[mode]


def test_golden_covers_every_mode():
    assert sorted(_golden()) == sorted(MODES)


if __name__ == "__main__":
    # One series per line, so a changed value shows as a one-line diff.
    modes = []
    for mode in sorted(MODES):
        series = sorted(exported_series(mode).items())
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in series)
        modes.append(f" {json.dumps(mode)}: {{\n{rows}\n }}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(modes) + "\n}\n")
