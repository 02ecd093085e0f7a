"""Self-test of the benchmark at tiny scale (one pass per workload).

    python3 perfbench/smoke.py

For every workload it runs one timed pass and one traced pass and checks
that every metric BENCHMARK.json names is printed with its unit, that no
point failed, and that the traced run's layer self times account for the
traced wall time.  It then corrupts one golden digest and checks that
the point is reported as failed.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from typing import List

import run as bench


def _check_output(workload: str, out: dict, section: str, problems: List[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        bench.report(workload, out)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload} ({section}): {result['failed']} points failed: "
                        + "; ".join(e for r in out["failures"] for e in r.errors))
    for name, unit in bench.metric_units(section).items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{workload}: {name} missing from the JSON or not in {unit}")
        if not any(line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"{workload}: {name} not printed with unit {unit}")


def main() -> int:
    bench.pin_hash_seed()
    sys.path.insert(0, str(bench.SRC))
    from checks import load_golden
    from workloads import DEFAULT_SEED, WORKLOADS

    problems: List[str] = []
    for workload in WORKLOADS:
        timed = bench.run(workload, DEFAULT_SEED, 0, trace=False, min_passes=1)
        _check_output(workload, timed, "end_to_end", problems)
        traced = bench.run(workload, DEFAULT_SEED, 0, trace=True)
        _check_output(workload, traced, "per_layer", problems)
        values = traced["values"]
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        if abs(layers / values["trace.pass_s"] - 1) > 0.01:
            problems.append(f"{workload}: layer self times cover {layers / values['trace.pass_s']:.3f} "
                            "of the traced wall time")
        print(f"smoke: {workload} done", flush=True)

    # A corrupted golden digest must surface as a failed point.
    golden = copy.deepcopy(load_golden("small_msg"))
    victim = sorted(golden)[0]
    golden[victim]["sim_ns"] += 1
    out = bench.run("small_msg", DEFAULT_SEED, 0, trace=False, golden=golden, min_passes=1)
    flagged = {r.point.key for r in out["failures"]}
    if out["correct"] or victim not in flagged or flagged - {victim}:
        problems.append(f"corrupted digest of {victim}: failed points {sorted(flagged)}")

    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
