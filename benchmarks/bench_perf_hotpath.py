"""Hot-path wall-clock performance benchmark (the perf-gate's scenarios).

Unlike the figure benchmarks, which validate *what* the simulation
computes, this one tracks *how fast* it computes it: simulated bytes
per wall second (events/sec is shown alongside) for the fig06 bandwidth
mix and the fig07 loss mix.  It refreshes the repo-root ``BENCH_hotpath.json`` (before = the seed
snapshot committed in the baseline, after = this run) and re-checks the
determinism contract: the deterministic counters of every scenario must
match the committed baseline exactly — wall time may wobble with the
machine, the simulation may not.
"""

from conftest import print_table, save_results

from repro.bench.perfgate import (
    DETERMINISTIC_FIELDS, load_baseline, run_all, write_bench,
)


def test_perf_hotpath(benchmark):
    rows = benchmark.pedantic(
        lambda: run_all(best_of=1), rounds=1, iterations=1, warmup_rounds=1,
    )
    baseline = load_baseline()
    doc = write_bench(rows, baseline)

    table = [
        [
            name,
            f"{row['events_per_sec']:.0f}",
            f"{row['sim_bytes_per_sec'] / 1e6:.2f}",
            f"{doc['speedup'].get(name, float('nan')):.2f}x",
        ]
        for name, row in sorted(rows.items())
    ]
    print_table(
        "Hot-path performance (BENCH_hotpath.json)",
        ["scenario", "events/s", "sim-MB/s", "vs seed"],
        table,
    )
    save_results("perf_hotpath", doc)

    # The simulation must be bit-compatible with the committed baseline:
    # optimizations are only admissible when the event stream's
    # observable counters do not move.
    assert baseline is not None, "no committed baseline (run perfgate --rebaseline)"
    for name, row in rows.items():
        base = baseline["scenarios"][name]
        for field in DETERMINISTIC_FIELDS:
            assert row[field] == base[field], (
                f"{name}.{field}: {row[field]} != baseline {base[field]}"
            )

    # The headline claim the BENCH trajectory records: the hot-path work
    # bought >= 1.3x sim-bytes/sec on both scenarios over the seed tree.
    assert doc["speedup"]["fig06_bandwidth"] >= 1.3
    assert doc["speedup"]["fig07_loss"] >= 1.3
