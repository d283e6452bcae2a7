#!/usr/bin/env python3
"""A MapReduce-style shuffle stage built on the Bonsai sorter.

The paper's opening motivation: "MapReduce keys coming out of the mapping
stage must be sorted prior to being fed into the reduce stage.  Thus, the
throughput of the sorting procedure limits the throughput of the whole
MapReduce process" (§I).

This example models that workload shape: a steady queue of mapper-output
partitions (skewed key distributions, many duplicates) that must each be
sorted before reduction.  It uses the *throughput-optimal pipelined*
configuration — the regime where AMT pipelining exists (§III-A3: "AMT
pipelining is useful when multiple arrays need to be sorted") — and
compares the makespan against sorting the queue one array at a time.

Run:  python examples/mapreduce_shuffle.py
"""

from __future__ import annotations

import numpy as np

from repro import AmtConfig, ArrayParams, MergerArchParams, PipelinedSorter, presets
from repro.analysis.tables import render_table
from repro.records.workloads import zipfian
from repro.units import GB, format_seconds


def main() -> None:
    platform = presets.ssd_node()

    # Mapper partitions arrive as ~8 GB spills (at true scale); the
    # optimizer picks the Eq. 7 throughput-optimal pipeline for them.
    best = platform.bonsai(presort_run=256).throughput_optimal(
        ArrayParams.from_bytes(8 * GB)
    )
    print(f"throughput-optimal shuffle configuration: {best.config.describe()}")
    print(f"  steady-state rate: {best.throughput_bytes / GB:.1f} GB/s "
          "(saturates the I/O bus)")

    # Laptop-scale stand-ins: 12 partitions of skewed (zipf) keys, the
    # realistic shape of mapper output.
    partitions = [zipfian(60_000, seed=seed) for seed in range(12)]
    pipeline = PipelinedSorter(
        config=AmtConfig(p=8, leaves=64, lambda_pipe=4),
        hardware=platform.hardware,
        arch=MergerArchParams(),
        presort_run=256,
    )

    sorted_partitions, makespan = pipeline.sort_batch(partitions)
    for original, result in zip(partitions, sorted_partitions):
        assert np.array_equal(result, np.sort(original))
    sequential = sum(pipeline.sort(p).seconds for p in partitions)

    rows = [
        ("one-at-a-time (Eq. 4 each)", format_seconds(sequential)),
        ("pipelined queue (Eq. 3 steady state)", format_seconds(makespan)),
        ("speedup", f"{sequential / makespan:.2f}x"),
    ]
    print()
    print(render_table(("shuffle schedule", "modeled time"), rows,
                       title=f"shuffling {len(partitions)} mapper partitions"))
    print("all partitions verified sorted - reducers can stream-merge them.")

    # Reducer-side check: the sorted partitions merge into one sorted
    # stream (the sort-merge join primitive of §I).
    from repro.engine.stage import merge_runs

    merged = merge_runs(sorted_partitions)
    assert merged.size == sum(p.size for p in partitions)
    assert bool(np.all(merged[:-1] <= merged[1:]))
    print(f"reduce-side merge of {merged.size:,} records verified.")


if __name__ == "__main__":
    main()
