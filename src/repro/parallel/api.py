"""Parent-side sharding helpers for the engine's serial hot loops.

Each helper takes the exact inputs of one serial loop plus a
:class:`~repro.parallel.plan.ParallelPlan` and reproduces that loop's
results through :meth:`ParallelPlan.map`.  The task decomposition never
depends on the ``jobs`` setting, and every reduction is order-stable, so
a helper's output is bit-identical across ``jobs=1``, ``jobs=N`` and
``backend="serial"`` — the differential suite in ``tests/parallel``
pins this.

Only loops whose split is exact are sharded: model-mode merge groups,
model-mode unrolled partitions and simulate-mode unrolled units.  A
simulate-mode stage is not: its groups stream through one tree back to
back, so it always runs as one joint simulation in the caller.

Record data travels through :mod:`repro.parallel.shm` in one transport:
the parent packs batches into one shared block, workers attach
zero-copy views, and only tiny descriptors and cycle counts ride the
pickles.  Simulate-mode keys are checked once at the records boundary
(:func:`~repro.parallel.shm.unsigned_keys`), so every key packs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.stage import merge_stage
from repro.parallel.plan import ParallelPlan
from repro.parallel.shm import alloc_arrays, pack_arrays, release, view_array
from repro.parallel.workers import (
    worker_merge_group,
    worker_simulate_unit,
    worker_sort_partition,
)


def merge_stage_sharded(
    runs: list[np.ndarray], leaves: int, plan: ParallelPlan | None
) -> list[np.ndarray]:
    """One AMT merge stage, groups fanned out across the pool.

    Semantics match :func:`repro.engine.stage.merge_stage` exactly; the
    serial function is also the fallback whenever sharding cannot help
    (no plan, a single group, mixed-dtype runs that would change the
    packed block's common dtype, or a serial-forced plan).
    """
    if not runs or leaves < 2:
        return merge_stage(runs, leaves)
    bounds = [
        (start, min(start + leaves, len(runs)))
        for start in range(0, len(runs), leaves)
    ]
    dtypes = {run.dtype for run in runs}
    if (
        plan is None
        or len(dtypes) != 1
        or not plan.wants_processes(len(bounds))
    ):
        return merge_stage(runs, leaves)
    dtype = dtypes.pop()
    in_block, in_desc = pack_arrays(runs)
    out_lengths = [
        sum(int(runs[i].size) for i in range(start, stop))
        for start, stop in bounds
    ]
    out_block, out_desc = alloc_arrays(out_lengths, dtype)
    try:
        tasks = [
            (in_desc, out_desc, group, start, stop)
            for group, (start, stop) in enumerate(bounds)
        ]
        plan.map(worker_merge_group, tasks)
        return [
            view_array(out_desc, group, out_block).copy()
            for group in range(len(bounds))
        ]
    finally:
        release(in_block)
        release(out_block)


def sort_partitions_sharded(
    partitions: list[np.ndarray],
    config,
    hardware,
    arch,
    presort_run: int,
    plan: ParallelPlan | None,
) -> list | None:
    """Model-mode sort of independent partitions, one worker each.

    Returns a list of :class:`~repro.engine.results.SortOutcome` in
    partition order, or ``None`` when sharding does not apply and the
    caller should run its serial loop (same worker code path either
    way, so both give identical outcomes).
    """
    from repro.engine.results import SortOutcome

    dtypes = {part.dtype for part in partitions}
    if (
        plan is None
        or len(dtypes) != 1
        or not plan.wants_processes(len(partitions))
    ):
        return None
    dtype = dtypes.pop()
    in_block, in_desc = pack_arrays(partitions)
    out_block, out_desc = alloc_arrays([int(p.size) for p in partitions], dtype)
    try:
        tasks = [
            (in_desc, out_desc, index, config, hardware, arch, presort_run, "model")
            for index in range(len(partitions))
        ]
        results = plan.map(worker_sort_partition, tasks)
        outcomes = []
        for index, seconds, stages, traffic, detail in results:
            outcomes.append(
                SortOutcome(
                    data=view_array(out_desc, index, out_block).copy(),
                    seconds=seconds,
                    stages=stages,
                    record_bytes=arch.record_bytes,
                    mode="model",
                    traffic=traffic,
                    detail=detail,
                )
            )
        return outcomes
    finally:
        release(in_block)
        release(out_block)


def simulate_unrolled_sharded(
    keys: np.ndarray,
    p: int,
    leaves: int,
    lambda_unroll: int,
    record_bytes: int,
    presort_run: int,
    total_bytes_per_cycle: float,
    batch_bytes: int,
    plan: ParallelPlan,
    max_cycles: int = 5_000_000,
) -> tuple[list[int], int, int, int]:
    """λ unrolled units, each cycle-simulated in its own worker.

    Mirrors :meth:`repro.hw.banks.UnrolledSimulation.run`: every unit
    sorts its address-range chunk on a 1/λ bandwidth share, then the
    sorted ranges merge through one tree at the aggregate budget.  In
    the joint loop a finished unit's tick is a no-op, so ticking each
    unit alone visits the exact same cycles — per-unit completion
    counts reduce to ``parallel_cycles`` with the existing ``max()``
    semantics, bit-identical to the joint simulation.

    ``keys`` is an integer array that passed
    :func:`~repro.parallel.shm.unsigned_keys`.  It packs into one shared
    block as λ chunk slots; each worker attaches a view of its chunk and
    writes the sorted range back into the same-sized output slot, so
    only cycle/stage counts ride the result pickles.

    Returns ``(output, max_stages_done, parallel_cycles,
    final_merge_cycles)``.
    """
    from repro.hw.tree import simulate_merge

    share = total_bytes_per_cycle / lambda_unroll
    chunk = -(-len(keys) // lambda_unroll)
    in_block, in_desc = pack_arrays(
        [keys[index * chunk : (index + 1) * chunk] for index in range(lambda_unroll)]
    )
    out_block, out_desc = alloc_arrays(list(in_desc.lengths), keys.dtype)
    try:
        tasks = [
            (
                in_desc, out_desc, index, p, leaves, record_bytes,
                share, batch_bytes, presort_run, max_cycles,
            )
            for index in range(lambda_unroll)
        ]
        results = plan.map(worker_simulate_unit, tasks)
        parallel_cycles = max(cycles for _busy, _stages, cycles in results)
        stages_done = max(stages for _busy, stages, _cycles in results)
        ranges = [
            view_array(out_desc, index, out_block).tolist()
            for index in range(lambda_unroll)
        ]
    finally:
        release(in_block)
        release(out_block)
    merged, stats = simulate_merge(
        p=p,
        leaves=leaves,
        runs=ranges,
        record_bytes=record_bytes,
        read_bytes_per_cycle=total_bytes_per_cycle,
        write_bytes_per_cycle=total_bytes_per_cycle,
        batch_bytes=batch_bytes,
        check_sorted_inputs=False,
    )
    return merged[0], stages_done, parallel_cycles, stats.cycles
