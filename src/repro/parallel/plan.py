"""The parallel execution plan: one policy object for every sharded loop.

Every independently-executable unit of work in the reproduction — the
λ_unrl trees of an unrolled sort, the node shards of a cluster sort, the
configuration chunks of an optimizer sweep, the scenarios of a bench
run, the jobs of a serve batch — goes through one entry point,
:meth:`ParallelPlan.map`.  One unit is always a whole tree, shard, chunk,
scenario or job, never part of one stage.  The plan decides *how* the
map runs (a process pool or a plain loop); it never changes *what* is
computed, so results are bit-identical across every ``jobs`` setting by
construction: the same module-level worker function is applied to the
same task list in the same order, and the reduction is order-stable
(results land at their task's index, never in completion order).

The map runs as a plain loop in the parent when any of these hold:

* ``jobs`` resolves to 1, or there are fewer than two tasks;
* the platform cannot ``fork`` (process workers would re-import the
  world per task under ``spawn``, which costs more than it saves for
  our task sizes);
* the current process is itself a pool worker (no nested pools: any
  process that ``multiprocessing`` started has a ``parent_process()``).

Worker failure is not fatal: a crashed or timed-out chunk is recomputed
serially in the parent, so a flaky pool can slow a run down but can
never change its output or kill it.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs.runtime import (
    ObsTaskContext,
    absorb,
    activated,
    observation,
    task_context,
    worker_observation,
    worker_payload,
)

Task = TypeVar("Task")
Result = TypeVar("Result")

#: ``jobs="auto"`` resolves to the machine's CPU count via this function
#: (isolated for tests to monkeypatch).
def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _call_chunk(
    fn: Callable, tasks: list, obs_ctx: ObsTaskContext | None = None
) -> tuple[list, dict | None]:
    """Pool-side trampoline: apply ``fn`` to one chunk, keep order.

    When the parent shipped an observation context, the chunk runs
    under a fresh buffering observation whose metrics snapshot and span
    events ride back with the results (the second tuple element); the
    parent absorbs them, so instrumented counters are identical to a
    serial run by construction.
    """
    if obs_ctx is None:
        return [fn(task) for task in tasks], None
    worker = worker_observation(obs_ctx)
    with activated(worker):
        with worker.span("parallel.chunk", tasks=len(tasks)):
            results = [fn(task) for task in tasks]
    return results, worker_payload(worker)


@dataclass(frozen=True)
class ParallelPlan:
    """How to execute a list of independent tasks.

    Parameters
    ----------
    jobs:
        Worker count, or ``"auto"`` for the machine's CPU count; 1 runs
        a plain loop in the parent.
    chunk_size:
        Tasks per pool submission, or ``"auto"`` to split the task list
        into about four chunks per worker (amortises pickling for many
        small tasks while keeping the pool load-balanced).
    task_timeout:
        Optional per-task seconds before a chunk is declared lost and
        recomputed serially in the parent.  ``None`` waits forever.
    """

    jobs: int | str = 1
    chunk_size: int | str = "auto"
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.jobs, str):
            if self.jobs != "auto":
                raise ConfigurationError(
                    f"jobs must be a positive int or 'auto', got {self.jobs!r}"
                )
        elif self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if isinstance(self.chunk_size, str):
            if self.chunk_size != "auto":
                raise ConfigurationError(
                    f"chunk_size must be a positive int or 'auto', got "
                    f"{self.chunk_size!r}"
                )
        elif self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def serial(cls) -> "ParallelPlan":
        """The do-nothing plan: a plain loop in the parent."""
        return cls(jobs=1)

    @classmethod
    def from_jobs(cls, jobs: int | str | None) -> "ParallelPlan | None":
        """CLI adapter: ``None`` stays ``None`` (caller keeps its default
        path); a count or ``"auto"`` becomes a plan (1 runs serially)."""
        return None if jobs is None else cls(jobs=jobs)

    # ------------------------------------------------------------------
    def resolve_jobs(self) -> int:
        """The concrete worker count ``jobs`` stands for."""
        if self.jobs == "auto":
            return available_cpus()
        return int(self.jobs)

    def wants_processes(self, n_tasks: int) -> bool:
        """True when this map should actually shard across a pool."""
        return (
            n_tasks > 1
            and self.resolve_jobs() > 1
            and "fork" in multiprocessing.get_all_start_methods()
            # Pool workers are not daemonic on every Python (3.11's
            # ProcessPoolExecutor workers are not), so ask whether this
            # process was started by multiprocessing at all.
            and multiprocessing.parent_process() is None
        )

    def chunks(self, n_tasks: int) -> list[range]:
        """Contiguous index ranges covering ``range(n_tasks)`` in order."""
        if n_tasks <= 0:
            return []
        if self.chunk_size == "auto":
            size = max(1, -(-n_tasks // (self.resolve_jobs() * 4)))
        else:
            size = int(self.chunk_size)
        return [
            range(start, min(start + size, n_tasks))
            for start in range(0, n_tasks, size)
        ]

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Task], Result], tasks: Sequence[Task]) -> list[Result]:
        """Order-stable ``[fn(t) for t in tasks]``, possibly sharded.

        ``fn`` must be a module-level function (process workers import
        it by qualified name) and every task must be picklable.  The
        returned list is always in task order; worker failures and
        timeouts degrade the affected chunk to a serial recompute in the
        parent, so the result is independent of how the pool behaved.
        """
        tasks = list(tasks)
        obs = observation()
        if not self.wants_processes(len(tasks)):
            obs.count("parallel.maps", mode="serial")
            return [fn(task) for task in tasks]
        obs.count("parallel.maps", mode="pool")
        obs.count("parallel.tasks", len(tasks))
        chunks = self.chunks(len(tasks))
        results: list = [None] * len(tasks)
        context = multiprocessing.get_context("fork")
        max_workers = min(self.resolve_jobs(), len(chunks))
        executor = ProcessPoolExecutor(max_workers=max_workers, mp_context=context)
        try:
            with obs.span(
                "parallel.map", tasks=len(tasks), chunks=len(chunks),
                workers=max_workers,
            ):
                # Captured inside the span so worker span trees hang off
                # the dispatch span that actually ran them.
                ctx = task_context()
                futures = [
                    executor.submit(
                        _call_chunk,
                        fn,
                        [tasks[i] for i in chunk],
                        None if ctx is None else ctx.for_chunk(number),
                    )
                    for number, chunk in enumerate(chunks)
                ]
                for chunk, future in zip(chunks, futures):
                    timeout = (
                        None if self.task_timeout is None
                        else self.task_timeout * len(chunk)
                    )
                    try:
                        chunk_results, payload = future.result(timeout=timeout)
                    except FutureTimeoutError:
                        future.cancel()
                        # Recomputed in the parent under the parent's own
                        # observation, so the lost chunk's metrics are
                        # still counted exactly once.
                        obs.count("parallel.recomputed_chunks")
                        chunk_results = [fn(tasks[i]) for i in chunk]
                    except Exception:  # bonsai-lint: disable=exn-broad-fallback -- the serial recompute re-raises any real task error in the parent with a clean traceback, so nothing is masked
                        # Worker crash (BrokenProcessPool), unpicklable
                        # result, or the task's own deterministic error:
                        # recompute serially — a real error raises again
                        # here, in the parent, with a clean traceback.
                        obs.count("parallel.recomputed_chunks")
                        chunk_results = [fn(tasks[i]) for i in chunk]
                    else:
                        if payload is not None:
                            absorb(payload)
                    for index, value in zip(chunk, chunk_results):
                        results[index] = value
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return results
