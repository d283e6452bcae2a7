"""Per-layer tracing from outside the program.

:func:`install` replaces public functions of each layer with wrappers
that record one span per call; :func:`uninstall` puts the originals
back.  The wrappers live here, in the benchmark, and are installed only
for a traced run, so untraced runs execute the program unmodified.

Spans come from a private :class:`repro.obs.spans.Tracer` -- never the
program's active observation -- so they have the schema ``bonsai
report`` reads, and ``bonsai report <trace>`` renders a traced run's
per-layer self-time table with no new renderer.

A process forked from a traced one (a ``ParallelPlan`` pool worker)
inherits the wrappers.  Its spans cannot be handed back in memory, so
it gets its own tracer, labelled ``w<pid>`` and parented under the span
that forked it, which appends each span as it closes to
``<worker_prefix>.w<pid>.jsonl``.
"""

from __future__ import annotations

import functools
import json
import os
import threading

from repro.obs import spans as obs_spans
from repro.obs.sink import MemorySink

from perfbench import spec

#: Span names of the layer wrappers, one per wrapped function.
RECORDS_GENERATE = "records.generate"
RECORDS_VALIDATE = "records.validate"
RECORDS_DIGEST = "records.digest"
ENGINE_SPLIT = "engine.split"
ENGINE_MERGE_STAGE = "engine.merge_stage"
HW_SIMULATE_MERGE = "hw.simulate_merge"
PARALLEL_MAP = "parallel.map"
SESSION_RUN = "session.run"
CORE_RANK = "core.rank"


class _AppendSink:
    """Appends and closes per record: a pool worker may end in
    ``os._exit`` and would lose a buffered file's tail."""

    def __init__(self, path: str) -> None:
        self.path = path

    def emit(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        return None


class Tracer:
    """The wrappers' spans and simulated-stage stats (fork-aware).

    ``sink`` receives the measured process's spans: a ``MemorySink`` by
    default, or a ``JsonlSink`` for a daemon whose spans are read after
    it exits.
    """

    def __init__(self, sink=None, worker_prefix: str | None = None) -> None:
        self.owner = os.getpid()
        self.sink = MemorySink() if sink is None else sink
        self.tracer = obs_spans.Tracer(self.sink, trace_id=f"perfbench-{self.owner}")
        self.worker_prefix = worker_prefix
        #: ``(op index, StageStats)`` for every simulated stage.
        self.stage_stats: list[tuple[int | None, object]] = []
        #: Index of the benchmark op in progress (set by `workloads.timed_ops`).
        self.op: int | None = None
        self._lock = threading.Lock()
        self._worker: tuple[int, object] | None = None

    @property
    def spans(self) -> list[dict]:
        return self.sink.spans()

    def _here(self):
        """The tracer for this process: the owner's, or a forked worker's."""
        pid = os.getpid()
        if pid == self.owner:
            return self.tracer
        if self._worker is None or self._worker[0] != pid:
            if self.worker_prefix is None:
                worker = obs_spans.NullTracer()
            else:
                worker = obs_spans.Tracer(
                    _AppendSink(f"{self.worker_prefix}.w{pid}.jsonl"),
                    trace_id=self.tracer.trace_id, process=f"w{pid}",
                    root_parent=self.tracer.current_span_id())
            self._worker = (pid, worker)
        return self._worker[1]

    def span(self, name: str, **attrs):
        return self._here().span(name, **attrs)

    def add_stage(self, stats) -> None:
        if os.getpid() == self.owner:
            with self._lock:
                self.stage_stats.append((self.op, stats))


class NullTracer:
    """The untraced path: no wrappers, and the op loop's span is free."""

    op = None

    def span(self, name: str, **attrs):
        return obs_spans.NULL_SPAN


# ----------------------------------------------------------------------
# Installing the wrappers


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _simulate_merge(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(HW_SIMULATE_MERGE) as span:
            runs, stats = fn(*args, **kwargs)
            span.set(cycles=stats.cycles)
        tracer.add_stage(stats)
        return runs, stats
    return wrapper


def _parallel_map(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(plan, worker, tasks):
        tasks = list(tasks)
        mode = "pool" if plan.wants_processes(len(tasks)) else "serial"
        with tracer.span(PARALLEL_MAP, mode=mode, tasks=len(tasks)):
            return fn(plan, worker, tasks)
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap each layer's public entry points; returns the undo list.

    Functions a caller imports into its own namespace at module load
    (``from x import f``) are wrapped where that caller looks them up,
    so each call is timed exactly once.
    """
    import repro.core.optimizer as optimizer
    import repro.engine.sorter as sorter
    import repro.hw.tree as tree
    import repro.parallel.api as parallel_api
    import repro.parallel.plan as plan
    import repro.records.valsort as valsort
    import repro.records.workloads as workloads
    import repro.serve.session as session

    targets = [
        (workloads, "generate", _timed(tracer, RECORDS_GENERATE, workloads.generate)),
        (valsort, "validate_sort", _timed(tracer, RECORDS_VALIDATE, valsort.validate_sort)),
        (valsort, "content_digest", _timed(tracer, RECORDS_DIGEST, valsort.content_digest)),
        (sorter, "split_into_runs", _timed(tracer, ENGINE_SPLIT, sorter.split_into_runs)),
        (sorter, "merge_stage", _timed(tracer, ENGINE_MERGE_STAGE, sorter.merge_stage)),
        (parallel_api, "merge_stage_sharded",
         _timed(tracer, ENGINE_MERGE_STAGE, parallel_api.merge_stage_sharded)),
        (sorter, "simulate_merge", _simulate_merge(tracer, sorter.simulate_merge)),
        (tree, "simulate_merge", _simulate_merge(tracer, tree.simulate_merge)),
        (plan.ParallelPlan, "map", _parallel_map(tracer, plan.ParallelPlan.map)),
        (session.SortSession, "run", _timed(tracer, SESSION_RUN, session.SortSession.run)),
        (optimizer.Bonsai, "rank_by_latency",
         _timed(tracer, CORE_RANK, optimizer.Bonsai.rank_by_latency)),
        (optimizer.Bonsai, "rank_by_throughput",
         _timed(tracer, CORE_RANK, optimizer.Bonsai.rank_by_throughput)),
    ]
    undo = []
    for owner, attr, wrapper in targets:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics


def _total(spans: list[dict], name: str) -> float:
    return sum(s["dur_s"] for s in spans if s["name"] == name)


def _count(spans: list[dict], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def hw_counts(stage_stats: list) -> dict[str, float]:
    """Simulated merger/loader counts summed over the given stages."""
    out: dict[str, float] = {}
    fields = (("active_cycles", "merger_active_cycles"),
              ("stall_input", "merger_stall_input_cycles"),
              ("stall_output", "merger_stall_output_cycles"),
              ("idle_cycles", "merger_idle_cycles"))
    for _attr, name in fields:
        out[f"hw.{name}"] = 0
        for k in spec.MERGER_WIDTHS:
            out[f"hw.k{k}.{name}"] = 0
    classified = cycles = records = batches = limited = 0
    for stats in stage_stats:
        cycles += stats.cycles
        records += stats.records_out
        batches += stats.loader_stats.batches_issued
        limited += stats.loader_stats.cycles_bandwidth_limited
        for merger in stats.merger_stats:
            classified += merger.total_cycles
            for attr, name in fields:
                value = getattr(merger, attr)
                out[f"hw.{name}"] += value
                out[f"hw.k{merger.k}.{name}"] += value
    out["hw.merger_utilization"] = (
        out["hw.merger_active_cycles"] / classified if classified else 0.0)
    out["hw.loader_batches"] = batches
    out["hw.loader_bw_limited_cycles"] = limited
    out["hw.records_per_cycle"] = records / cycles if cycles else 0.0
    return out


def layer_metrics(spans: list[dict], ops: int, reference_stats: list) -> dict:
    """Per-op layer times and counts from spans of ``ops`` benchmark ops.

    ``reference_stats`` are the ``StageStats`` of the seed's reference
    op, so the simulated counts are exact per seed however many ops the
    time window held.
    """
    per_op = 1.0 / max(ops, 1)
    pool = [s for s in spans
            if s["name"] == PARALLEL_MAP and s["attrs"]["mode"] == "pool"]
    hw_seconds = _total(spans, HW_SIMULATE_MERGE)
    hw_cycles = sum(s.get("cycles", 0) for s in spans
                    if s["name"] == HW_SIMULATE_MERGE)
    metrics = {
        "records.generate_s": _total(spans, RECORDS_GENERATE) * per_op,
        "records.validate_s": _total(spans, RECORDS_VALIDATE) * per_op,
        "records.digest_s": _total(spans, RECORDS_DIGEST) * per_op,
        "engine.split_s": _total(spans, ENGINE_SPLIT) * per_op,
        "engine.merge_stage_s": _total(spans, ENGINE_MERGE_STAGE) * per_op,
        "engine.stages": _count(spans, ENGINE_MERGE_STAGE) * per_op,
        "hw.simulate_merge_s": hw_seconds * per_op,
        "hw.host_us_per_cycle": hw_seconds * 1e6 / hw_cycles if hw_cycles else 0.0,
        "hw.stages": _count(spans, HW_SIMULATE_MERGE) * per_op,
        "parallel.map_s": _total(spans, PARALLEL_MAP) * per_op,
        "parallel.pool_maps": len(pool) * per_op,
        "parallel.serial_maps": (_count(spans, PARALLEL_MAP) - len(pool)) * per_op,
        "parallel.tasks_per_pool": (
            sum(s["attrs"]["tasks"] for s in pool) / len(pool) if pool else 0.0),
        "session.run_s": _total(spans, SESSION_RUN) * per_op,
        "core.rank_s": _total(spans, CORE_RANK) * per_op,
        # Measured by the serve workload only; zero where no daemon runs.
        "serve.executor_busy_ratio": 0.0,
        "serve.wait_ms": 0.0,
        "serve.cache_hit_ratio": 0.0,
        "serve.rejected": 0,
    }
    metrics.update(hw_counts(reference_stats))
    return metrics


def coverage(spans: list[dict]) -> float:
    """The share of root wall time ``bonsai report`` attributes."""
    from repro.obs.report import attribute

    return attribute(spans)["coverage"] if spans else 0.0
