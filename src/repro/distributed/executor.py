# bonsai-lint: disable-file=determinism -- the executor measures host
# wall-clock by design (the Table I figure of merit needs real elapsed
# time); everything it times is seeded, oracle-verified and digested.
"""Execute the cluster sort with real processes and measure it.

:class:`ClusterExecutor` runs the GraySort plan the analytical
:class:`~repro.distributed.cluster.Cluster` only models:

1. **splitters** — a seeded oversampled key sketch yields the range
   boundaries (:func:`~repro.distributed.exchange.sample_splitters`);
2. **exchange** — input chunks pack into one shared uint64 block; one
   worker per sender range-partitions its chunk into a shuffle block
   whose (sender, receiver) shards are disjoint ranges, through
   :meth:`~repro.parallel.plan.ParallelPlan.map`;
3. **local sort** — one worker per receiver gathers its shards,
   concatenates, and sorts through a single-tree
   :class:`~repro.engine.sorter.AmtSorter` into the output block;
4. **merge** — the parent concatenates the nodes' sorted partitions
   (range partitioning makes that globally sorted by construction).

Every run then verifies the output bit-exactly against a serial oracle
``np.sort`` — the verification is outside the timed window, so the
measured figure covers exactly the four phases above.  The report pairs
the measured Table I figure of merit (``elapsed x nodes / GB``) with
the analytical model's prediction at the *measured* partition skew, so
the measured-vs-modeled delta is one number.

Straggler tolerance is the parallel layer's: a killed or stalled node
sort degrades to a serial recompute in the parent
(:meth:`ParallelPlan.map`'s timeout/crash fallback), so the run still
produces bit-exact output; the injected worker marks a shared flag slot
first, which is how ``straggler_recovered`` is reported even with
observability disabled.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.distributed.cluster import Cluster, ClusterSortReport
from repro.distributed.exchange import (
    DEFAULT_OVERSAMPLE,
    ShuffleLayout,
    sample_splitters,
)
from repro.distributed.node import SortingNode
from repro.errors import ConfigurationError, SimulationError
from repro.obs.runtime import observation
from repro.parallel.plan import ParallelPlan
from repro.parallel.shm import (
    alloc_arrays,
    pack_arrays,
    release,
    unsigned_keys,
    view_array,
)
from repro.parallel.workers import (
    worker_cluster_node_sort,
    worker_exchange_partition,
)
from repro.records.valsort import content_digest
from repro.units import ms_per_gb

#: Straggler injection modes: ``kill`` SIGKILLs the node's worker
#: process (pool crash -> parent recompute), ``sleep`` stalls it past
#: the plan's per-task timeout (future timeout -> parent recompute).
STRAGGLER_MODES = ("kill", "sleep")


@dataclass(frozen=True)
class StragglerSpec:
    """Deliberate fault injection into one node's local sort."""

    node: int
    mode: str = "sleep"
    seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigurationError(f"straggler node must be >= 0, got {self.node}")
        if self.mode not in STRAGGLER_MODES:
            raise ConfigurationError(
                f"straggler mode must be one of {STRAGGLER_MODES}, got {self.mode!r}"
            )
        if self.seconds <= 0:
            raise ConfigurationError(
                f"straggler sleep must be positive, got {self.seconds}"
            )


@dataclass(frozen=True)
class ClusterExecutionReport:
    """One executed, verified cluster sort: measured next to modeled."""

    nodes: int
    records: int
    total_bytes: int
    elapsed_seconds: float
    splitter_seconds: float
    exchange_seconds: float
    sort_seconds: float
    merge_seconds: float
    measured_skew: float
    partition_records: tuple[int, ...]
    node_model_seconds: tuple[float, ...]
    node_stages: tuple[int, ...]
    modeled: ClusterSortReport
    straggler_recovered: bool
    digest: str
    data: np.ndarray | None = field(repr=False, compare=False, default=None)

    @property
    def measured_ms_per_gb(self) -> float:
        """The executed Table I figure of merit (elapsed x nodes / GB)."""
        return ms_per_gb(self.elapsed_seconds * self.nodes, self.total_bytes)

    @property
    def modeled_ms_per_gb(self) -> float:
        """The analytical prediction at the measured partition skew."""
        return self.modeled.per_node_ms_per_gb

    @property
    def measured_vs_modeled(self) -> float:
        """Measured over modeled — the reproduction's honesty gap (the
        functional Python engine against modeled FPGA hardware)."""
        return self.measured_ms_per_gb / self.modeled_ms_per_gb


def _default_config() -> AmtConfig:
    return AmtConfig(p=8, leaves=16)


def _default_hardware() -> HardwareParams:
    from repro.core import presets

    return presets.aws_f1_measured().hardware


@dataclass
class ClusterExecutor:
    """Run one measured cluster sort; see the module docstring.

    Parameters
    ----------
    nodes:
        Partition count — also the worker task count of both phases.
    config / hardware / arch / presort_run / mode:
        Per-node :class:`AmtSorter` parameters (every node runs the
        same single-tree sorter the serial path would).
    plan:
        ``None`` or a serial plan runs everything in-process (same
        results, no pool); a process plan runs each phase's tasks as
        actual worker processes.  The local-sort phase derives a
        one-task-per-chunk plan so a straggling node recomputes alone.
    oversample / seed:
        Splitter sketch parameters (seeded: same data + seed = same
        splitters at every ``jobs`` setting).
    node_model:
        The analytical node used for the modeled comparison report.
    straggler:
        Optional fault injection into one node's sort.
    task_timeout:
        Per-task seconds for the local-sort phase (required for
        ``sleep``-mode stragglers to actually trip the fallback);
        ``None`` inherits the plan's own timeout.
    """

    nodes: int = 4
    config: AmtConfig = field(default_factory=_default_config)
    hardware: HardwareParams = field(default_factory=_default_hardware)
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    presort_run: int = 16
    mode: str = "model"
    plan: ParallelPlan | None = None
    oversample: int = DEFAULT_OVERSAMPLE
    seed: int = 0
    node_model: SortingNode = field(default_factory=SortingNode)
    straggler: StragglerSpec | None = None
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError(f"cluster needs >= 1 node, got {self.nodes}")
        if self.mode not in ("model", "simulate"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.straggler is not None and self.straggler.node >= self.nodes:
            raise ConfigurationError(
                f"straggler node {self.straggler.node} does not exist in a "
                f"{self.nodes}-node cluster"
            )

    # ------------------------------------------------------------------
    def execute(self, data: np.ndarray) -> ClusterExecutionReport:
        """Sort ``data`` across the cluster; verify; measure; report."""
        keys = unsigned_keys(data).astype(np.uint64, copy=False)
        if keys.size == 0:
            raise ConfigurationError("cannot cluster-sort zero records")
        plan = self.plan or ParallelPlan.serial()
        # One node per chunk: a straggler's timeout/crash recomputes
        # only that node, and its per-future timeout is per-node.
        node_plan = dataclasses.replace(
            plan,
            chunk_size=1,
            task_timeout=self.task_timeout or plan.task_timeout,
        )
        obs = observation()
        record_bytes = self.arch.record_bytes
        total_bytes = int(keys.size) * record_bytes
        chunks = np.array_split(keys, self.nodes)
        straggler = (
            None if self.straggler is None
            else (self.straggler.node, self.straggler.mode, self.straggler.seconds)
        )
        out_block = flag_block = None
        started = time.perf_counter()
        with obs.span(
            "cluster.sort", nodes=self.nodes, records=int(keys.size),
            mode=self.mode,
        ) as sort_span:
            with obs.span("cluster.splitters", oversample=self.oversample):
                splitters = sample_splitters(
                    keys, self.nodes, self.oversample, self.seed
                )
            split_done = time.perf_counter()
            in_block, in_desc = pack_arrays(chunks)
            shuffle_block, shuffle_desc = alloc_arrays(
                [int(chunk.size) for chunk in chunks], np.uint64
            )
            try:
                with obs.span("cluster.exchange", nodes=self.nodes):
                    exchange_tasks = [
                        (
                            in_desc, shuffle_desc, sender,
                            tuple(int(s) for s in splitters),
                        )
                        for sender in range(self.nodes)
                    ]
                    count_rows = plan.map(
                        worker_exchange_partition, exchange_tasks
                    )
                layout = ShuffleLayout(
                    counts=tuple(tuple(row) for row in count_rows)
                )
                exchange_done = time.perf_counter()
                out_block, out_desc = alloc_arrays(
                    layout.partition_lengths(), np.uint64
                )
                flag_block, flag_desc = alloc_arrays([1], np.uint8)
                # A fresh block is zero-filled on Linux, but the
                # recovered-straggler flag must not rest on that.
                view_array(flag_desc, 0, flag_block)[:] = 0
                with obs.span("cluster.local_sort", nodes=self.nodes):
                    sort_tasks = [
                        (
                            shuffle_desc, out_desc, flag_desc, receiver,
                            tuple(layout.gather_ranges(receiver)),
                            self.config, self.hardware, self.arch,
                            self.presort_run, self.mode, straggler,
                        )
                        for receiver in range(self.nodes)
                    ]
                    node_results = node_plan.map(
                        worker_cluster_node_sort, sort_tasks
                    )
                sorts_done = time.perf_counter()
                with obs.span("cluster.merge", nodes=self.nodes):
                    partitions = [
                        view_array(out_desc, receiver, out_block).copy()
                        for receiver in range(self.nodes)
                    ]
                    output = np.concatenate(partitions)
                merge_done = time.perf_counter()
                recovered = bool(view_array(flag_desc, 0, flag_block)[0])
            finally:
                release(in_block)
                release(shuffle_block)
                if out_block is not None:
                    release(out_block)
                if flag_block is not None:
                    release(flag_block)
            # Verification sits outside the timed window (the oracle
            # sort would otherwise dominate the measured figure) but
            # inside the dispatch span: a divergent run never reports.
            oracle = np.sort(keys, kind="stable")
            if output.size != oracle.size or not np.array_equal(output, oracle):
                raise SimulationError(
                    f"executed cluster sort diverged from the serial oracle "
                    f"({int(output.size)} records out vs {int(oracle.size)} in)"
                )
            digest = content_digest(output)
            sort_span.set(
                skew=round(layout.skew, 4),
                straggler_recovered=recovered,
                digest=digest,
            )
        elapsed = merge_done - started
        by_node = {node: (seconds, stages) for node, seconds, stages in node_results}
        modeled = Cluster(
            node=self.node_model, nodes=self.nodes, skew_factor=layout.skew
        ).sort_report(total_bytes)
        obs.count("cluster.sorts", nodes=self.nodes)
        return ClusterExecutionReport(
            nodes=self.nodes,
            records=int(keys.size),
            total_bytes=total_bytes,
            elapsed_seconds=elapsed,
            splitter_seconds=split_done - started,
            exchange_seconds=exchange_done - split_done,
            sort_seconds=sorts_done - exchange_done,
            merge_seconds=merge_done - sorts_done,
            measured_skew=layout.skew,
            partition_records=tuple(layout.partition_lengths()),
            node_model_seconds=tuple(
                by_node[node][0] for node in range(self.nodes)
            ),
            node_stages=tuple(by_node[node][1] for node in range(self.nodes)),
            modeled=modeled,
            straggler_recovered=recovered,
            digest=digest,
            data=output,
        )
