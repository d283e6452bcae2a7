# bonsai-lint: disable-file=determinism -- the harness times host wall-clock
# by design; everything it times is seeded and engine-verified deterministic.
"""Benchmark runner: times scenarios, verifies engines agree, emits JSON.

This is the only module in the package that reads the host clock.  Every
simulator scenario is executed under **both** engines — the event-driven
fast path and the naive per-cycle stepper — and the run fails loudly if
their outputs or statistics differ, so the recorded speedups can never
come from a divergent simulation.  The optimizer scenario compares a
cache-cold instance per sweep against one shared (memoized) instance and
checks the rankings are identical.

Timing uses the best of ``reps`` repetitions of ``time.perf_counter``
(wall clock, per the perf-trajectory contract); quick mode shrinks the
workloads and repetitions for CI smoke runs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.bench.scenarios import (
    BY_NAME,
    JOBS_SCAN,
    SCENARIOS,
    Scenario,
    make_bounded_optimizer,
    make_cluster_executor,
    make_cluster_skew_records,
    make_obs_sorter,
    make_optimizer,
    make_unrolled_sorter,
    run_end_to_end,
    run_micro,
    run_obs_workload,
    run_optimizer_sweep,
    run_parallel_optimizer_sweep,
)
from repro.distributed.executor import ClusterExecutionReport
from repro.errors import ConfigurationError, SimulationError
from repro.obs.runtime import DISABLED, activated, live_observation, observation
from repro.parallel import ParallelPlan, available_cpus
from repro.records.valsort import content_digest

#: Report schema tag; bump when the JSON layout changes.
SCHEMA = "bonsai-bench/v1"

#: CI gate: fail when a scenario's fast-engine time exceeds the committed
#: baseline by more than this factor.
DEFAULT_MAX_SLOWDOWN = 2.0


@dataclass
class BenchResult:
    """One scenario's timings (seconds) and verification payload."""

    name: str
    kind: str
    summary: str
    naive_seconds: float
    fast_seconds: float
    cycles: int | None = None
    bandwidth_bound: bool = False
    target_speedup: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Naive-over-fast wall-clock ratio (cold-over-memoized for the
        optimizer scenario)."""
        return self.naive_seconds / self.fast_seconds if self.fast_seconds else 0.0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "summary": self.summary,
            "naive_seconds": round(self.naive_seconds, 4),
            "fast_seconds": round(self.fast_seconds, 4),
            "speedup": round(self.speedup, 2),
            "cycles": self.cycles,
            "bandwidth_bound": self.bandwidth_bound,
            "target_speedup": self.target_speedup,
            **({"extra": self.extra} if self.extra else {}),
        }


def _best_of(fn: Callable[[], object], reps: int) -> tuple[float, object]:
    """Minimum wall-clock over ``reps`` calls, plus the last result."""
    best = None
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best or 0.0, result


def _run_simulator_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    reps = 2 if quick else 3
    if scenario.kind == "micro":
        runs = scenario.make_runs(quick)
        naive_seconds, naive_out = _best_of(
            lambda: run_micro(scenario, runs, "naive"), reps
        )
        fast_seconds, fast_out = _best_of(
            lambda: run_micro(scenario, runs, "fast"), reps
        )
        if naive_out[0] != fast_out[0] or naive_out[1] != fast_out[1]:
            raise SimulationError(
                f"{scenario.name}: engines diverged (output or StageStats)"
            )
        cycles = fast_out[1].cycles
        extra = {"records": fast_out[1].records_in}
    else:
        records = scenario.make_records(quick)
        naive_seconds, naive_out = _best_of(
            lambda: run_end_to_end(scenario, records, "naive"), reps
        )
        fast_seconds, fast_out = _best_of(
            lambda: run_end_to_end(scenario, records, "fast"), reps
        )
        if naive_out != fast_out:
            raise SimulationError(
                f"{scenario.name}: engines diverged on the end-to-end sort"
            )
        if fast_out[0] != sorted(records):
            raise SimulationError(f"{scenario.name}: end-to-end output unsorted")
        cycles = fast_out[2]
        extra = {"records": len(records), "stages": fast_out[1]}
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=naive_seconds,
        fast_seconds=fast_seconds,
        cycles=cycles,
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra=extra,
    )


def _run_optimizer_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    reps = 2 if quick else 3
    # Cold: a fresh Bonsai per sweep re-derives Eq. 1-10 throughout.
    cold_seconds, cold_result = _best_of(
        lambda: run_optimizer_sweep(make_optimizer()), reps
    )
    # Memoized: one shared instance; the first repetition fills the
    # caches, min-of-reps then reflects the steady (warm) cost.
    shared = make_optimizer()
    warm_seconds, warm_result = _best_of(
        lambda: run_optimizer_sweep(shared), max(2, reps)
    )
    if cold_result != warm_result:
        raise SimulationError(
            f"{scenario.name}: memoized optimizer ranked differently"
        )
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=cold_seconds,
        fast_seconds=warm_seconds,
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra={"sizes_gb": [entry[0] for entry in (cold_result or [])]},
    )


def _digest(values) -> str:
    """Order-sensitive content digest of a sorted output.

    Delegates to :func:`repro.records.valsort.content_digest` — the
    same fingerprint the serve result cache and ``sort --print-digest``
    report — so "identical" means the same thing on every surface.
    """
    return content_digest(values)


def _headline_jobs_key() -> tuple[str, str]:
    """Which ``jobs_seconds`` entry carries a parallel scenario's
    headline ``fast_seconds``, plus an annotation when it is degraded.

    With at least two CPUs the four-worker leg is the claim being
    benchmarked.  On a single-CPU host that leg only measures the cost
    of spawning processes that then time-slice one core, so the
    headline pins to the serial leg (speedup reads 1.0x, honestly
    neutral) and the annotation explains the exclusion.
    """
    if available_cpus() >= 2:
        return "4", ""
    return "1", (
        "pooled legs excluded from headline: single-CPU host times "
        "process-spawn overhead, not parallelism"
    )


def _run_parallel_sort_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    """Worker-count scan over the λ_unrl cycle-simulated unrolled sort.

    The plan-free joint simulation is the reference; every ``jobs``
    setting must reproduce its output bytes, cycle counts and stage
    count exactly (the determinism contract of ``repro.parallel``), and
    the recorded figures are jobs=1 vs jobs=4 wall-clock.  On a
    single-CPU host the pooled legs still run (the bit-identity scan is
    the scenario's real contract) but are excluded from the headline:
    four workers on one core time process-spawn overhead, not
    parallelism, and a recorded 0.05x would read as a regression.
    """
    reps = 1 if quick else 2
    records = scenario.make_records(quick)
    data = np.asarray(records, dtype=np.uint64)

    reference = make_unrolled_sorter(scenario, jobs=None).simulate(data)
    reference_digest = _digest(reference.data)
    jobs_seconds: dict[str, float] = {}
    for jobs in JOBS_SCAN:
        sorter = make_unrolled_sorter(scenario, jobs=jobs)
        seconds, outcome = _best_of(lambda: sorter.simulate(data), reps)
        jobs_seconds[str(jobs)] = seconds
        if (
            _digest(outcome.data) != reference_digest
            or outcome.seconds != reference.seconds
            or outcome.stages != reference.stages
            or outcome.detail != reference.detail
        ):
            raise SimulationError(
                f"{scenario.name}: jobs={jobs} diverged from the serial "
                "reference (output, cycles or stages)"
            )
    headline_jobs, note = _headline_jobs_key()
    extra = {
        "jobs_seconds": {k: round(v, 4) for k, v in jobs_seconds.items()},
        "digest": reference_digest,
        "identical": True,
        "host_cpus": available_cpus(),
        "headline_jobs": headline_jobs,
        "records": int(data.size),
        "parallel_cycles": reference.detail["parallel_cycles"],
        "final_merge_cycles": reference.detail["final_merge_cycles"],
    }
    if note:
        extra["multi_job_timing"] = note
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=jobs_seconds["1"],
        fast_seconds=jobs_seconds[headline_jobs],
        cycles=reference.detail["parallel_cycles"]
        + reference.detail["final_merge_cycles"],
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra=extra,
    )


def _run_parallel_optimizer_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    """Worker-count scan over the bounded design-space ranking.

    Every ``jobs`` setting must produce the exact
    :class:`~repro.core.optimizer.RankedConfig` sequences of the serial
    sweep — order, ties, figures of merit and all.
    """
    reps = 2 if quick else 3
    reference = run_parallel_optimizer_sweep(make_bounded_optimizer(None))
    jobs_seconds: dict[str, float] = {}
    for jobs in JOBS_SCAN:
        # A fresh (cold) instance per repetition times evaluation, not
        # cache hits.
        seconds, result = _best_of(
            lambda: run_parallel_optimizer_sweep(make_bounded_optimizer(jobs)),
            reps,
        )
        jobs_seconds[str(jobs)] = seconds
        if result != reference:
            raise SimulationError(
                f"{scenario.name}: jobs={jobs} ranked differently from serial"
            )
    space = make_bounded_optimizer(None)
    headline_jobs, note = _headline_jobs_key()
    extra = {
        "jobs_seconds": {k: round(v, 4) for k, v in jobs_seconds.items()},
        "identical": True,
        "host_cpus": available_cpus(),
        "headline_jobs": headline_jobs,
        "latency_configs": len(list(space.feasible_configs(False))),
        "pipeline_configs": len(list(space.feasible_configs(True))),
    }
    if note:
        extra["multi_job_timing"] = note
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=jobs_seconds["1"],
        fast_seconds=jobs_seconds[headline_jobs],
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra=extra,
    )


def _run_obs_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    """Time one instrumented workload with observability off vs on.

    The disabled path is what every ordinary run pays, so it lands in
    ``fast_seconds`` (and carries the baseline gate); the enabled path
    is ``naive_seconds``, making ``speedup`` read as "how much an
    observed run costs over an unobserved one".  Outputs must be
    identical — instrumentation never touches data.
    """
    reps = 3 if quick else 5
    records = scenario.make_records(quick)

    def unobserved() -> object:
        # Force the no-op observation even when the bench itself runs
        # under --trace/--metrics: this leg measures the disabled path.
        with activated(DISABLED):
            return run_obs_workload(scenario, records)

    disabled_seconds, disabled_out = _best_of(unobserved, reps)
    live = live_observation(trace_id=f"bench.{scenario.name}")

    def observed() -> object:
        with activated(live):
            return run_obs_workload(scenario, records)

    enabled_seconds, enabled_out = _best_of(observed, reps)
    if _digest(disabled_out) != _digest(enabled_out):
        raise SimulationError(
            f"{scenario.name}: enabling observability changed the output"
        )
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=enabled_seconds,
        fast_seconds=disabled_seconds,
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra={
            "records": len(records),
            "metric_updates": live.registry.total_updates,
            "spans_closed": live.tracer.spans_closed,
            "enabled_seconds": round(enabled_seconds, 4),
            "disabled_seconds": round(disabled_seconds, 4),
        },
    )


def _run_cluster_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    """Worker-count scan over the measured cluster-sort executor.

    The single-process single-tree sort of the same records is the
    naive leg — the thing a cluster has to beat to justify existing.
    Every ``jobs`` setting must land the executor on the exact output
    bytes of that serial sort (the executor additionally self-verifies
    each run against an ``np.sort`` oracle, so a divergence aborts
    before any figure is recorded).  Timings use the executor's own
    measured window — the four plan phases, excluding its oracle
    verification — and, per the parallel scenarios' convention, pooled
    legs are excluded from the headline on a single-CPU host.  A serial
    skew leg on the zipf/nearly-sorted workload records how close the
    oversampled splitters keep the measured partition skew to 1.0.
    """
    reps = 1 if quick else 2
    records = scenario.make_records(quick)
    data = np.asarray(records, dtype=np.uint64)

    serial_sorter = make_obs_sorter(scenario)
    naive_seconds, naive_out = _best_of(lambda: serial_sorter.sort(data), reps)
    reference_digest = _digest(naive_out.data)

    jobs_seconds: dict[str, float] = {}
    reports: dict[str, ClusterExecutionReport] = {}
    for jobs in JOBS_SCAN:
        executor = make_cluster_executor(scenario, jobs=jobs)
        best = executor.execute(data)
        for _ in range(reps - 1):
            report = executor.execute(data)
            if report.elapsed_seconds < best.elapsed_seconds:
                best = report
        if best.digest != reference_digest:
            raise SimulationError(
                f"{scenario.name}: jobs={jobs} executed cluster output "
                "diverged from the serial single-tree sort"
            )
        jobs_seconds[str(jobs)] = best.elapsed_seconds
        reports[str(jobs)] = best
    headline_jobs, note = _headline_jobs_key()
    headline = reports[headline_jobs]

    # Skew leg: serial (cheap, still oracle-verified inside execute());
    # what matters here is the splitters' measured balance, not time.
    skew_report = make_cluster_executor(scenario, jobs=None).execute(
        make_cluster_skew_records(scenario, quick)
    )

    extra = {
        "jobs_seconds": {k: round(v, 4) for k, v in jobs_seconds.items()},
        "digest": reference_digest,
        "identical": True,
        "host_cpus": available_cpus(),
        "headline_jobs": headline_jobs,
        "records": int(data.size),
        "cluster_nodes": scenario.cluster_nodes,
        "measured_ms_per_gb": round(headline.measured_ms_per_gb, 3),
        "modeled_ms_per_gb": round(headline.modeled_ms_per_gb, 3),
        "measured_vs_modeled": round(headline.measured_vs_modeled, 1),
        "measured_skew": round(headline.measured_skew, 4),
        "skew_leg": {
            "measured_skew": round(skew_report.measured_skew, 4),
            "identical": True,
        },
    }
    if note:
        extra["multi_job_timing"] = note
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=naive_seconds,
        fast_seconds=jobs_seconds[headline_jobs],
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra=extra,
    )


def _run_serve_scenario(scenario: Scenario, quick: bool) -> BenchResult:
    """Socket round trips through a live daemon vs one-shot sessions.

    The naive leg runs every request the way the CLI would: a fresh
    :class:`SortSession` per job, nothing amortized.  The fast leg
    drives the same request stream through a :class:`ServerThread` over
    its unix socket — after the first pass over the distinct jobs, the
    daemon's digest-keyed result cache answers the repeats, which is the
    serving architecture's whole claim.  Every served digest must equal
    its direct counterpart or the run aborts: a throughput number from
    divergent results would be meaningless.
    """
    import shutil
    import tempfile

    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    from repro.serve.session import SortJob, SortSession

    reps = 1 if quick else 2
    count = max(2000, scenario.n_records // 4) if quick else scenario.n_records
    distinct = [
        SortJob(records=count, seed=scenario.seed + offset,
                p=scenario.p, leaves=scenario.leaves)
        for offset in range(4)
    ]
    requests = [distinct[index % len(distinct)] for index in range(12)]

    def direct() -> list[str]:
        return [SortSession().run_sort(job)["digest"] for job in requests]

    naive_seconds, direct_digests = _best_of(direct, reps)

    scratch = tempfile.mkdtemp(prefix="bsv-", dir="/tmp")
    try:
        config = ServeConfig(socket=f"{scratch}/sock", queue_depth=32,
                             batch_max=4)
        with ServerThread(config), ServeClient(config.socket) as client:

            def served() -> list[dict]:
                ids = [client.send("sort", job.params()) for job in requests]
                return [client.collect(request_id) for request_id in ids]

            # First pass fills the cache; min-of-reps is the warm cost.
            fast_seconds, responses = _best_of(served, max(2, reps))
            stats = client.stats()["result"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    served_digests = [response["result"]["digest"] for response in responses]
    if served_digests != direct_digests:
        raise SimulationError(
            f"{scenario.name}: served digests diverged from direct "
            "SortSession runs"
        )
    return BenchResult(
        name=scenario.name,
        kind=scenario.kind,
        summary=scenario.summary,
        naive_seconds=naive_seconds,
        fast_seconds=fast_seconds,
        bandwidth_bound=scenario.bandwidth_bound,
        target_speedup=scenario.target_speedup,
        extra={
            "requests": len(requests),
            "distinct_jobs": len(distinct),
            "records": count,
            "cache_hits_final_pass": sum(
                1 for response in responses if response["cached"]
            ),
            "jobs_completed": stats["completed"],
            "identical": True,
        },
    )


def run_scenario(scenario: Scenario, quick: bool = False) -> BenchResult:
    """Time one scenario under both engines and verify they agree."""
    if scenario.kind in ("micro", "end_to_end"):
        return _run_simulator_scenario(scenario, quick)
    if scenario.kind == "optimizer":
        return _run_optimizer_scenario(scenario, quick)
    if scenario.kind == "parallel_sort":
        return _run_parallel_sort_scenario(scenario, quick)
    if scenario.kind == "parallel_optimizer":
        return _run_parallel_optimizer_scenario(scenario, quick)
    if scenario.kind == "obs":
        return _run_obs_scenario(scenario, quick)
    if scenario.kind == "cluster":
        return _run_cluster_scenario(scenario, quick)
    if scenario.kind == "serve":
        return _run_serve_scenario(scenario, quick)
    raise ConfigurationError(f"unknown scenario kind {scenario.kind!r}")


#: Scenario kinds that time worker pools of their own.  A pool worker
#: may not fork a nested pool (:meth:`ParallelPlan.wants_processes`), so
#: under ``bench --jobs N`` these run in the parent, where their pooled
#: legs still measure real processes.
POOLED_KINDS = frozenset({"parallel_sort", "parallel_optimizer", "cluster"})


def run_suite(
    names: Iterable[str] | None = None,
    quick: bool = False,
    jobs: int | str | None = None,
    seed: int | None = None,
) -> list[BenchResult]:
    """Run the selected scenarios (all of them by default) in order.

    ``jobs`` shards whole scenarios across a worker pool — each
    scenario's naive/fast engine pair stays pinned to one worker so its
    speedup ratio is timed on a single core either way.  Scenarios of a
    :data:`POOLED_KINDS` kind run in the parent after the pool.  ``seed``
    overrides every scenario's workload seed uniformly, which is how
    serial and parallel suite runs are made comparable record for
    record.  Results come back in scenario order regardless of ``jobs``.
    """
    if names:
        unknown = sorted(set(names) - set(BY_NAME))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(BY_NAME))}"
            )
        selected = [scenario for scenario in SCENARIOS if scenario.name in set(names)]
    else:
        selected = list(SCENARIOS)
    plan = ParallelPlan.from_jobs(jobs)
    sharded = [s for s in selected if s.kind not in POOLED_KINDS]
    pooled: dict[str, BenchResult] = {}
    if plan is not None and plan.wants_processes(len(sharded)):
        from repro.parallel.workers import worker_bench_scenario

        tasks = [(scenario.name, quick, seed) for scenario in sharded]
        results = plan.map(worker_bench_scenario, tasks)
        pooled = {s.name: result for s, result in zip(sharded, results)}
    obs = observation()
    results = []
    for scenario in selected:
        if scenario.name in pooled:
            results.append(pooled[scenario.name])
            continue
        if seed is not None:
            scenario = dataclasses.replace(scenario, seed=seed)
        with obs.span(
            "bench.scenario", scenario=scenario.name, kind=scenario.kind
        ):
            result = run_scenario(scenario, quick=quick)
        obs.count("bench.scenarios", kind=scenario.kind)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# report + baseline gate
# ----------------------------------------------------------------------
def build_report(results: Iterable[BenchResult], quick: bool) -> dict:
    """The ``BENCH_simulator.json`` payload."""
    return {
        "schema": SCHEMA,
        "quick": quick,
        "scenarios": {result.name: result.to_json() for result in results},
    }


def write_report(results: Iterable[BenchResult], path: str | Path, quick: bool) -> dict:
    """Serialise the report to ``path`` and return it."""
    report = build_report(results, quick)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def compare_to_baseline(
    report: Mapping,
    baseline: Mapping,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
) -> list[str]:
    """Regression messages for scenarios slower than baseline allows.

    Compares fast-engine wall-clock per scenario; scenarios present only
    on one side are ignored (new scenarios enter the gate when the
    baseline is regenerated — see ``docs/performance.md``).  Each
    message names the scenario and quantifies the regression: the
    actual slowdown factor, the gate it tripped, and the absolute
    times, so a CI failure is diagnosable from the log alone.
    """
    problems = []
    current = report.get("scenarios", {})
    reference = baseline.get("scenarios", {})
    for name in sorted(set(current) & set(reference)):
        now = current[name].get("fast_seconds")
        then = reference[name].get("fast_seconds")
        if not now or not then:
            continue
        if now > max_slowdown * then:
            factor = now / then
            problems.append(
                f"{name}: {factor:.2f}x slower than baseline "
                f"(gate {max_slowdown:.1f}x): {now:.3f}s now vs "
                f"{then:.3f}s baseline (+{now - then:.3f}s)"
            )
    return problems


def load_baseline(path: str | Path) -> dict:
    """Read a committed baseline report."""
    return json.loads(Path(path).read_text())
