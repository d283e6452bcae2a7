"""The measured cluster executor: bit-exact output, skew, stragglers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.distributed.executor import ClusterExecutor, StragglerSpec
from repro.errors import ConfigurationError
from repro.obs.runtime import activated, live_observation
from repro.parallel import ParallelPlan
from repro.records.valsort import content_digest
from repro.records.workloads import skewed_nearly_sorted


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(21)
    return rng.integers(0, 1 << 32, size=20_000, dtype=np.uint64)


@pytest.fixture(scope="module")
def oracle_digest(data) -> str:
    return content_digest(np.sort(data, kind="stable"))


class TestSerialExecution:
    def test_matches_oracle_bit_exactly(self, data, oracle_digest):
        report = ClusterExecutor(nodes=4).execute(data)
        assert report.digest == oracle_digest
        assert np.array_equal(report.data, np.sort(data))
        assert report.records == data.size
        assert sum(report.partition_records) == data.size

    def test_digest_is_the_records_content_digest(self, data):
        # One digest for every surface: a cluster sort's output is
        # fingerprinted exactly like a served or bench sort's.
        report = ClusterExecutor(nodes=2).execute(data)
        assert report.digest == content_digest(np.sort(data))

    def test_phase_times_compose_elapsed(self, data):
        report = ClusterExecutor(nodes=4).execute(data)
        phases = (
            report.splitter_seconds + report.exchange_seconds
            + report.sort_seconds + report.merge_seconds
        )
        assert report.elapsed_seconds == pytest.approx(phases, rel=1e-6)

    def test_reports_measured_next_to_modeled(self, data):
        report = ClusterExecutor(nodes=4).execute(data)
        assert report.measured_ms_per_gb > 0
        assert report.modeled_ms_per_gb > 0
        assert report.measured_vs_modeled == pytest.approx(
            report.measured_ms_per_gb / report.modeled_ms_per_gb
        )
        assert report.modeled.skew_factor == report.measured_skew
        assert report.measured_skew >= 1.0

    def test_single_node_cluster_degenerates_cleanly(self, data, oracle_digest):
        report = ClusterExecutor(nodes=1).execute(data)
        assert report.digest == oracle_digest
        assert report.measured_skew == 1.0

    def test_seed_moves_splitters_not_output(self, data, oracle_digest):
        for seed in (0, 99):
            report = ClusterExecutor(nodes=4, seed=seed).execute(data)
            assert report.digest == oracle_digest


class TestPooledExecution:
    def test_jobs2_bit_identical_to_serial(self, data, oracle_digest):
        plan = ParallelPlan.from_jobs(2)
        report = ClusterExecutor(nodes=4, plan=plan).execute(data)
        assert report.digest == oracle_digest
        assert not report.straggler_recovered

    def test_partitions_identical_across_jobs(self, data):
        serial = ClusterExecutor(nodes=4).execute(data)
        pooled = ClusterExecutor(
            nodes=4, plan=ParallelPlan.from_jobs(2)
        ).execute(data)
        assert serial.partition_records == pooled.partition_records
        assert serial.measured_skew == pooled.measured_skew


class TestSkewedWorkload:
    def test_zipf_nearly_sorted_still_bit_exact(self):
        skewed = np.asarray(skewed_nearly_sorted(20_000, seed=1), dtype=np.uint64)
        report = ClusterExecutor(nodes=4).execute(skewed)
        assert report.digest == content_digest(np.sort(skewed, kind="stable"))
        # The oversampled sketch keeps even an adversarial histogram
        # within a modest skew; the report carries the measured number.
        assert 1.0 <= report.measured_skew < 4.0


class TestStragglers:
    @pytest.mark.parametrize("node", [0, 3])
    def test_killed_node_recovers_bit_exactly(self, data, oracle_digest, node):
        executor = ClusterExecutor(
            nodes=4,
            plan=ParallelPlan.from_jobs(2),
            straggler=StragglerSpec(node=node, mode="kill"),
        )
        report = executor.execute(data)
        assert report.digest == oracle_digest
        assert report.straggler_recovered

    def test_sleeping_node_times_out_and_recovers(self, data, oracle_digest):
        executor = ClusterExecutor(
            nodes=4,
            plan=ParallelPlan.from_jobs(2),
            straggler=StragglerSpec(node=2, mode="sleep", seconds=30.0),
            task_timeout=0.5,
        )
        report = executor.execute(data)
        assert report.digest == oracle_digest
        assert report.straggler_recovered

    def test_recompute_visible_in_trace(self, data, oracle_digest):
        executor = ClusterExecutor(
            nodes=4,
            plan=ParallelPlan.from_jobs(2),
            straggler=StragglerSpec(node=1, mode="kill"),
        )
        live = live_observation()
        with activated(live):
            report = executor.execute(data)
        assert report.digest == oracle_digest
        assert live.registry.counter_total("parallel.recomputed_chunks") >= 1
        names = {span["name"] for span in live.sink.spans()}
        assert {"cluster.sort", "cluster.exchange", "cluster.local_sort"} <= names

    def test_serial_plan_never_injects(self, data, oracle_digest):
        # No pool means no child process: the injection gate must not
        # fire in the parent (a SIGKILL there would take pytest down).
        executor = ClusterExecutor(
            nodes=4, straggler=StragglerSpec(node=1, mode="kill")
        )
        report = executor.execute(data)
        assert report.digest == oracle_digest
        assert not report.straggler_recovered


class TestValidation:
    def test_rejects_unpackable_keys(self):
        with pytest.raises(ConfigurationError, match="uint64"):
            ClusterExecutor(nodes=2).execute(np.asarray([-1, 2], dtype=np.int64))
        with pytest.raises(ConfigurationError, match="uint64"):
            ClusterExecutor(nodes=2).execute(np.asarray([1.5, 2.5]))

    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError, match="zero records"):
            ClusterExecutor(nodes=2).execute(np.empty(0, dtype=np.uint64))

    def test_rejects_bad_cluster_shapes(self):
        with pytest.raises(ConfigurationError, match=">= 1 node"):
            ClusterExecutor(nodes=0)
        with pytest.raises(ConfigurationError, match="does not exist"):
            ClusterExecutor(nodes=2, straggler=StragglerSpec(node=5))
        with pytest.raises(ConfigurationError, match="mode"):
            StragglerSpec(node=0, mode="explode")
        with pytest.raises(ConfigurationError, match="positive"):
            StragglerSpec(node=0, seconds=0)

    def test_report_round_trips_replace(self, data):
        report = ClusterExecutor(nodes=2).execute(data)
        trimmed = dataclasses.replace(report, data=None)
        assert trimmed.digest == report.digest
        assert trimmed.data is None
