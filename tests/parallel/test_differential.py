"""Differential suite: parallel == serial, bit for bit.

The acceptance contract of the execution layer — for every surface that
takes a plan (model-mode merge stages, simulate-mode sorts, unrolled
trees in both modes, optimizer rankings), every ``jobs`` setting must
reproduce the plan-free results exactly: sorted bytes, modeled seconds,
cycle counts, traffic and ranking order.  Each surface is exercised
across at least three jobs settings and eight workload seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import Bonsai
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.engine.sorter import AmtSorter
from repro.engine.stage import merge_stage, split_into_runs
from repro.engine.unrolled import UnrolledSorter
from repro.errors import ConfigurationError
from repro.parallel import ParallelPlan
from repro.parallel.api import merge_stage_sharded
from repro.units import GB

SEEDS = tuple(range(8))

#: Three-plus jobs settings per the acceptance criteria; "auto" rides
#: along to cover CPU-count resolution.
JOBS_SETTINGS = (
    ParallelPlan.serial(),
    ParallelPlan(jobs=2),
    ParallelPlan(jobs=4, chunk_size=2),
    ParallelPlan(jobs="auto"),
)


@pytest.fixture(scope="module")
def hardware():
    return presets.aws_f1_measured().hardware


def outcomes_identical(left, right) -> bool:
    return (
        np.array_equal(left.data, right.data)
        and left.data.dtype == right.data.dtype
        and left.seconds == right.seconds
        and left.stages == right.stages
        and left.traffic == right.traffic
        and left.mode == right.mode
    )


class TestMergeStage:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_stage_matches_serial(self, seed):
        rng = np.random.default_rng(seed)
        runs = split_into_runs(rng.integers(0, 1 << 30, size=3000), 64)
        serial = merge_stage(list(runs), 8)
        for plan in JOBS_SETTINGS:
            sharded = merge_stage_sharded(list(runs), 8, plan)
            assert len(sharded) == len(serial)
            for left, right in zip(serial, sharded):
                assert np.array_equal(left, right) and left.dtype == right.dtype

    def test_mixed_dtype_runs_fall_back_to_serial(self):
        runs = [
            np.array([1, 5, 9], dtype=np.uint32),
            np.array([2, 4], dtype=np.uint64),
            np.array([3, 8], dtype=np.uint64),
        ]
        serial = merge_stage(list(runs), 2)
        sharded = merge_stage_sharded(list(runs), 2, ParallelPlan(jobs=4))
        for left, right in zip(serial, sharded):
            assert np.array_equal(left, right) and left.dtype == right.dtype


class TestAmtSorterModel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_model_sort_matches_serial(self, hardware, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=4000)
        serial = AmtSorter(
            config=AmtConfig(p=8, leaves=8), hardware=hardware
        ).sort(data)
        for plan in JOBS_SETTINGS:
            parallel = AmtSorter(
                config=AmtConfig(p=8, leaves=8), hardware=hardware, parallel=plan
            ).sort(data)
            assert outcomes_identical(serial, parallel)


class TestAmtSorterSimulate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_simulate_sort_matches_across_jobs(self, hardware, seed):
        """Simulate mode: every plan reproduces ``parallel=None`` exactly.

        A stage's groups stream through one tree back to back, so each
        stage is one joint simulation whatever the plan; outputs *and*
        cycle-derived seconds must agree bit for bit with the plan-free
        sorter.
        """
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=900)
        config = AmtConfig(p=8, leaves=8)
        reference = AmtSorter(
            config=config, hardware=hardware, mode="simulate"
        ).sort(data)
        assert np.array_equal(reference.data, np.sort(data))
        for plan in JOBS_SETTINGS:
            outcome = AmtSorter(
                config=config,
                hardware=hardware,
                mode="simulate",
                parallel=plan,
            ).sort(data)
            assert outcomes_identical(reference, outcome)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stage_is_one_joint_simulation(self, hardware, seed):
        """A multi-group stage costs the same cycles under every plan."""
        rng = np.random.default_rng(seed)
        runs = [
            np.sort(rng.integers(0, 1000, size=int(rng.integers(10, 60))))
            for _ in range(8)
        ]

        def stage(plan):
            return AmtSorter(
                config=AmtConfig(p=4, leaves=4),
                hardware=hardware,
                mode="simulate",
                parallel=plan,
            )._run_stage_simulated(list(runs))

        reference_runs, reference_seconds = stage(None)
        assert [run.tolist() for run in reference_runs] == [
            np.sort(np.concatenate(runs[start : start + 4])).tolist()
            for start in (0, 4)
        ]
        for plan in JOBS_SETTINGS:
            out_runs, seconds = stage(plan)
            assert seconds == reference_seconds
            assert [run.tolist() for run in out_runs] == [
                run.tolist() for run in reference_runs
            ]


class TestUnrolledModel:
    @pytest.mark.parametrize("partitioning", ["range", "address"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_model_sort_matches_serial(self, hardware, partitioning, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=5000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        serial = UnrolledSorter(
            config=config, hardware=hardware, partitioning=partitioning
        ).sort(data)
        for plan in JOBS_SETTINGS:
            parallel = UnrolledSorter(
                config=config,
                hardware=hardware,
                partitioning=partitioning,
                parallel=plan,
            ).sort(data)
            assert outcomes_identical(serial, parallel)
            assert parallel.detail == serial.detail

    def test_duplicate_heavy_partitions_match(self, hardware):
        # Heavy duplication can empty interior range partitions; the
        # sharded path must reproduce that case too.
        rng = np.random.default_rng(0)
        data = rng.integers(0, 4, size=3000)
        config = AmtConfig(p=8, leaves=16, lambda_unroll=4)
        serial = UnrolledSorter(config=config, hardware=hardware).sort(data)
        parallel = UnrolledSorter(
            config=config, hardware=hardware, parallel=ParallelPlan(jobs=4)
        ).sort(data)
        assert outcomes_identical(serial, parallel)


class TestUnrolledSimulate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_units_match_joint_simulation(self, hardware, seed):
        """Per-unit workers reproduce the joint tick loop exactly —
        including ``parallel_cycles = max(unit completion cycles)``."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1 << 30, size=1200)
        config = AmtConfig(p=8, leaves=8, lambda_unroll=4)
        joint = UnrolledSorter(config=config, hardware=hardware).simulate(data)
        for plan in JOBS_SETTINGS:
            sharded = UnrolledSorter(
                config=config, hardware=hardware, parallel=plan
            ).simulate(data)
            assert np.array_equal(joint.data, sharded.data)
            assert joint.seconds == sharded.seconds
            assert joint.stages == sharded.stages
            assert joint.detail == sharded.detail


class TestOptimizerRanking:
    @pytest.fixture(scope="class")
    def space(self):
        platform = presets.aws_f1()
        def build(plan):
            return Bonsai(
                hardware=platform.hardware,
                arch=MergerArchParams(),
                presort_run=16,
                p_max=8,
                leaves_max=128,
                unroll_max=4,
                pipe_max=4,
                parallel=plan,
            )
        return build

    @pytest.mark.parametrize("size_gb", [1, 4, 16])
    def test_latency_ranking_identical(self, space, size_gb):
        array = ArrayParams.from_bytes(size_gb * GB)
        serial = space(None).rank_by_latency(array)
        assert serial, "bounded space must stay non-empty"
        for plan in JOBS_SETTINGS:
            assert space(plan).rank_by_latency(array) == serial

    @pytest.mark.parametrize("size_gb", [1, 4])
    def test_throughput_ranking_identical(self, space, size_gb):
        array = ArrayParams.from_bytes(size_gb * GB)
        serial = space(None).rank_by_throughput(array)
        for plan in JOBS_SETTINGS:
            assert space(plan).rank_by_throughput(array) == serial

    def test_parallel_prefetch_keeps_caches_coherent(self, space):
        """After a parallel ranking, the parent's caches answer the
        serial loop: a second ranking runs pool-free yet identical."""
        array = ArrayParams.from_bytes(GB)
        bonsai = space(ParallelPlan(jobs=4))
        first = bonsai.rank_by_latency(array)
        cached_keys = set(bonsai._latency_cache)
        second = bonsai.rank_by_latency(array)
        assert first == second
        assert set(bonsai._latency_cache) == cached_keys  # all hits
        serial = space(None)
        assert serial.rank_by_latency(array) == first
        for key, value in bonsai._latency_cache.items():
            assert serial._latency_cache[key] == value


class TestSimulateShmTransport:
    """The zero-copy unrolled-unit transport vs the plan-free joint simulation."""

    KWARGS = dict(
        p=4, leaves=4, lambda_unroll=4, record_bytes=4,
        presort_run=16, total_bytes_per_cycle=64.0, batch_bytes=64,
    )

    def _joint(self, keys: np.ndarray) -> tuple:
        from repro.hw.banks import UnrolledSimulation

        simulation = UnrolledSimulation(**self.KWARGS)
        simulation.run(keys.tolist())
        return (
            simulation.output,
            max(unit.stages_done for unit in simulation.units),
            simulation.parallel_cycles,
            simulation.final_merge_cycles,
        )

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_unrolled_shm_matches_fallback(self, seed):
        """The shm transport reproduces the plan-free joint simulation,
        which is what ``UnrolledSorter.simulate`` falls back to without a
        plan."""
        from repro.parallel.api import simulate_unrolled_sharded

        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 1 << 30, size=600)
        sharded = simulate_unrolled_sharded(
            keys, plan=ParallelPlan(jobs=2), **self.KWARGS
        )
        assert sharded == self._joint(keys)
        assert sharded[0] == np.sort(keys).tolist()

    def test_uint64_range_packs(self):
        from repro.parallel.api import simulate_unrolled_sharded

        rng = np.random.default_rng(0)
        # 2**64 - 1 is the simulator's pad sentinel; every key below it
        # must survive the uint64 block.
        keys = rng.integers(0, 2**64 - 1, size=300, dtype=np.uint64)
        keys[:2] = [0, 2**64 - 2]
        sharded = simulate_unrolled_sharded(
            keys, plan=ParallelPlan(jobs=2), **self.KWARGS
        )
        assert sharded == self._joint(keys)
        assert sharded[0] == np.sort(keys).tolist()


#: Keys outside the uint64 record space, one per way of leaving it.
BAD_KEYS = {
    "float": np.asarray([3.0, 0.4, 2.0]),
    "negative": np.asarray([3, -1, 2], dtype=np.int64),
    "2**64": np.asarray([3, 2**64, 2], dtype=object),
}


class TestKeyRejection:
    """Simulate mode and the cluster refuse non-uint64 keys the same way
    at every jobs setting, instead of truncating or wrapping them."""

    @staticmethod
    def simulators(hardware):
        amt = AmtConfig(p=2, leaves=2)
        unrolled = AmtConfig(p=2, leaves=2, lambda_unroll=2)
        for plan in (None, ParallelPlan(jobs=2)):
            yield AmtSorter(
                config=amt, hardware=hardware, mode="simulate", parallel=plan
            ).sort
            yield UnrolledSorter(
                config=unrolled, hardware=hardware, parallel=plan
            ).simulate

    def entry_points(self, hardware):
        from repro.distributed.executor import ClusterExecutor

        yield from self.simulators(hardware)
        yield ClusterExecutor(nodes=2).execute

    def test_unpackable_keys_are_rejected(self, hardware):
        for name, keys in BAD_KEYS.items():
            messages = set()
            for entry in self.entry_points(hardware):
                with pytest.raises(ConfigurationError, match="uint64") as info:
                    entry(keys)
                messages.add(str(info.value))
            assert len(messages) == 1, (name, messages)

    def test_simulator_reserves_the_pad_sentinel(self, hardware):
        # The simulator pads partial tuples with 2**64 - 1 and strips it
        # from its output, so a real key of that value would vanish; the
        # cluster sort has no such key and keeps it.
        from repro.distributed.executor import ClusterExecutor

        keys = np.asarray([3, 2**64 - 1, 2], dtype=np.uint64)
        for entry in self.simulators(hardware):
            with pytest.raises(ConfigurationError, match="reserved"):
                entry(keys)
        report = ClusterExecutor(nodes=2).execute(keys)
        assert report.data.tolist() == [2, 3, 2**64 - 1]
