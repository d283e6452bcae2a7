"""The recursive-stage AMT sorter (Fig. 2, §IV-A).

Runs merge stages until the input is one sorted run.  Two execution
modes:

* ``"model"`` — the data moves through the vectorised functional merge;
  each stage's time comes from the performance model (``N r / min(p f r,
  beta)``).  Scales to millions of records.
* ``"simulate"`` — every stage runs in the cycle-level simulator,
  including loader batching, FIFO stalls and terminal flushing; the
  stage time is the simulated cycle count over the clock frequency.
  Intended for <= a few hundred thousand records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import AmtConfig
from repro.core.parameters import HardwareParams, MergerArchParams
from repro.engine.results import SortOutcome
from repro.engine.stage import merge_stage, split_into_runs
from repro.errors import ConfigurationError
from repro.hw.terminal import SENTINEL_KEY
from repro.hw.tree import simulate_merge
from repro.memory.traffic import TrafficMeter
from repro.obs.runtime import observation
from repro.parallel.shm import unsigned_keys


@dataclass
class AmtSorter:
    """Single-AMT merge sorter.

    Parameters
    ----------
    config:
        The AMT shape (``lambda`` fields must be 1; use
        :class:`~repro.engine.unrolled.UnrolledSorter` or
        :class:`~repro.engine.pipelined.PipelinedSorter` otherwise).
    hardware / arch:
        Table II parameters for timing.
    presort_run:
        Bitonic presorter run length (1 disables; §VI-C uses 16).
    mode:
        ``"model"`` or ``"simulate"``.

    Simulate mode takes uint64 keys below the simulator's pad sentinel
    2**64 - 1 (DESIGN.md §6); other keys raise
    :class:`~repro.errors.ConfigurationError` up front.
    """

    config: AmtConfig
    hardware: HardwareParams
    arch: MergerArchParams = field(default_factory=MergerArchParams)
    presort_run: int = 16
    mode: str = "model"

    def __post_init__(self) -> None:
        if self.config.lambda_unroll != 1 or self.config.lambda_pipe != 1:
            raise ConfigurationError(
                "AmtSorter runs a single tree; use UnrolledSorter or "
                "PipelinedSorter for lambda > 1 configurations"
            )
        if self.mode not in ("model", "simulate"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.presort_run < 1:
            raise ConfigurationError("presort run length must be >= 1")

    # ------------------------------------------------------------------
    @property
    def stage_rate(self) -> float:
        """Streamed stage throughput: ``min(p f r, beta_DRAM)`` bytes/s."""
        return min(
            self.arch.amt_throughput_bytes(self.config.p), self.hardware.beta_dram
        )

    def sort(self, data: np.ndarray, input_presorted: bool = False) -> SortOutcome:
        """Sort an array of keys; returns data plus timing and traffic.

        ``input_presorted=True`` treats the input as already split into
        sorted runs of ``presort_run`` records (skips the presorter).
        """
        data = (
            unsigned_keys(data, limit=SENTINEL_KEY)
            if self.mode == "simulate" else np.asarray(data)
        )
        if data.size == 0:
            return SortOutcome(
                data=data.copy(), seconds=0.0, stages=0,
                record_bytes=self.arch.record_bytes, mode=self.mode,
            )
        obs = observation()
        record_bytes = self.arch.record_bytes
        with obs.span(
            "sorter.sort", mode=self.mode, records=int(data.size)
        ) as sort_span:
            runs = split_into_runs(
                data, self.presort_run, presorted=input_presorted
            )
            traffic = TrafficMeter()
            seconds = 0.0
            stages = 0
            while len(runs) > 1 or stages == 0:
                with obs.span(
                    "sorter.stage", stage=stages, runs=len(runs)
                ) as stage_span:
                    if self.mode == "simulate":
                        runs, stage_seconds = self._run_stage_simulated(runs)
                        stage_span.set(
                            cycles=round(stage_seconds * self.arch.frequency_hz)
                        )
                    else:
                        runs = merge_stage(runs, self.config.leaves)
                        stage_seconds = (
                            data.size * record_bytes / self.stage_rate
                        )
                stages += 1
                seconds += stage_seconds
                traffic.record_read("dram", data.size * record_bytes)
                traffic.record_write("dram", data.size * record_bytes)
                obs.count("engine.stage_records", int(data.size), mode=self.mode)
                obs.count("engine.bytes_read", int(data.size) * record_bytes)
                obs.count("engine.bytes_written", int(data.size) * record_bytes)
            obs.count("engine.stages", stages, mode=self.mode)
            obs.count("engine.sorts")
            sort_span.set(stages=stages, model_seconds=seconds)
        return SortOutcome(
            data=runs[0],
            seconds=seconds,
            stages=stages,
            record_bytes=record_bytes,
            mode=self.mode,
            traffic=traffic,
            detail={"config": self.config, "presort_run": self.presort_run},
        )

    # ------------------------------------------------------------------
    def _run_stage_simulated(
        self, runs: list[np.ndarray]
    ) -> tuple[list[np.ndarray], float]:
        """One stage through the cycle simulator, all groups on one tree."""
        frequency = self.arch.frequency_hz
        budget = self.hardware.beta_dram / frequency
        dtype = runs[0].dtype if runs else np.uint64
        out_runs, stats = simulate_merge(
            p=self.config.p,
            leaves=self.config.leaves,
            runs=[run.tolist() for run in runs],
            record_bytes=self.arch.record_bytes,
            read_bytes_per_cycle=budget,
            write_bytes_per_cycle=budget,
            batch_bytes=min(self.hardware.batch_bytes, 1024),
            check_sorted_inputs=False,
        )
        return (
            [np.asarray(run, dtype=dtype) for run in out_runs],
            stats.cycles / frequency,
        )
