"""The three in-process workloads and the shared run record.

Every workload drives the program only through public entry points
(``SortSession.run`` and ``repro.hw.tree.simulate_merge``), times whole
ops on the host clock with a reference timed between them (see
``hostspeed``), and checks every output after the timed window: each
sorted output must digest like ``np.sort`` of the same input, and the
simulated cycle count of the seed's reference op (op 0) must equal the
naive cycle engine's.  A failed check marks its op failed; nothing is
dropped.

An in-process run makes ``JOBS`` jobs from the seed and runs them in
rounds until the window closes; each job is measured by the median of
its rounds (`job_medians`).
"""

from __future__ import annotations

import functools
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench import hostspeed, layers

#: AMT shape and platform of the session workloads (the ``bonsai sort``
#: defaults).
P, LEAVES, PLATFORM = 8, 16, "aws-f1-measured"
#: ``sort_model`` rotates these so a kernel that wins on random keys but
#: loses on sorted or repeated keys shows.
ROTATION = ("uniform", "duplicates", "nearly_sorted")
#: ``sim_storage``: AMT(16,8) reading at 2% of the tree's demand
#: (HDD-class, Fig. 13), writing at the DRAM rate, 4 KiB batches.
STORAGE_P, STORAGE_LEAVES, STORAGE_READ_SHARE, STORAGE_BATCH = 16, 8, 0.02, 4096
RECORD_BYTES = 4
PRESORT = 16

#: Distinct jobs of an in-process run, repeated in rounds over the window.
JOBS = 6

#: Time to import the public entry points and build a session, measured
#: in fresh interpreters so every sample pays the same imports.
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.hw.tree\n"
    "from repro.serve.session import SortSession\n"
    f"SortSession().platform({PLATFORM!r})\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; tests shrink them, the benchmark uses the defaults."""

    sort_keys: int = 125_000
    sim_compute_keys: int = 8_192
    sim_storage_keys: int = 16_384
    serve_keys: int = 20_000
    setup_samples: int = 5


@dataclass
class Op:
    """One timed operation and the outcome of its check."""

    kind: str
    latency_s: float = 0.0
    keys: int = 0
    cycles: int = 0
    in_window: bool = True
    error: str | None = None
    #: Ops whose latencies are alike: the closed loop a served request
    #: ran in, or the input distribution of a ``sort_model`` job.
    group: int = 0
    #: Measured to normalized seconds, from the reference timed around
    #: the op (around its episode when serving).
    scale: float = 1.0
    #: The in-process job the op is a round of.
    job: int = 0

    @property
    def host_s(self) -> float:
        """Normalized latency (see `hostspeed`)."""
        return self.latency_s * self.scale


@dataclass
class Outcome:
    """Everything a workload run measured.

    When serving, rates divide the work of the ops completed
    ``in_window`` by ``window_s``, the normalized length of the serving
    window (``measured_window_s`` on the host clock).  An in-process run
    (``rounds``) repeats each job and is measured by `job_medians`.
    """

    ops: list[Op]
    window_s: float
    #: Measured set-up seconds and the scale of each (see `hostspeed`).
    setup_samples: list[tuple[float, float]]
    peak_rss_mb: float
    sim_cycles: int
    measured_window_s: float = 0.0
    rounds: bool = False
    layer: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def derive(seed: int, *parts: int) -> int:
    """A 32-bit seed for one generated input, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def reference_digest(keys) -> str:
    """The ``content_digest`` format, computed here so a fault in the
    program's own digest cannot hide a wrong output."""
    return hashlib.sha256(
        np.asarray(keys, dtype=np.uint64).tobytes()).hexdigest()[:16]


def sorted_digest(workload: str, records: int, seed: int) -> str:
    """Digest of ``np.sort`` over the input the program generates."""
    from repro.records.workloads import WorkloadSpec, generate

    data = generate(WorkloadSpec(kind=workload, n_records=records, seed=seed))
    return reference_digest(np.sort(data, kind="stable"))


def frequency_hz() -> float:
    from repro.core.parameters import MergerArchParams

    return MergerArchParams().frequency_hz


def payload_cycles(payload: dict) -> int:
    """Cycles behind a sort payload's ``seconds`` (modeled in model mode)."""
    return round(payload["seconds"] * frequency_hz())


def setup_samples(root: str, count: int, speed: hostspeed.HostSpeed
                  ) -> list[tuple[float, float]]:
    """Seconds of ``count`` set-ups, each in a fresh interpreter, with
    the scale of the reference timed around each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    before = speed.sample()
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True)
        after = speed.sample()
        samples.append((float(done.stdout.strip().splitlines()[-1]),
                        hostspeed.scale(before, after)))
        before = after
    return samples


def timed_rounds(seconds: float, tracer, run_op, speed,
                 settle=None) -> list[Op]:
    """Run ``run_op(job)`` for each of the ``JOBS`` jobs, round after
    round, until ``seconds`` pass; the round in progress is finished.

    The reference (``speed``) is timed before the first op and after
    every op.  ``settle(op)``, when given, runs untimed after each op.
    """
    before = speed.sample()
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for job in range(JOBS):
            tracer.op = len(ops)
            begin = time.perf_counter()
            with tracer.span("bench.op", op=len(ops)):
                op = run_op(job)
            op.latency_s = time.perf_counter() - begin
            after = speed.sample()
            op.scale, before = hostspeed.scale(before, after), after
            op.job = job
            ops.append(op)
            if settle is not None:
                settle(op)
    return ops


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _failure(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


# ----------------------------------------------------------------------
# sort_model and sim_compute: serial SortSession jobs


def _naive(fn, *args):
    """Run ``fn`` with the sorter's simulator forced to the naive engine."""
    import repro.engine.sorter as sorter

    fast = sorter.simulate_merge
    sorter.simulate_merge = functools.partial(fast, engine="naive")
    try:
        return fn(*args)
    finally:
        sorter.simulate_merge = fast


def session_jobs(name: str, root: str, seed: int, seconds: float,
                 sizes: Sizes, traced: bool) -> Outcome:
    """``sort_model`` (model mode) or ``sim_compute`` (simulate mode)."""
    speed = hostspeed.HostSpeed()
    samples = setup_samples(root, sizes.setup_samples, speed)
    from repro.serve.session import SortJob, SortSession

    session = SortSession()
    if name == "sort_model":
        records, mode, rotation = sizes.sort_keys, "model", ROTATION
    else:
        records, mode, rotation = sizes.sim_compute_keys, "simulate", ("uniform",)

    def job(index: int) -> SortJob:
        return SortJob(records=records, workload=rotation[index % len(rotation)],
                       seed=derive(seed, index), p=P, leaves=LEAVES, mode=mode,
                       platform=PLATFORM)

    # Lazy imports and the platform preset load before timing starts.
    session.run(replace(job(0), records=4096, seed=derive(seed, 1 << 30)))
    naive = _naive(session.run, job(0)) if mode == "simulate" else None

    payloads: list[dict | None] = []

    def run_op(index: int) -> Op:
        try:
            payload, error = session.run(job(index)), None
        except Exception as failure:
            payload, error = None, _failure(failure)
        payloads.append(payload)
        return Op("sort", 0.0, records if payload else 0,
                  payload_cycles(payload) if payload else 0, error=error,
                  group=index % len(rotation))

    tracer = layers.Tracer() if traced else layers.NullTracer()
    undo = layers.install(tracer) if traced else []
    try:
        ops = timed_rounds(seconds, tracer, run_op, speed)
    finally:
        layers.uninstall(undo)

    expected = [sorted_digest(job(index).workload, records, job(index).seed)
                for index in range(JOBS)]
    for index, (op, payload) in enumerate(zip(ops, payloads)):
        if payload is None:
            continue
        if payload["records"] != records:
            op.error = f"{payload['records']} records out, {records} in"
        elif payload["digest"] != expected[op.job]:
            op.error = f"op {index}: digest differs from np.sort"
    if naive is not None and ops[0].error is None:
        if ops[0].cycles != payload_cycles(naive):
            ops[0].error = (f"op 0: {ops[0].cycles} cycles, naive engine "
                            f"{payload_cycles(naive)}")
    return _outcome(ops, samples, tracer, traced, speed)


def _outcome(ops: list[Op], samples: list, tracer, traced: bool,
             speed: hostspeed.HostSpeed) -> Outcome:
    outcome = Outcome(ops, sum(op.host_s for op in ops), samples,
                      peak_rss_mb(), ops[0].cycles,
                      measured_window_s=sum(op.latency_s for op in ops),
                      rounds=True)
    outcome.notes["reference_ms"] = 1e3 * statistics.median(speed.samples)
    outcome.notes["reference_samples_ms"] = [1e3 * x for x in speed.samples]
    if traced:
        outcome.spans = tracer.spans
        reference = [s for op, s in tracer.stage_stats if op == 0]
        outcome.layer = layers.layer_metrics(tracer.spans, len(ops), reference)
    return outcome


# ----------------------------------------------------------------------
# sim_storage: a simulate_merge stage loop starved for read bandwidth


def storage_loop(keys: np.ndarray, write_budget: float,
                 engine: str = "fast") -> tuple[list[int], list]:
    """Merge presorted 16-key runs of ``keys`` down to one run."""
    from repro.hw import tree

    runs = np.sort(keys.reshape(-1, PRESORT), axis=1).tolist()
    all_stats = []
    while len(runs) > 1:
        runs, stats = tree.simulate_merge(
            p=STORAGE_P, leaves=STORAGE_LEAVES, runs=runs,
            record_bytes=RECORD_BYTES,
            read_bytes_per_cycle=STORAGE_READ_SHARE * STORAGE_P * RECORD_BYTES,
            write_bytes_per_cycle=write_budget,
            batch_bytes=STORAGE_BATCH, engine=engine)
        all_stats.append(stats)
    return runs[0], all_stats


def storage_keys(seed: int, index: int, count: int) -> np.ndarray:
    """Uniform nonzero u32 keys (zero is the hardware's flush marker)."""
    rng = np.random.default_rng(derive(seed, index))
    return rng.integers(1, 2**32 - 1, size=count, dtype=np.uint32,
                        endpoint=True)


def sim_storage(root: str, seed: int, seconds: float, sizes: Sizes,
                traced: bool) -> Outcome:
    speed = hostspeed.HostSpeed()
    samples = setup_samples(root, sizes.setup_samples, speed)
    from repro.serve.session import SortSession

    hardware = SortSession().platform(PLATFORM).hardware
    write_budget = hardware.beta_dram / frequency_hz()
    count = sizes.sim_storage_keys
    storage_loop(storage_keys(seed, 1 << 30, 4 * PRESORT), write_budget)
    naive_out, naive_stats = storage_loop(
        storage_keys(seed, 0, count), write_budget, engine="naive")
    naive_cycles = sum(s.cycles for s in naive_stats)

    # Only each output's digest is kept, so the benchmark's own memory
    # does not grow with the number of ops the window holds.
    digests: list[str | None] = []
    last: list = []

    def run_op(index: int) -> Op:
        try:
            out, stats = storage_loop(storage_keys(seed, index, count),
                                      write_budget)
            cycles, error = sum(s.cycles for s in stats), None
        except Exception as failure:
            out, cycles, error = None, 0, _failure(failure)
        last[:] = [out]
        return Op("stage_loop", 0.0, count, cycles, error=error)

    def settle(op: Op) -> None:
        out = last.pop()
        digests.append(None if out is None else reference_digest(out))

    tracer = layers.Tracer() if traced else layers.NullTracer()
    undo = layers.install(tracer) if traced else []
    try:
        ops = timed_rounds(seconds, tracer, run_op, speed, settle)
    finally:
        layers.uninstall(undo)

    expected = [reference_digest(np.sort(storage_keys(seed, index, count)))
                for index in range(JOBS)]
    for index, (op, digest) in enumerate(zip(ops, digests)):
        if digest is not None and digest != expected[op.job]:
            op.error = f"op {index}: output differs from np.sort"
    if ops[0].error is None and (ops[0].cycles != naive_cycles
                                 or digests[0] != reference_digest(naive_out)):
        ops[0].error = (f"op 0: {ops[0].cycles} cycles, naive engine "
                        f"{naive_cycles}")
    return _outcome(ops, samples, tracer, traced, speed)


# ----------------------------------------------------------------------
# End-to-end metrics, the same definitions for every workload


def percentile(ops: list[Op], share: float, measured: bool = False) -> float:
    """Normalized (or ``measured``) latency percentile (``share`` in 0..1)
    of each group's ops, averaged over the groups; 0 if there are no ops.

    Each ``serve_mixed`` episode may settle into either of the daemon's
    batching cycles, whose latencies differ by about 2x, and the three
    ``sort_model`` distributions cost different amounts; a percentile of
    the pooled latencies jumps between such levels as the mix shifts,
    where this mean moves in proportion to it.
    """
    groups: dict[int, list[float]] = {}
    for op in ops:
        groups.setdefault(op.group, []).append(
            op.latency_s if measured else op.host_s)
    return statistics.fmean(float(np.quantile(latencies, share))
                            for latencies in groups.values()) if ops else 0.0


def job_medians(ops: list[Op], measured: bool = False) -> list[Op]:
    """One op per job of an in-process run, standing for its correct
    rounds: their median normalized (or ``measured``) latency.

    Within a run the normalized time of one op still wanders with the
    host (the reference is timed only between ops); the median over a
    job's rounds does not, so rates and percentiles are taken over jobs.
    """
    rounds: dict[int, list[Op]] = {}
    for op in ops:
        if op.error is None:
            rounds.setdefault(op.job, []).append(op)
    return [replace(same[0], scale=1.0, latency_s=statistics.median(
                op.latency_s if measured else op.host_s for op in same))
            for same in rounds.values()]


def end_to_end(outcome: Outcome, measured: bool = False) -> dict[str, float]:
    """The ten end-to-end metrics of one run; host times are normalized
    (see `hostspeed`) unless ``measured`` asks for the host clock's.

    An op is one job, stage loop or served request.  ``sort_*`` metrics
    cover the ops that sorted keys (cache-miss sorts when serving);
    ``serve_*`` metrics cover every op, so in-process workloads report
    their job latencies there too.  ``sim_cycles`` is the reference op's
    cycle count -- simulated, or the performance model's in model mode.
    Rates and latencies count only ops that completed and checked
    correct; failed ops show in ``success_rate``.
    """
    ops = outcome.ops
    good = [op for op in ops if op.error is None]
    success = len(good) / len(ops)
    if outcome.rounds:
        good = done = job_medians(good, measured)
        window = sum(op.latency_s for op in good) or float("inf")
    else:
        done = [op for op in good if op.in_window]
        window = outcome.measured_window_s if measured else outcome.window_s
    return {
        "setup_s": statistics.median(
            seconds * (1.0 if measured else scale)
            for seconds, scale in outcome.setup_samples),
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_rate": success,
        "sort_records_per_s": sum(op.keys for op in done) / window,
        "sort_p50_s": percentile([op for op in good if op.keys], 0.5, measured),
        "sim_cycles_per_s": sum(op.cycles for op in done) / window,
        "sim_cycles": outcome.sim_cycles,
        "serve_ops_per_s": len(done) / window,
        "serve_p50_ms": 1e3 * percentile(good, 0.5, measured),
        "serve_p90_ms": 1e3 * percentile(good, 0.9, measured),
    }
