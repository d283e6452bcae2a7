"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json``
at the repository root; ``perfbench/spec.py`` adds each metric's time
domain and the per-layer -> end-to-end map.  ``--trace 0`` measures the
end-to-end metrics with the program unmodified.  ``--trace 1`` installs
the layer wrappers of ``perfbench/layers.py``, reports the per-layer
metrics, and writes the spans to ``perfbench/out/<workload>-seed<N>.trace.jsonl``
for ``bonsai report``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with host shape and provenance, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``; compare two such
files with ``perfbench/compare.py``.  The exit code is 0 only when every
output checked correct; without the program's source at ``src/repro``
the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("sort_model", "sim_compute", "sim_storage", "serve_mixed")


def host_shape() -> dict:
    """What must match before two results may be compared."""
    import numpy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def provenance(seed: int) -> dict:
    """Which program was measured: git revision and a source digest."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            revision = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_revision": revision, "source_sha256": digest.hexdigest(),
            "seed": seed}


def measure(workload: str, seed: int, seconds: float, traced: bool, sizes):
    from perfbench import serve_load, workloads

    if workload == "serve_mixed":
        return serve_load.serve_mixed(str(ROOT), seed, seconds, sizes, traced,
                                      str(OUT))
    if workload == "sim_storage":
        return workloads.sim_storage(str(ROOT), seed, seconds, sizes, traced)
    return workloads.session_jobs(workload, str(ROOT), seed, seconds, sizes,
                                  traced)


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing "
              f"({ROOT / 'src' / 'repro'}); nothing to measure",
              file=sys.stderr)
        return 2
    # The serve daemon's socket path is relative to the root.
    os.chdir(ROOT)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.obs.sink import JsonlSink

    from perfbench import layers, spec, workloads

    OUT.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    outcome = measure(args.workload, args.seed, args.seconds, traced,
                      sizes or workloads.Sizes())
    benchmark = spec.load_benchmark()
    end_to_end = workloads.end_to_end(outcome)
    values = end_to_end
    declared = benchmark["end_to_end"]
    stem = f"{args.workload}-seed{args.seed}"
    if traced:
        trace_path = OUT / f"{stem}.trace.jsonl"
        sink = JsonlSink(trace_path)
        for record in outcome.spans:
            sink.emit(record)
        sink.close()
        values = dict(outcome.layer)
        values["trace.coverage"] = layers.coverage(outcome.spans)
        declared = benchmark["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: "
            f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    failures = [op.error for op in outcome.ops if op.error is not None]
    summary = {
        "correct": not failures,
        "attempted": len(outcome.ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": traced,
        "host": host_shape(),
        "provenance": provenance(args.seed),
        "sizes": asdict(sizes or workloads.Sizes()),
        "end_to_end": end_to_end,
        "end_to_end_measured": workloads.end_to_end(outcome, measured=True),
        "domains": {name: spec.domain(name) for name in metrics},
        "workload_layers": spec.WORKLOAD_LAYERS[args.workload],
        "notes": outcome.notes,
        "failures": failures,
        "ops": [[op.kind, op.group, op.latency_s, op.scale, op.error is None]
                for op in outcome.ops],
        **summary,
    }
    if traced:
        record["trace"] = str(trace_path.relative_to(ROOT))
        record["moves"] = {name: spec.moves(name) for name in metrics}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8")

    for error in failures[:10]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"host": record["host"],
                      "provenance": record["provenance"],
                      "notes": outcome.notes}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>18.6g} {metric['unit']:12s} "
              f"{spec.domain(name)}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
