"""What each benchmark metric means, beyond the name, unit and direction.

``BENCHMARK.json`` at the repository root fixes every metric's name,
unit, direction and (for end-to-end metrics) regression bound; its
schema has no room for anything else.  This module records the rest:
the layer each workload loads, each metric's time domain, and which
end-to-end metric (on which workload) each per-layer metric should
move.  ``perfbench/tests`` checks that the two files name the same
metrics.

Time domains:

* ``host`` -- measured on the host clock (or host memory); end-to-end
  host times are normalized for the host's speed at the moment (see
  ``hostspeed``), per-layer ones are as measured;
* ``simulated`` -- counted in simulated (or, in model mode, modeled)
  FPGA cycles.  These are deterministic per seed and must stay
  bit-identical under a change that only makes the simulator faster;
* ``count`` -- a dimensionless count or ratio.

Host time and simulated cycles are never divided into each other,
except in the two metrics whose whole point is simulator speed
(``sim_cycles_per_s`` and its inverse ``hw.host_us_per_cycle``).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The layer (repro package) each workload loads, and the ones it bypasses.
WORKLOAD_LAYERS = {
    "sort_model": {"loads": ["records", "engine", "serve.session"],
                   "bypasses": ["hw", "parallel", "serve daemon", "core"]},
    "sim_compute": {"loads": ["hw", "records", "engine", "serve.session"],
                    "bypasses": ["parallel", "serve daemon", "core"]},
    "sim_storage": {"loads": ["hw"],
                    "bypasses": ["records", "engine", "parallel",
                                 "serve daemon", "core"]},
    "serve_mixed": {"loads": ["serve", "core", "parallel", "records",
                              "engine", "serve.session"],
                    "bypasses": ["hw"]},
}

#: Time domain of every metric (see the module docstring).
DOMAIN = {
    "setup_s": "host",
    "peak_rss_mb": "host",
    "success_rate": "count",
    "sort_records_per_s": "host",
    "sort_p50_s": "host",
    "sim_cycles_per_s": "host",
    "sim_cycles": "simulated",
    "serve_ops_per_s": "host",
    "serve_p50_ms": "host",
    "serve_p90_ms": "host",
    "hw.host_us_per_cycle": "host",
    "hw.stages": "count",
    "engine.stages": "count",
    "hw.merger_utilization": "simulated",
    "hw.loader_batches": "simulated",
    "hw.records_per_cycle": "simulated",
    "parallel.pool_maps": "count",
    "parallel.serial_maps": "count",
    "parallel.tasks_per_pool": "count",
    "serve.executor_busy_ratio": "host",
    "serve.cache_hit_ratio": "count",
    "serve.rejected": "count",
    "trace.coverage": "host",
}

_RECORDS_ENGINE = [("sort_records_per_s", "sort_model"),
                   ("serve_p50_ms", "serve_mixed")]
_SIM_SPEED = [("sim_cycles_per_s", "sim_compute"),
              ("sim_cycles_per_s", "sim_storage")]
_SIM_CYCLES = [("sim_cycles", "sim_compute"), ("sim_cycles", "sim_storage")]
_PARALLEL = [("serve_p50_ms", "serve_mixed"), ("serve_p90_ms", "serve_mixed"),
             ("serve_ops_per_s", "serve_mixed")]
_SERVE = [("serve_ops_per_s", "serve_mixed"), ("serve_p90_ms", "serve_mixed")]

#: Per-layer metric prefix -> the (end-to-end metric, workload) pairs it
#: should move.  Layers a workload bypasses read zero there; the hw
#: simulated counts must not move at all under a simulator-speed change.
#: ``trace.coverage`` describes the tracer itself and moves nothing.
MOVES = {
    "records.": _RECORDS_ENGINE,
    "engine.": _RECORDS_ENGINE,
    "hw.simulate_merge_s": _SIM_SPEED,
    "hw.host_us_per_cycle": _SIM_SPEED,
    "hw.stages": _SIM_SPEED,
    "hw.": _SIM_CYCLES,
    "parallel.": _PARALLEL,
    "session.": _SERVE,
    "core.": _SERVE,
    "serve.": _SERVE,
    "trace.": [],
}

#: Widths of the merger levels the two simulated trees have:
#: AMT(8,16) has k = 8, 4, 2, 1 and AMT(16,8) has k = 16, 8, 4.
MERGER_WIDTHS = (1, 2, 4, 8, 16)


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def domain(name: str) -> str:
    """Time domain of a metric: host, simulated or count."""
    if name in DOMAIN:
        return DOMAIN[name]
    if name.startswith("hw.") and name.endswith("_cycles"):
        return "simulated"
    return "host"


def moves(name: str) -> list[tuple[str, str]]:
    """The (end-to-end metric, workload) pairs a per-layer metric moves."""
    for prefix in sorted(MOVES, key=len, reverse=True):
        if name.startswith(prefix):
            return MOVES[prefix]
    raise KeyError(f"per-layer metric {name!r} has no entry in MOVES")
