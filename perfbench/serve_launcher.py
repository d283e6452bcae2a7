"""Start ``bonsai serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_JSONL serve ARGS...``

Installs :mod:`perfbench.layers` wrappers, runs ``repro.cli.main`` with
the remaining arguments, and writes the daemon's spans to
``SPANS_JSONL``, flushed when the daemon drains.  Forked pool workers
append their own spans to ``SPANS_JSONL.w<pid>.jsonl`` as they go.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.obs.sink import JsonlSink  # noqa: E402

from perfbench import layers  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sink = JsonlSink(spans_path)
    layers.install(layers.Tracer(sink, worker_prefix=spans_path))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        sink.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
