"""Compare two result files written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Both files are ``perfbench/out/<workload>-seed<N>-trace<T>.json``.  The
comparison is refused (exit 2) unless both come from the same host
shape -- CPU count, CPU model, Python and numpy versions -- and the same
workload, run length and input sizes: a number measured on another
shape is not a baseline.  It prints every end-to-end metric of both
runs and the change, signed so that positive is worse.  Comparing an
untraced run with a traced run of the same workload and seed states the
tracing overhead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fields that must be equal for two results to be comparable.
LIKE_FOR_LIKE = ("host", "workload", "seconds", "sizes")


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def mismatches(base: dict, new: dict) -> list[str]:
    return [f"{key}: {base.get(key)!r} != {new.get(key)!r}"
            for key in LIKE_FOR_LIKE if base.get(key) != new.get(key)]


def rows(base: dict, new: dict) -> list[tuple[str, float, float, float]]:
    """``(metric, base, new, change)``; change > 0 means worse."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = []
    for metric in declared:
        name = metric["name"]
        old, now = base["end_to_end"][name], new["end_to_end"][name]
        change = (now - old) / old if old else 0.0
        out.append((name, old, now,
                    change if metric["better"] == "lower" else -change))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    problems = mismatches(base, new)
    if problems:
        print("refusing to compare unlike results:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    label = {False: "untraced", True: "traced"}
    print(f"{base['workload']}: {label[base['traced']]} seed "
          f"{base['provenance']['seed']} -> {label[new['traced']]} seed "
          f"{new['provenance']['seed']}")
    for name, old, now, worse in rows(base, new):
        print(f"{name:22s} {old:>14.6g} {now:>14.6g} {worse * 100:+8.2f}% worse")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
