"""One merge stage: the functional data path.

The engine's "model" mode only has to produce the sorted data; its
timing comes from the performance model (§IV-A), not from how the
merge is computed here.  Each group of ``leaves`` runs therefore merges
with one stable numpy sort of its concatenation, while
:func:`merge_stage` keeps the AMT's grouping so the stage and group
counts the timing model charges are unchanged.  ``simulate`` mode
delegates to the cycle-level simulator instead.

The merge is stable: within equal keys, records from lower-indexed runs
come first, matching the hardware merger's ``<=`` port preference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def merge_runs(runs: list[np.ndarray]) -> np.ndarray:
    """Merge any number of sorted runs into one (stable)."""
    if not runs:
        return np.empty(0, dtype=np.uint64)
    return np.sort(np.concatenate(runs), kind="stable")


def merge_stage(runs: list[np.ndarray], leaves: int) -> list[np.ndarray]:
    """One AMT merge stage: groups of ``leaves`` runs each become one run.

    Mirrors :func:`repro.hw.loader.make_feeds`' grouping — output run
    ``j`` merges input runs ``[j * leaves, (j + 1) * leaves)``.
    """
    if leaves < 2:
        raise ConfigurationError(f"a merge stage needs >= 2 leaves, got {leaves}")
    if not runs:
        return [np.empty(0, dtype=np.uint64)]
    merged = []
    for start in range(0, len(runs), leaves):
        merged.append(merge_runs(runs[start : start + leaves]))
    return merged


def split_into_runs(data: np.ndarray, run_length: int, presorted: bool = False) -> list[np.ndarray]:
    """Slice an array into runs of ``run_length`` records, sorting each.

    The presorter's job (§VI-C): with ``presorted=True`` the slices are
    assumed sorted already and only split.
    """
    if run_length < 1:
        raise ConfigurationError(f"run length must be >= 1, got {run_length}")
    data = np.asarray(data)
    runs = []
    for start in range(0, data.size, run_length):
        chunk = data[start : start + run_length].copy()
        if not presorted:
            chunk.sort(kind="stable")
        runs.append(chunk)
    return runs


def check_stage_invariants(
    input_runs: list[np.ndarray], output_runs: list[np.ndarray], leaves: int
) -> None:
    """Assert a stage preserved records and produced sorted runs.

    Used by tests and the self-checking examples; raises
    :class:`ConfigurationError` with a diagnostic on violation.
    """
    in_count = sum(run.size for run in input_runs)
    out_count = sum(run.size for run in output_runs)
    if in_count != out_count:
        raise ConfigurationError(
            f"stage lost records: {in_count} in, {out_count} out"
        )
    expected_groups = max(1, -(-len(input_runs) // leaves))
    if len(output_runs) != expected_groups:
        raise ConfigurationError(
            f"stage produced {len(output_runs)} runs, expected {expected_groups}"
        )
    for index, run in enumerate(output_runs):
        if run.size > 1 and not np.all(run[:-1] <= run[1:]):
            raise ConfigurationError(f"stage output run {index} is not sorted")
