"""Hybrid radix sort (HRS) — the GPU baseline (Stehle & Jacobsen, 2017).

HRS radix-sorts GPU-memory-sized chunks on the device, then merges the
sorted chunks on the CPU.  The paper's critique (§I, §VII-B): "this
CPU-side merging dominates the computation time for large enough
arrays".  The functional model reproduces exactly that structure —
chunked LSD radix sorts followed by a k-way CPU merge — and the cost
model exposes the chunk-count-dependent merge term that makes HRS lose
its edge past GPU memory capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import BaselineSorter
from repro.baselines.published import PUBLISHED_SORTERS, PublishedSorter
from repro.engine.stage import merge_runs
from repro.errors import ConfigurationError
from repro.units import GB

RADIX_BITS = 8


def lsd_radix_sort(data: np.ndarray) -> np.ndarray:
    """Vectorised LSD radix sort (stable), byte digits."""
    out = np.asarray(data).copy()
    if not np.issubdtype(out.dtype, np.unsignedinteger):
        raise ConfigurationError(f"radix sort expects unsigned keys, got {out.dtype}")
    if out.size <= 1:
        return out
    for byte_index in range(out.dtype.itemsize):
        shift = byte_index * RADIX_BITS
        digits = (out >> np.uint64(shift)).astype(np.uint64) & np.uint64(0xFF)
        order = np.argsort(digits, kind="stable")
        out = out[order]
    return out


@dataclass
class HybridRadixSorter(BaselineSorter):
    """GPU-chunked radix sort with CPU-side k-way merge.

    Parameters
    ----------
    gpu_memory_bytes:
        Device memory available for chunks (HRS's published platform had
        8 GB; usable chunk ~2 GB after double buffering).
    scale_chunk_records:
        Chunk size used by the laptop-scale functional path, standing in
        for the GPU-memory chunk exactly as the SSD sorter scales runs.
    """

    spec: PublishedSorter = field(default_factory=lambda: PUBLISHED_SORTERS["hrs"])
    gpu_memory_bytes: int = 8 * GB
    chunk_fraction: float = 0.25
    scale_chunk_records: int = 65_536

    def sort(self, data: np.ndarray) -> np.ndarray:
        """Radix-sort GPU-sized chunks, then CPU-merge them."""
        data = np.asarray(data)
        if data.size == 0:
            return data.copy()
        chunks = [
            lsd_radix_sort(data[start : start + self.scale_chunk_records])
            for start in range(0, data.size, self.scale_chunk_records)
        ]
        out = merge_runs(chunks)
        self.check_sorted(data, out)
        return out

    # ------------------------------------------------------------------
    def chunk_count(self, total_bytes: float) -> int:
        """GPU-memory chunks at true scale."""
        usable = self.gpu_memory_bytes * self.chunk_fraction
        return max(1, int(np.ceil(total_bytes / usable)))

    def cpu_merge_dominates(self, total_bytes: float) -> bool:
        """§I: past ~32 GB "GPU-based sorters spend the majority of their
        compute time on the CPU" — i.e. many chunks to merge."""
        return self.chunk_count(total_bytes) > 8
