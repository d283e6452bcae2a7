"""Process-pool execution layer for independent trees, shards and sweeps.

The paper's performance story is built on *independent* units of work —
λ_unrl trees over disjoint partitions, cluster node shards,
per-configuration optimizer evaluations, whole sorts — and this package
runs them side by side on host cores without changing a single result.
The merge groups of one stage are not such units: they stream through
one tree back to back (§IV-A), so a stage always runs in one process.

* :class:`ParallelPlan` is the one policy object (worker count,
  chunking, per-task timeout with serial fallback) and its
  :meth:`~ParallelPlan.map` the one execution entry point;
* :mod:`repro.parallel.shm` ships numpy arrays through POSIX shared
  memory instead of pickles;
* :mod:`repro.parallel.workers` holds the module-level, import-pure
  worker entries (enforced by ``bonsai check``'s ``worker-entry`` rule);
* :mod:`repro.parallel.api` reproduces the unrolled sorters' per-tree
  loops with order-stable sharded equivalents.

Determinism contract: same task list + same worker function +
order-stable reduction ⇒ bit-identical results for every ``jobs``
setting, pinned by the differential suite in ``tests/parallel``.
"""

from repro.parallel.plan import ParallelPlan, available_cpus
from repro.parallel.shm import ShmArrays

__all__ = ["ParallelPlan", "ShmArrays", "available_cpus"]
