"""The repository benchmark: four workloads, traced per-layer runs (see run.py)."""
