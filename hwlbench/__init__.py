"""End-to-end and per-layer benchmark of the ``hwl`` toolkit.

Run ``python3 hwlbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``hwlbench/README.md`` for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""
