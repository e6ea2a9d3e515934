"""The repository benchmark: seeded serving and compile workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root (see :mod:`perfbench.run`).
The workloads are in :mod:`perfbench.workloads`, the per-layer span
tracing in :mod:`perfbench.layers` and the pure statistics in
:mod:`perfbench.harness`.
"""
