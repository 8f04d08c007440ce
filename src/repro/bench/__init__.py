"""The benchmark: end-to-end and per-layer records for the modeled chip
and for the Python system that models it.

``python -m repro.bench run|compare|selftest``; ``src/repro/bench/run.py``
runs one workload for an external runner.  See README.md in this
directory for the metrics, the workloads and how to read a comparison.
Importing this package imports nothing else.
"""
