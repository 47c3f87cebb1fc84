"""The repository's benchmark: four workloads, end to end and per layer.

Run one workload with ``python3 perfbench/run.py``; record and compare
sets of runs with ``python3 perfbench/suite.py``.  See README.md.
"""
