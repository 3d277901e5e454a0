"""End-to-end benchmark suite: four paper/fabric workloads, timed in fresh
interpreters, with per-layer attribution from an instrumented pass.

Run ``PYTHONPATH=src python -m benchmarks.suite run`` from the repository
root; see ``benchmarks/suite/README.md``.  This package must stay cheap to
import: its import time is part of every run's measured set-up.
"""
