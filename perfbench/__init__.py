"""Benchmark of qnz: four seeded workloads, timed from outside the program and
checked against an independent reference evaluator. Run ``perfbench/run.py``."""
