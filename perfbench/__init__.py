"""Benchmark harness for avbeam: workloads, references and span tracing.

Run it with ``python3 perfbench/run.py --workload NAME``; see README.md.
"""
