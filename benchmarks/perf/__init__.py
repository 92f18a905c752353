"""The repository benchmark: four workloads timed end to end and per layer.

See README.md in this directory and ``BENCHMARK.json`` at the root.
"""
