"""The repository's benchmark: bootstrap, fault campaigns and 10⁶-flow traffic.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; ``BENCHMARK.json`` at
the repository root names the workloads and metrics.  See ``README.md``
in this directory for what each workload measures and why.
"""
