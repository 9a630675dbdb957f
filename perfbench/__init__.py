"""End-to-end and per-layer benchmark of the repro package.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; ``perfbench/compare.py``
compares two sets of the records it appends. See ``perfbench/README.md``.
"""
