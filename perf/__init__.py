"""The repo benchmark: four workloads, both substrates (see perf/README.md).

Everything here measures ``repro`` from outside, through its public entry
points.  A change that claims a performance gain may not edit this
directory or ``BENCHMARK.json``.
"""
