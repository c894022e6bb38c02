"""The repo benchmark: workloads, metrics, probes and comparison tools.

Everything here drives ``repro`` from outside, through its public
surface only, so that a later change to ``src/`` cannot alter the load
it is measured with.  See ``perf/README.md``.
"""
