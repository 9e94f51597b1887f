"""The repository's benchmark: front-door workloads, end-to-end metrics
with regression bounds, and a per-layer request budget.

See ``bench/README.md``.  Everything here measures the platform from
outside; nothing under ``src/`` knows this package exists.
"""
