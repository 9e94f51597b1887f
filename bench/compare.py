"""Compare two result files written by ``python -m bench.run --out``.

One row per (workload, end-to-end metric): old, new, the ratio with its
base, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``regressed`` — the new median is worse than the old by more than
  the bound;
* ``improved`` — better by more than the bound;
* ``unchanged`` — within the bound either way;
* ``unresolved`` — the runs cannot tell: a run of that workload
  drifted (its throughput was not stationary), or the old side's own
  runs spread wider than the bound.

Exits non-zero on any ``regressed`` row or when more operations failed
on the new side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)  # run as a script: see bench/run.py

from bench import stats  # noqa: E402

#: Runs per side needed before their quartile spread means anything.
MIN_RUNS_FOR_SPREAD = 4


def untraced_runs(results: Dict[str, Any]) -> Dict[str, List[Dict]]:
    """workload -> its untraced reports, in file order."""
    runs: Dict[str, List[Dict]] = {}
    for report in results["runs"]:
        if not report["trace"]:
            runs.setdefault(report["workload"], []).append(report)
    return runs


def failed_share(reports: List[Dict]) -> float:
    return (sum(r["failed"] for r in reports)
            / sum(r["attempted"] for r in reports))


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: float, drifted: bool) -> Tuple[float, float, str]:
    """``(old median, new median, verdict)`` for one metric."""
    old_median = statistics.median(old)
    new_median = statistics.median(new)
    worse_by = (new_median - old_median) / old_median
    if better == "higher":
        worse_by = -worse_by
    noisy = len(old) >= MIN_RUNS_FOR_SPREAD \
        and stats.quartile_spread(old) > bound
    if drifted or noisy:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    elif worse_by < -bound:
        outcome = "improved"
    else:
        outcome = "unchanged"
    return old_median, new_median, outcome


def compare(old: Dict[str, Any], new: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[Tuple], bool]:
    """All rows, and whether the comparison fails."""
    rows = []
    failed = False
    old_runs, new_runs = untraced_runs(old), untraced_runs(new)
    for workload in (w["name"] for w in spec["workloads"]):
        before, after = old_runs.get(workload), new_runs.get(workload)
        if not before or not after:
            continue
        drifted = any(flag.startswith("unresolved")
                      for report in before + after
                      for flag in report["flags"])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old_median, new_median, outcome = verdict(
                [r["metrics"][name] for r in before],
                [r["metrics"][name] for r in after],
                metric["better"], metric["bound"], drifted)
            rows.append((workload, name, old_median, new_median,
                         new_median / old_median, metric["bound"],
                         outcome))
            failed = failed or outcome == "regressed"
        if failed_share(after) > failed_share(before):
            rows.append((workload, "failed_share", failed_share(before),
                         failed_share(after), float("nan"), 0.0,
                         "regressed"))
            failed = True
    return rows, failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, failed = compare(json.loads(Path(args.old).read_text()),
                           json.loads(Path(args.new).read_text()), spec)
    print(f"{'workload':<16}{'metric':<22}{'old':>12}{'new':>12}"
          f"{'new/old':>9}{'bound':>7}  verdict")
    for workload, name, old, new, ratio, bound, outcome in rows:
        print(f"{workload:<16}{name:<22}{old:>12.4f}{new:>12.4f}"
              f"{ratio:>9.3f}{bound:>7.2f}  {outcome}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
