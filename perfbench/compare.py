"""Compare two sets of run records, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``*.json`` records written by ``run.py`` (copied
out of ``.perfbench/runs/``).  For every workload and end-to-end
metric in ``BENCHMARK.json`` it prints both medians and quartile
spreads and flags a metric whose new median is worse than the base
median by more than the metric's bound.  Records from different
environments are refused: exit 2 when the fingerprints differ.
Exit 1 when any metric regressed.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> List[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") == 0:
            records.append(record)
    return records


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    base, new = load(argv[0]), load(argv[1])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + new}
    if len(prints) != 1:
        print("refusing to compare runs from different environments:",
              file=sys.stderr)
        for fingerprint in sorted(prints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2
    regressions = 0
    for workload in sorted({r["workload"] for r in base + new}):
        print(f"== {workload}")
        for entry in spec["end_to_end"]:
            name = entry["name"]
            sides: Dict[str, List[float]] = {
                label: [r["metrics"][name]["value"] for r in records
                        if r["workload"] == workload]
                for label, records in (("base", base), ("new", new))}
            if not sides["base"] or not sides["new"]:
                continue
            medians = {k: statistics.median(v) for k, v in sides.items()}
            change = medians["new"] / medians["base"] - 1.0
            worse = change if entry["better"] == "lower" else -change
            flag = "REGRESSED" if worse > entry["bound"] else ""
            regressions += bool(flag)
            print(f"  {name:<16} base {medians['base']:12.5g} "
                  f"({_spread(sides['base'])})  new "
                  f"{medians['new']:12.5g} ({_spread(sides['new'])})  "
                  f"{change:+.1%} {entry['unit']} {flag}")
    return 1 if regressions else 0


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, IQR/median {(q3 - q1) / q2:.3f}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
