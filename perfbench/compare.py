#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files written by ``run.py`` (or
directories holding one).  Run both sides with the same ``--seconds``,
alternating which side runs first; the i-th run of each side for a
workload and trace mode forms pair i.

For every end-to-end metric (untraced runs) and every per-layer metric
(traced runs) it prints one row per workload: each side's median and
quartiles, the change in the median, the pairs won, and a verdict:

- ``better`` / ``worse`` — the change wins (loses) at least 9/10 of the
  pairs, ties counting for neither, and the medians differ by more than
  the parent's interquartile range;
- ``regressed`` — an end-to-end metric whose median got worse by more
  than the metric's bound without meeting the rule above;
- ``unresolved`` — an end-to-end metric whose run-to-run spread
  (interquartile range over median, either side) exceeds its bound;
- ``same`` — none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9


def load(path: Path) -> List[dict]:
    if path.is_dir():
        path = path / "results.jsonl"
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float] = None,
) -> Tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs compared)."""
    pairs = list(zip(parent, change))
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    if bound is not None and max(spread(parent), spread(change)) > bound:
        return "unresolved", wins, len(pairs)
    separated = abs(c_med - p_med) > p3 - p1
    if pairs and wins >= WIN_SHARE * len(pairs) and separated:
        return "better", wins, len(pairs)
    if pairs and losses >= WIN_SHARE * len(pairs) and separated:
        return "worse", wins, len(pairs)
    if bound is not None and p_med and sign * (c_med - p_med) / abs(p_med) < -bound:
        return "regressed", wins, len(pairs)
    return "same", wins, len(pairs)


def series(records: List[dict], trace: int) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values, in run order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record.get("trace") != trace:
            continue
        per_metric = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return out


def compare(parent: List[dict], change: List[dict], benchmark: dict) -> List[str]:
    lines: List[str] = []
    for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
        left, right = series(parent, trace), series(change, trace)
        workloads = [w["name"] for w in benchmark["workloads"] if w["name"] in left and w["name"] in right]
        if not workloads:
            continue
        lines.append("")
        lines.append("end-to-end (untraced runs)" if trace == 0 else "per-layer (traced runs)")
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            lines.append(f"{name} [{unit}, {metric['better']} is better"
                         + (f", bound {metric['bound']:.0%}]" if "bound" in metric else "]"))
            for workload in workloads:
                p = left[workload].get(name, [])
                c = right[workload].get(name, [])
                if not p or not c:
                    continue
                word, wins, n = verdict(p, c, metric["better"], metric.get("bound"))
                p1, pm, p3 = quartiles(p)
                c1, cm, c3 = quartiles(c)
                delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
                lines.append(
                    f"  {workload:<18} parent {pm:.6g} [{p1:.4g}, {p3:.4g}] n={len(p)}"
                    f"  change {cm:.6g} [{c1:.4g}, {c3:.4g}] n={len(c)}"
                    f"  {delta}  won {wins}/{n}  {word}"
                )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in compare(load(args.parent), load(args.change), benchmark):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
