"""Compare two ``results.json`` files metric by metric.

    python -m benchmarks.e2e.compare A.json B.json

A is the base (the parent commit), B the change.  One row per (workload,
metric): both medians, B as a ratio of A, and a verdict from the metric's
own bound in ``BENCHMARK.json``.  When the spread between repeat runs of
either side (interquartile range over median) is wider than the bound, or a
side has a single run, the row reads *unresolved*, not *unchanged*: the
runs cannot tell a regression of that size from noise.  Per-layer metrics
have no bound and get no verdict.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _values(results: dict[str, Any]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in results["runs"]:
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def _spread(values: list[float]) -> float | None:
    """Interquartile range over the median; None when it cannot be known."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(median)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    spreads = (_spread(base), _spread(change))
    if any(spread is None or spread > bound for spread in spreads):
        return "unresolved"
    a, b = statistics.median(base), statistics.median(change)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if worse > bound:
        return "REGRESSED"
    return "improved" if worse < -bound else "unchanged"


def compare(base: dict[str, Any], change: dict[str, Any], spec: dict[str, Any]) -> tuple[list[str], bool]:
    if base["seconds"] != change["seconds"]:
        raise SystemExit(
            f"refusing to compare: runs measured {base['seconds']} s against "
            f"{change['seconds']} s"
        )
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    known = {m["name"]: m for m in spec["per_layer"]} | bounded
    a_values, b_values = _values(base), _values(change)
    lines = [
        f"{'workload':<17} {'metric':<42} {'base':>12} {'change':>12} {'ratio':>16}  "
        f"{'spread a/b':>13}  verdict"
    ]
    regressed = False
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, name = key
        if name not in known:
            continue
        a, b = a_values[key], b_values[key]
        a_median, b_median = statistics.median(a), statistics.median(b)
        ratio = f"{b_median / a_median:.3f}x of {a_median:.4g}" if a_median else "-"
        spreads = "/".join(
            "?" if s is None else f"{s * 100:.1f}%" for s in (_spread(a), _spread(b))
        )
        outcome = ""
        if name in bounded:
            outcome = verdict(a, b, bounded[name]["better"], bounded[name]["bound"])
            regressed |= outcome == "REGRESSED"
        lines.append(
            f"{workload:<17} {name:<42} {a_median:>12.5g} {b_median:>12.5g} {ratio:>16}  "
            f"{spreads:>13}  {outcome}"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    lines, regressed = compare(
        json.loads(args.base.read_text(encoding="utf-8")),
        json.loads(args.change.read_text(encoding="utf-8")),
        json.loads(SPEC_PATH.read_text(encoding="utf-8")),
    )
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
