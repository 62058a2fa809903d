"""Compare two ledger result files, workload by end-to-end metric.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two same-code
sets), ``B`` the candidate.  Each file is what ``run.py --out`` wrote
and may hold several runs per workload (``--runs N``).  For every
workload x end-to-end metric this prints both medians, the relative
change with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of either side (interquartile
  range over median, from ``statistics.quantiles(values, n=4)``) is
  wider than the bound, so the comparison decides nothing.

Exits 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

CONTRACT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def load_values(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> end-to-end metric -> the values of every untraced run."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in report["runs"]:
        if run["trace"]:
            continue
        per_metric = values.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median; ``None`` below two runs."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of base."""
    change = (candidate - base) / abs(base)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, contract: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a_values = a.get(workload, {}).get(name)
            b_values = b.get(workload, {}).get(name)
            if not a_values or not b_values:
                continue
            base = statistics.median(a_values)
            candidate = statistics.median(b_values)
            spreads = [
                s for s in (spread(a_values), spread(b_values)) if s is not None
            ]
            worse_by = worsening(base, candidate, metric["better"])
            # setup_s is exempt from the spread rule (see README).
            if name != "setup_s" and any(s > metric["bound"] for s in spreads):
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": base,
                    "b": candidate,
                    "change": (candidate - base) / abs(base),
                    "spread": max(spreads) if spreads else None,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        contract = json.load(handle)
    rows = compare(load_values(argv[0]), load_values(argv[1]), contract)
    print(
        f"{'workload':<17} {'metric':<20} {'A (base)':>12} {'B':>12} "
        f"{'B vs A':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        shown = "      -" if row["spread"] is None else f"{row['spread']:7.3f}"
        print(
            f"{row['workload']:<17} {row['metric']:<20} {row['a']:>12.5g} "
            f"{row['b']:>12.5g} {row['change']:>+8.3f} {shown} "
            f"{row['bound']:>6.2f}  {row['verdict']}"
        )
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
