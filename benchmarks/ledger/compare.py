"""``compare A.json B.json``: is ledger B worse than ledger A?

One row per (workload, end-to-end metric): both medians, the ratio B/A, the
bound declared in ``BENCHMARK.json`` and a verdict. ``regressed``: B's median
is worse than A's by more than the bound. ``unresolved``: the run-to-run
spread of either side is wider than the bound and the runs interleave, so
neither "regressed" nor "unchanged" can be said. A higher failed fraction is
always a regression.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterator, List, Sequence, Tuple

Row = Tuple[str, str, float, float, float, float, str]


def spread(runs: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(runs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(runs, n=4)
    median = statistics.median(runs)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / abs(base)
    b_all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not (b_all_worse or b_all_better):
        return "unresolved"
    return "regressed" if worsening > bound else "ok"


def failed_fraction(workload: Dict[str, Any]) -> float:
    return workload["failed"] / workload["attempted"]


def rows(
    a: Dict[str, Any], b: Dict[str, Any], declaration: Dict[str, Any]
) -> Iterator[Row]:
    # Two workers on one core measure the scheduler, not the program.
    starved = any(ledger.get("machine", {}).get("nproc", 2) < 2 for ledger in (a, b))
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            if key not in wa["end_to_end"] or key not in wb["end_to_end"]:
                continue
            runs_a = wa["end_to_end"][key]["runs"]
            runs_b = wb["end_to_end"][key]["runs"]
            med_a, med_b = statistics.median(runs_a), statistics.median(runs_b)
            word = verdict(runs_a, runs_b, metric["better"], metric["bound"])
            yield (name, key, med_a, med_b, med_b / med_a, metric["bound"],
                   "unresolved" if starved else word)
        fa, fb = failed_fraction(wa), failed_fraction(wb)
        yield (name, "failed_fraction", fa, fb, fb / fa if fa else 1.0 + fb, 0.0,
               "regressed" if fb > fa else "ok")


def compare(a: Dict[str, Any], b: Dict[str, Any], declaration: Dict[str, Any]) -> int:
    """Print the table; exit status 1 on any ``regressed`` row."""
    table: List[Row] = list(rows(a, b, declaration))
    print(f"{'workload':16s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name, key, med_a, med_b, ratio, bound, word in table:
        print(f"{name:16s} {key:22s} {med_a:12.6g} {med_b:12.6g} "
              f"{ratio:7.3f} {bound:6.2f}  {word}")
    if a.get("quick") or b.get("quick"):
        print("note: a --quick ledger is too short to judge bounds")
    if a.get("noisy") or b.get("noisy"):
        print("note: a ledger was taken with 1-min loadavg above nproc/2")
    return 1 if any(row[-1] == "regressed" for row in table) else 0
