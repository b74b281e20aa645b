"""``python -m benchmarks.ledger run|compare`` — the whole ledger in one command.

``run`` measures every workload (each run in its own subprocess, through
:func:`benchmarks.ledger.run.measure`): the gated end-to-end run
``--repeats`` times on seeds ``seed, seed+1, ...`` and one traced run on
``seed``; prints every metric by name with its unit and writes
``out/BENCH_<label>.json``. ``compare`` judges two such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger.compare import compare
from benchmarks.ledger.run import OUT_DIR, check_names, declaration, measure, print_metrics

#: ``--quick``: the timed phase ends after the oracle queries (10 per workload).
QUICK_SECONDS = 1.0


def run_workload(
    name: str, seed: int, seconds: float, repeats: int
) -> Dict[str, Any]:
    gated: List[Dict[str, Any]] = []
    for r in range(repeats):
        report = measure(name, seed + r, seconds, 0)
        check_names(report, 0)
        print_metrics(name, report)
        gated.append(report)
    traced = measure(name, seed, seconds, 1)
    check_names(traced, 1)
    print_metrics(name, traced)
    reports = gated + [traced]
    end_to_end = {
        key: {
            "unit": gated[0]["metrics"][key]["unit"],
            "median": statistics.median(g["metrics"][key]["value"] for g in gated),
            "runs": [g["metrics"][key]["value"] for g in gated],
        }
        for key in gated[0]["metrics"]
    }
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "info": {"gated": [g["info"] for g in gated], "traced": traced["info"]},
    }


def run(args: argparse.Namespace) -> int:
    spec = declaration()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; expected one of {names}")
        names = [args.workload]
    seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    workloads = {
        name: run_workload(name, args.seed, seconds, args.repeats) for name in names
    }
    machines = [
        info["machine"]
        for w in workloads.values()
        for info in w["info"]["gated"] + [w["info"]["traced"]]
        if "machine" in info
    ]
    ledger = {
        "label": args.label,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": seconds,
        "machine": machines[0] if machines else {},
        "noisy": any(m["noisy"] for m in machines),
        "workloads": workloads,
    }
    path = OUT_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    failed = sum(w["failed"] for w in workloads.values())
    print(f"wrote {path}; failed operations: {failed}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure every workload, write BENCH_<label>.json")
    p_run.add_argument("--seed", type=int, default=2014)
    p_run.add_argument("--workload", help="only this workload")
    p_run.add_argument("--quick", action="store_true",
                       help="10 timed queries per workload; bounds not evaluated")
    p_run.add_argument("--label", default="local")
    p_run.add_argument("--repeats", type=int, default=1,
                       help="gated runs per workload (their spread feeds compare)")
    p_cmp = sub.add_parser("compare", help="judge ledger B against ledger A")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text()), declaration()
    )


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
