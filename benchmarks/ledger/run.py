"""One workload, one run, one result line — the command ``BENCHMARK.json`` declares.

``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``

Supervises :mod:`benchmarks.ledger.worker` in a fresh subprocess with a hard
timeout (a hang is reported as a failure, never a stuck command), checks that
the run left no new shared-memory segment behind, prints every metric by
name with its unit, and ends with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: The contract allows 180 s per run; the worker is killed before that.
HARD_TIMEOUT_S = 170.0


def declaration() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def shm_entries() -> Set[str]:
    """Segments this program could have created (its prefixes only)."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(("orion", "psm_"))}


def measure(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Run one worker subprocess; return its report (``info`` included).

    Raises ``RuntimeError`` when the worker dies without a report.
    """
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    before = shm_entries()
    hung = False
    # The program keeps its plane lock files in the temp directory: give it
    # one inside the checkout, gone when the run ends.
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        env["TMPDIR"] = tmp
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger.worker",
             workload, str(seed), str(seconds), str(trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=HARD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            hung = True
        finally:
            # The worker leads its own process group: whatever it forked
            # and did not reap dies with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if hung:
                proc.communicate()
    if hung:
        report: Dict[str, Any] = {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "info": {"failure_reasons": [f"hung: killed after {HARD_TIMEOUT_S:.0f} s"]},
        }
    else:
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"worker for {workload} exited with code {proc.returncode} "
                f"and no report"
            )
        report = json.loads(lines[-1])
    leaked = sorted(shm_entries() - before)
    if leaked:
        report["correct"] = False
        report["failed"] += len(leaked)
        report["info"]["failure_reasons"].append(f"new /dev/shm entries: {leaked}")
    report["attempted"] = max(report["attempted"], report["failed"])
    return report


def check_names(report: Dict[str, Any], trace: int) -> None:
    """The emitted metric names are exactly the declared ones."""
    declared = {m["name"] for m in declaration()["per_layer" if trace else "end_to_end"]}
    emitted = set(report["metrics"])
    if report["metrics"] and emitted != declared:
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(declared - emitted)}, undeclared {sorted(emitted - declared)}"
        )


def print_metrics(workload: str, report: Dict[str, Any]) -> None:
    info = report["info"]
    if info.get("machine", {}).get("noisy"):
        print(f"warning: 1-min loadavg {info['machine']['loadavg_1min_at_start']:.2f} "
              f"exceeds nproc/2; this run is stamped noisy", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{workload:16s} {name:44s} {metric['value']:.6g} {metric['unit']}")
    for reason in info.get("failure_reasons", []):
        print(f"{workload:16s} FAILED: {reason}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workloads: List[str] = [w["name"] for w in declaration()["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads}")
    report = measure(args.workload, args.seed, args.seconds, args.trace)
    check_names(report, args.trace)
    print_metrics(args.workload, report)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
