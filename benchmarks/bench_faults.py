"""Benchmark: recovery cost of a worker crash, per-task retry vs serial rerun.

Not a paper artifact — this quantifies the fault-tolerance trajectory's
core claim (PAPER.md / DESIGN.md §4.6): because work units are small,
recovering from a fault by re-executing *one task* is far cheaper than the
pre-fault-tolerance behaviour of rerunning the whole job serially.

The workload is a map-heavy job (8 sleeping map tasks on 4 workers — two
waves) with a crash injected into the first task of the second wave, i.e.
at ~50% map completion. It runs twice:

* **retry** — the default :class:`RetryPolicy`: the scheduler respawns the
  broken pool and re-dispatches only the uncommitted tasks; the first
  wave's committed results are kept.
* **rerun** — ``RetryPolicy(max_attempts=1)``: the crash immediately
  exhausts the budget and the whole job reruns on the serial executor,
  paying every map task again.

Shape criteria: both paths produce the serial job's exact output, and the
retry path's wall-clock is well below the whole-job rerun's.
"""

import time
import warnings

from benchmarks.conftest import run_once
from repro.mapreduce import faults as faults_mod
from repro.mapreduce.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, WorkerPool
from repro.mapreduce.types import InputSplit
from repro.util.timers import Stopwatch

#: Per-map-task work, big enough to dwarf pool dispatch and respawn noise.
_MAP_SLEEP = 0.2
_NUM_SPLITS = 8
_WORKERS = 4


def _sleepy_mapper(split):
    time.sleep(_MAP_SLEEP)
    for x in split.payload:
        yield x % 5, x


def _sum_reducer(key, values):
    return sum(values)


def _job():
    return MapReduceJob(
        mapper=_sleepy_mapper, reducer=_sum_reducer, name="faultjob"
    )


def _splits():
    return [
        InputSplit(index=i, payload=list(range(i * 10, (i + 1) * 10)))
        for i in range(_NUM_SPLITS)
    ]


def _crash_at_half():
    # Task _WORKERS is the first task of wave 2: when it dispatches, the
    # first wave (50% of the maps) has already committed.
    return FaultInjector(
        specs=(FaultSpec(phase="map", kind="crash", index=_WORKERS, attempt=1),)
    )


def test_crash_recovery_cost(benchmark, monkeypatch):
    expected = SerialExecutor().run(_job(), _splits()).outputs
    # Backoff is computed in the driver, so patching the module constant
    # shrinks every retry's wait for this run.
    monkeypatch.setattr(faults_mod, "BACKOFF_BASE", 0.001)
    policy = RetryPolicy()

    def experiment():
        # Each run pays its own pool startup, as a one-shot job would.
        with Stopwatch() as retry_watch:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a serial fallback fails the run
                with WorkerPool(
                    max_workers=_WORKERS, retry=policy, injector=_crash_at_half()
                ) as pool:
                    retried = pool.run(_job(), _splits())

        with Stopwatch() as rerun_watch:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # expected fallback
                with WorkerPool(
                    max_workers=_WORKERS,
                    retry=RetryPolicy(max_attempts=1),
                    injector=_crash_at_half(),
                ) as pool:
                    rerun = pool.run(_job(), _splits())

        assert retried.outputs == expected
        assert rerun.outputs == expected
        assert all(r.executor == "processes" for r in retried.records)
        assert all(r.executor == "serial" for r in rerun.records)
        retried_tasks = [r for r in retried.records if r.attempts > 1]
        return {
            "map_tasks": _NUM_SPLITS,
            "workers": _WORKERS,
            "map_task_seconds": _MAP_SLEEP,
            "retry_wall_s": retry_watch.elapsed,
            "rerun_wall_s": rerun_watch.elapsed,
            "rerun_over_retry": rerun_watch.elapsed
            / max(retry_watch.elapsed, 1e-9),
            "tasks_retried": len(retried_tasks),
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\ncrash at 50% of {out['map_tasks']} maps on {out['workers']} workers: "
        f"per-task retry {out['retry_wall_s']:.2f}s, "
        f"whole-job serial rerun {out['rerun_wall_s']:.2f}s "
        f"({out['rerun_over_retry']:.2f}x)"
    )
    # The crash costs the second wave a redo at worst; the rerun pays the
    # broken parallel attempt plus every map task again, serially.
    assert out["tasks_retried"] >= 1
    assert out["rerun_over_retry"] > 1.2, (
        f"whole-job rerun was only {out['rerun_over_retry']:.2f}x the "
        f"single-task retry; recovery is supposed to be cheap"
    )
