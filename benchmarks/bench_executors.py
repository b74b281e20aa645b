"""Benchmark: serial vs process-pool executor on a long-query workload.

Not a paper artifact — this tracks the *real* (not simulated) speedup of the
pluggable-executor work in the bench trajectory: the (fragment × shard) map
tasks of one long query run once on the serial executor and once on the
process pool, and the MapReduce-phase wall-clocks are recorded side by side.

Shape criteria: both backends report byte-identical alignments (the 100%-
accuracy claim is executor-independent), and on a multi-core runner the
process pool beats serial by > 1.5× on the map-dominated phase. On a
single-core runner the speedup is recorded but not asserted — there is
nothing to parallelize onto.
"""

import os

import numpy as np

from benchmarks.conftest import run_once
from repro.blast.hsp import Alignment
from repro.core.orion import OrionSearch
from repro.core.sortmr import parallel_sort_alignments
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)
from repro.util.timers import Stopwatch

#: Below this many cores the >1.5× assertion is meaningless.
MIN_CORES_FOR_SPEEDUP_ASSERT = 2


def _workload():
    """One long query over a mid-sized database: enough (fragment × shard)
    units, each heavy enough to dwarf process dispatch overhead."""
    db = make_database(seed=331, num_sequences=16, mean_length=10_000)
    query, _ = make_query_with_homologies(
        seed=332,
        length=250_000,
        database=db,
        homologies=[HomologySpec(length=900)] * 6,
    )
    return db, query


def _search(db, executor):
    return OrionSearch(
        database=db,
        num_shards=8,
        fragment_length=15_000,
        executor=executor,
    )


def _alignment_keys(alignments):
    return [
        (a.subject_id, a.strand, a.q_start, a.q_end, a.s_start, a.s_end, a.score)
        for a in alignments
    ]


def test_process_executor_speedup(benchmark):
    db, query = _workload()

    def experiment():
        serial = _search(db, "serial").run(query)
        procs = _search(db, "processes").run(query)
        threads = _search(db, "threads").run(query)
        assert _alignment_keys(procs.alignments) == _alignment_keys(serial.alignments)
        assert _alignment_keys(threads.alignments) == _alignment_keys(serial.alignments)
        return {
            "cores": os.cpu_count() or 1,
            "map_tasks": serial.num_work_units,
            "alignments": len(serial.alignments),
            "serial_mr_wall_s": serial.mapreduce_wall_seconds,
            "threads_mr_wall_s": threads.mapreduce_wall_seconds,
            "process_mr_wall_s": procs.mapreduce_wall_seconds,
            "process_speedup": serial.mapreduce_wall_seconds
            / max(procs.mapreduce_wall_seconds, 1e-9),
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\nexecutors on {out['cores']} core(s), {out['map_tasks']} map tasks: "
        f"serial {out['serial_mr_wall_s']:.2f}s, "
        f"threads {out['threads_mr_wall_s']:.2f}s, "
        f"processes {out['process_mr_wall_s']:.2f}s "
        f"(speedup {out['process_speedup']:.2f}x)"
    )
    assert out["map_tasks"] >= 64, "workload too small to mean anything"
    if out["cores"] >= MIN_CORES_FOR_SPEEDUP_ASSERT:
        assert out["process_speedup"] > 1.5, (
            f"process pool gave {out['process_speedup']:.2f}x on "
            f"{out['cores']} cores; expected > 1.5x"
        )


def _synthetic_alignments(n, seed=77):
    rng = np.random.default_rng(seed)
    return [
        Alignment(
            query_id="q", subject_id=f"s{i % 64:03d}",
            q_start=int(rng.integers(0, 10_000)), q_end=int(rng.integers(10_000, 20_000)),
            s_start=0, s_end=10_000,
            score=int(rng.integers(20, 5000)),
            evalue=float(rng.uniform(1e-30, 2.0)),
            bits=float(rng.uniform(20.0, 500.0)),
        )
        for i in range(n)
    ]


def test_sort_phase_shuffle_cost_under_processes(benchmark):
    """Sort-phase trajectory entry: isolate shuffle/pickle dispatch cost.

    The sample-sort's reduce tasks do identical O(n log n) work under every
    backend; what differs is the shuffle — under processes every alignment
    is pickled out to a worker and its sorted run pickled back. Dispatch
    seconds (wall − Σ measured task seconds) isolate that data-plane cost,
    and on a realistic report-sized input they *dominate* the process sort
    wall: the phase is shuffle/pickle-bound, which is exactly why the
    paper's sort phase is worth its own trajectory entry (ROADMAP). Serial
    numbers are recorded alongside for the trajectory but not raced against
    processes — the pool also parallelizes the keying map, so the sign of
    that difference is machine noise. Both backends are warmed and each
    wall is a min-of-3 so cold-start does not pollute the record.
    """
    alignments = _synthetic_alignments(40_000)
    reference = [a.sort_key() for a in parallel_sort_alignments(alignments)[0]]

    def _measure(executor):
        best_wall, best_tasks = float("inf"), []
        for _ in range(3):
            sw = Stopwatch().start()
            out, tasks = parallel_sort_alignments(
                alignments, num_tasks=8, executor=executor
            )
            wall = sw.stop()
            assert [a.sort_key() for a in out] == reference
            if wall < best_wall:
                best_wall, best_tasks = wall, tasks
        return best_wall, best_tasks

    def experiment():
        # Warm both backends (imports, pool start) before timed reps.
        parallel_sort_alignments(alignments, num_tasks=8, executor="serial")
        parallel_sort_alignments(alignments, num_tasks=8, executor="processes")
        serial_wall, serial_tasks = _measure("serial")
        proc_wall, proc_tasks = _measure("processes")
        return {
            "alignments": len(alignments),
            "serial_sort_wall_s": serial_wall,
            "process_sort_wall_s": proc_wall,
            "serial_dispatch_s": serial_wall - sum(serial_tasks),
            "process_dispatch_s": proc_wall - sum(proc_tasks),
            "process_dispatch_frac": (proc_wall - sum(proc_tasks))
            / max(proc_wall, 1e-9),
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\nsort phase on {out['alignments']} alignments: serial "
        f"{out['serial_sort_wall_s']:.3f}s ({out['serial_dispatch_s']:.3f}s "
        f"dispatch), processes {out['process_sort_wall_s']:.3f}s "
        f"({out['process_dispatch_frac']:.0%} shuffle/pickle dispatch)"
    )
    assert out["process_dispatch_s"] > 0
    assert out["process_dispatch_frac"] > 0.5, (
        "the sort phase under processes should be shuffle/pickle-bound: "
        f"dispatch was only {out['process_dispatch_frac']:.0%} of its wall"
    )

