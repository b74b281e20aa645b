"""Benchmark: shared-memory database plane vs a private database per worker.

Not a paper artifact — this is the trajectory entry for the zero-copy data
plane: on a many-worker configuration, shipping the database as one shared
segment per machine must beat handing every worker a private copy on
*both* axes the ROADMAP called out — per-worker warmup time (unpickle +
k-mer index build) and per-worker private memory.

Each probe task unpickles its payload from bytes inside the worker and
indexes every sequence, timing the whole warmup and reading ``RssAnon``
from ``/proc/self/status`` around it. The plane leg unpickles a
plane-backed search and builds every shard's k-mer cache (zero-copy
slices of the plane). The baseline leg, local to this benchmark, unpickles
the bare database and runs :func:`~repro.blast.lookup.sorted_kmers` on
every sequence — exactly the per-worker cost the plane removes. ``RssAnon``
counts only anonymous (private) pages, so shared-segment pages attach for
free while a private copy and a locally built index are charged in full.

Shape criteria: with the plane, mean cold per-worker warmup and mean
per-worker private-RSS growth both drop to less than half of the
private-copy baseline on a 4-worker, ~3 Mbp synthetic database.
"""

import os
import pickle
import time

import pytest

from benchmarks.conftest import run_once
from repro.blast.lookup import sorted_kmers
from repro.blast.params import BlastParams
from repro.core.orion import OrionSearch
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import WorkerPool
from repro.mapreduce.types import InputSplit
from repro.sequence.generator import make_database

pytestmark = pytest.mark.skipif(
    not (shm_mod.HAVE_SHARED_MEMORY and os.path.exists("/proc/self/status")),
    reason="needs POSIX shared memory and /proc RSS accounting",
)

#: Acceptance configuration: at least 4 workers over a large synthetic db.
NUM_WORKERS = 4
NUM_SHARDS = 8


def _rss_anon_kb():
    """Private (anonymous) resident memory of this process, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    return 0  # pragma: no cover - kernel without RssAnon


def _index_private_copy(payload):
    """Baseline warmup: index every sequence of a private database copy."""
    db, k = payload
    return {rec.seq_id: sorted_kmers(rec.codes, k) for rec in db}


def _index_plane_search(search):
    """Plane warmup: every shard's k-mer cache, sliced from the plane."""
    return [search._kmer_cache_for_shard(shard) for shard in search.shards]


class _WarmupProbe:
    """Map task measuring one worker's full database warmup.

    Holds the *pickled* payload so the unpickle — the per-worker database
    shipping cost being compared — happens inside the timed window, not in
    the pool's job loader. ``index`` (a module-level function) builds the
    k-mer indexes; they stay referenced until RSS is read. After
    measuring, the task naps briefly so the other pool workers get probe
    tasks too instead of one fast worker draining the queue.
    """

    def __init__(self, blob, index):
        self.blob = blob
        self.index = index

    def __call__(self, split):
        rss0 = _rss_anon_kb()
        t0 = time.perf_counter()
        indexes = self.index(pickle.loads(self.blob))
        warmup_s = time.perf_counter() - t0
        rss_delta_kb = _rss_anon_kb() - rss0
        del indexes
        time.sleep(0.05)
        yield os.getpid(), (warmup_s, rss_delta_kb)


def _collect(key, values):
    return list(values)


def _measure_probe(probe):
    pool = WorkerPool(max_workers=NUM_WORKERS)
    try:
        job = MapReduceJob(mapper=probe, reducer=_collect, name="warmup-probe")
        splits = [InputSplit(index=i, payload=None) for i in range(NUM_WORKERS * 3)]
        result = pool.run(job, splits)
    finally:
        pool.shutdown()
    per_pid = dict(result.outputs)
    # First probe in a worker pays the cold warmup; later ones may hit the
    # module-level store, so the per-worker cost is the max over its tasks.
    return {
        pid: (max(w for w, _ in obs), max(r for _, r in obs))
        for pid, obs in per_pid.items()
    }


def _measure_private_copy(db, k):
    blob = pickle.dumps((db, k), protocol=pickle.HIGHEST_PROTOCOL)
    return _measure_probe(_WarmupProbe(blob, _index_private_copy))


def _measure_plane(db):
    search = OrionSearch(
        database=db,
        num_shards=NUM_SHARDS,
        executor="processes",
        num_workers=NUM_WORKERS,
    )
    try:
        search._ensure_plane()
        assert search._shm_handle is not None, "the plane could not be leased"
        return _measure_probe(_WarmupProbe(pickle.dumps(search), _index_plane_search))
    finally:
        search.close()


def test_shared_plane_cuts_worker_warmup_and_rss(benchmark):
    db = make_database(seed=441, num_sequences=32, mean_length=100_000)
    k = BlastParams().k  # the search's default word size

    def experiment():
        private = _measure_private_copy(db, k)
        shared = _measure_plane(db)
        assert len(private) >= 2 and len(shared) >= 2, (
            "too few pool workers ran probes for a per-worker comparison"
        )

        def means(stats):
            warm = [w for w, _ in stats.values()]
            rss = [r for _, r in stats.values()]
            return sum(warm) / len(warm), sum(rss) / len(rss)

        private_warm, private_rss = means(private)
        shared_warm, shared_rss = means(shared)
        return {
            "workers": NUM_WORKERS,
            "database_bp": sum(len(rec) for rec in db),
            "private_workers_probed": len(private),
            "shared_workers_probed": len(shared),
            "private_warmup_s": private_warm,
            "shared_warmup_s": shared_warm,
            "private_rss_delta_kb": private_rss,
            "shared_rss_delta_kb": shared_rss,
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\nshared plane over {out['database_bp']} bp, "
        f"{out['workers']} workers: warmup "
        f"{out['private_warmup_s']:.3f}s -> {out['shared_warmup_s']:.3f}s, "
        f"private RSS {out['private_rss_delta_kb'] / 1024:.1f} MiB -> "
        f"{out['shared_rss_delta_kb'] / 1024:.1f} MiB per worker"
    )
    assert out["shared_warmup_s"] < 0.5 * out["private_warmup_s"], (
        "shared plane should cut per-worker warmup by more than half: "
        f"{out['private_warmup_s']:.3f}s -> {out['shared_warmup_s']:.3f}s"
    )
    assert out["shared_rss_delta_kb"] < 0.5 * out["private_rss_delta_kb"], (
        "shared plane should cut per-worker private RSS by more than half: "
        f"{out['private_rss_delta_kb']:.0f} KiB -> "
        f"{out['shared_rss_delta_kb']:.0f} KiB"
    )


def test_plane_attach_is_cheaper_than_create(benchmark):
    """Second-session attach must cost a small fraction of first-session
    create: the registry's whole point is that replicas sharing a host skip
    re-publishing the database and pay only verification + a lease slot."""
    db = make_database(seed=442, num_sequences=32, mean_length=100_000)

    def experiment():
        shm_mod.reap_orphan_planes()
        t0 = time.perf_counter()
        creator = shm_mod.PlaneRegistry.attach_or_create(db, 11)
        create_s = time.perf_counter() - t0
        assert creator.created
        try:
            attach_times = []
            for _ in range(5):
                t0 = time.perf_counter()
                lease = shm_mod.PlaneRegistry.attach_or_create(db, 11)
                attach_times.append(time.perf_counter() - t0)
                assert not lease.created
                lease.release()
        finally:
            creator.release()
        return {
            "database_bp": sum(len(rec) for rec in db),
            "create_s": create_s,
            "attach_mean_s": sum(attach_times) / len(attach_times),
        }

    out = run_once(benchmark, experiment)
    benchmark.extra_info.update(out)
    print(
        f"\nplane lifecycle over {out['database_bp']} bp: create "
        f"{out['create_s']:.3f}s, verified attach {out['attach_mean_s']:.4f}s"
    )
    assert out["attach_mean_s"] < 0.5 * out["create_s"], (
        "integrity-verified attach should cost well under half a create: "
        f"{out['create_s']:.3f}s vs {out['attach_mean_s']:.3f}s"
    )
