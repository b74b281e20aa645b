"""Shared-memory data plane + persistent WorkerPool tests.

The leak tests assert the lifecycle invariant directly against ``/dev/shm``:
whatever happens — normal release, forgotten release at interpreter exit,
or a worker process crashing mid-task — no orphan segment may survive.
"""

import functools
import mmap
import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.blast.lookup import sorted_kmers
from repro.mapreduce import runtime as runtime_mod
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, WorkerPool
from repro.mapreduce.shm import (
    SharedDatabasePlane,
    SharedMemoryUnavailable,
    attach_cached_view,
    attach_view,
    create_segment,
    destroy_segment,
    detach_cached_views,
    publish_bytes,
    read_bytes,
    segment_exists,
)
from repro.mapreduce.types import InputSplit
from repro.sequence.generator import make_database
from tests.mapreduce.test_runtime import _padded_mapper

pytestmark = pytest.mark.skipif(
    not shm_mod.HAVE_SHARED_MEMORY, reason="platform lacks POSIX shared memory"
)

K = 9


def _psm_segments():
    """Names of live POSIX shm segments (Linux probe; empty set elsewhere)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def db():
    return make_database(101, num_sequences=5, mean_length=400)


# Module-level task callables: picklable under fork and spawn alike.
def _mod5_mapper(split):
    for x in split.payload:
        yield x % 5, x


def _sum_reducer(key, values):
    yield key, sum(values)


class _CrashInWorkerMapper:
    """Crashes the hosting process — but only when it is NOT the parent.

    The parent pid travels with the pickle, so the post-crash serial
    fallback (which runs in the parent) completes normally while every
    pool worker dies mid-task.
    """

    def __init__(self, parent_pid):
        self.parent_pid = parent_pid

    def __call__(self, split):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        yield from _mod5_mapper(split)


def make_job(mapper=_mod5_mapper, n_red=2):
    return MapReduceJob(mapper=mapper, reducer=_sum_reducer, num_reducers=n_red, name="t")


def make_above_page_job():
    """A job whose pickle outgrows one page, so its blob ships via shm."""
    job = make_job(functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)))
    assert len(pickle.dumps(job)) > mmap.PAGESIZE
    return job


# Worker-side observable for the setup-runs-once test: the offset a setup
# run installs is baked into every mapped value, so a re-run of setup in a
# worker shows up as shifted sums in that worker's output.
_POOL_SETUP = {"offset": 0}


def _accumulating_setup():
    _POOL_SETUP["offset"] += 1000


def _setup_offset_mapper(split):
    for x in split.payload:
        yield x % 5, x + _POOL_SETUP["offset"]


def make_splits(n=6, width=10):
    return [
        InputSplit(index=i, payload=list(range(i * width, (i + 1) * width)))
        for i in range(n)
    ]


# --------------------------------------------------------------------------- #
# segment helpers
# --------------------------------------------------------------------------- #


class TestSegments:
    def test_publish_read_roundtrip(self):
        data = b"orion shared bytes"
        seg = publish_bytes(data)
        try:
            assert read_bytes(seg.name, len(data)) == data
            assert segment_exists(seg.name)
        finally:
            destroy_segment(seg)
        assert not segment_exists(seg.name)

    def test_destroy_is_idempotent(self):
        seg = create_segment(16)
        destroy_segment(seg)
        destroy_segment(seg)  # second unlink: FileNotFoundError swallowed
        assert not segment_exists(seg.name)

    def test_failed_create_does_not_leak(self):
        before = _psm_segments()
        with pytest.raises(ValueError):
            # data larger than the segment: the copy-in fails after creation
            # and the paired finally must close+unlink.
            create_segment(4, b"way more than four bytes")
        assert _psm_segments() - before == set()


# --------------------------------------------------------------------------- #
# the database plane
# --------------------------------------------------------------------------- #


class TestPlane:
    def test_view_roundtrips_codes_and_kmers(self, db):
        with SharedDatabasePlane.create(db, K) as plane:
            view = attach_view(plane.handle)
            rebuilt = view.database()
            assert rebuilt.name == db.name
            for rec, back in zip(db, rebuilt):
                assert back.seq_id == rec.seq_id
                assert np.array_equal(back.codes, rec.codes)
                keys, pos = sorted_kmers(rec.codes, K)
                vkeys, vpos = view.sorted_kmers(rec.seq_id)
                assert np.array_equal(vkeys, keys)
                assert np.array_equal(vpos, pos)
            view.close()

    def test_views_are_read_only(self, db):
        with SharedDatabasePlane.create(db, K) as plane:
            view = attach_view(plane.handle)
            codes = view.codes(db.records[0].seq_id)
            with pytest.raises(ValueError):
                codes[0] = 1
            view.close()

    def test_refcount_unlinks_on_last_release(self, db):
        plane = SharedDatabasePlane.create(db, K)
        names = plane.handle.segment_names
        plane.acquire()
        plane.release()
        assert all(segment_exists(n) for n in names)
        assert not plane.destroyed
        plane.release()
        assert plane.destroyed
        assert not any(segment_exists(n) for n in names)

    def test_acquire_after_destroy_raises(self, db):
        plane = SharedDatabasePlane.create(db, K)
        plane.destroy()
        with pytest.raises(SharedMemoryUnavailable):
            plane.acquire()

    def test_over_release_raises_instead_of_going_negative(self, db):
        """Releasing more times than acquired must raise, not silently drive
        the refcount negative (a double-release bug in one consumer would
        otherwise destroy a plane other consumers still hold)."""
        plane = SharedDatabasePlane.create(db, K)
        plane.release()  # balances create; destroys the plane
        assert plane.destroyed
        with pytest.raises(RuntimeError, match="over-released"):
            plane.release()

    def test_handle_pickles_small(self, db):
        import pickle

        plane = SharedDatabasePlane.create(db, K)
        try:
            blob = pickle.dumps(plane.handle)
            # The whole point: the handle is metadata, not the database.
            assert len(blob) < 4096
            assert pickle.loads(blob) == plane.handle
        finally:
            plane.release()

    def test_cached_view_attaches_once_per_process(self, db):
        plane = SharedDatabasePlane.create(db, K)
        try:
            v1 = attach_cached_view(plane.handle)
            v2 = attach_cached_view(plane.handle)
            assert v1 is v2
        finally:
            detach_cached_views()
            plane.release()

    def test_cleanup_hook_reclaims_unreleased_planes(self, db):
        plane = SharedDatabasePlane.create(db, K)
        names = plane.handle.segment_names
        assert plane.handle.plane_id in shm_mod._LIVE_PLANES
        shm_mod._cleanup_live_planes()
        assert plane.destroyed
        assert not any(segment_exists(n) for n in names)
        assert plane.handle.plane_id not in shm_mod._LIVE_PLANES


class TestPlaneSketches:
    """The optional fourth segment: per-sequence bottom-k sketches."""

    def test_view_sketches_match_in_process(self, db):
        from repro.sketch import KmerSketch

        with SharedDatabasePlane.create(db, K) as plane:
            assert plane.handle.has_sketches
            view = attach_view(plane.handle)
            assert view.has_sketches
            for rec in db:
                got = view.sequence_sketch(rec.seq_id)
                ref = KmerSketch.from_codes(rec.codes, K, plane.handle.sketch_size)
                assert np.array_equal(got.hashes, ref.hashes)
                assert got.threshold == ref.threshold
            view.close()

    def test_sketch_segment_in_segment_names(self, db):
        with SharedDatabasePlane.create(db, K) as plane:
            assert plane.handle.sketch_segment is not None
            assert plane.handle.sketch_segment in plane.handle.segment_names
            assert len(plane.handle.segment_names) == 4

    def test_sketch_size_zero_omits_segment(self, db):
        with SharedDatabasePlane.create(db, K, sketch_size=0) as plane:
            assert not plane.handle.has_sketches
            assert plane.handle.sketch_segment is None
            assert len(plane.handle.segment_names) == 3
            view = attach_view(plane.handle)
            assert not view.has_sketches
            with pytest.raises(SharedMemoryUnavailable):
                view.sequence_sketch(next(iter(db)).seq_id)
            view.close()

    def test_handle_with_sketches_pickles(self, db):
        import pickle

        with SharedDatabasePlane.create(db, K) as plane:
            back = pickle.loads(pickle.dumps(plane.handle))
            assert back == plane.handle
            assert back.has_sketches
            assert back.sketch_thresholds == plane.handle.sketch_thresholds

    def test_old_style_handle_defaults_to_no_sketches(self, db):
        """Handles pickled before the sketch segment existed (or built
        without one) must keep working and report no sketches."""
        handle = shm_mod.SharedDatabaseHandle(
            plane_id="old",
            db_name=db.name,
            k=K,
            seq_ids=("a",),
            descriptions=("",),
            codes_segment="x",
            codes_offsets=(0, 1),
            kmer_keys_segment="y",
            kmer_positions_segment="z",
            kmer_offsets=(0, 0),
        )
        assert not handle.has_sketches
        assert len(handle.segment_names) == 3

    def test_no_segments_leak(self, db):
        before = _psm_segments()
        plane = SharedDatabasePlane.create(db, K)
        assert len(_psm_segments() - before) == 4
        plane.release()
        assert _psm_segments() <= before


class TestLeakOnExit:
    def test_no_orphan_segments_after_normal_interpreter_exit(self, db, tmp_path):
        """A script that builds a plane and *forgets* to release it must
        still leave /dev/shm clean: the atexit registry is the backstop."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "import sys\n"
            "from repro.mapreduce.shm import SharedDatabasePlane\n"
            "from repro.sequence.generator import make_database\n"
            "db = make_database(7, num_sequences=3, mean_length=300)\n"
            "plane = SharedDatabasePlane.create(db, 9)\n"
            "print('\\n'.join(plane.handle.segment_names))\n"
            "# exits without release/destroy\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, check=True,
        )
        names = [n for n in out.stdout.splitlines() if n]
        assert len(names) == 4  # codes + kmer keys + kmer positions + sketches
        assert not any(segment_exists(n) for n in names)
        assert "Traceback" not in out.stderr


# --------------------------------------------------------------------------- #
# persistent WorkerPool
# --------------------------------------------------------------------------- #


def _expected_totals(n=6, width=10):
    expected = {}
    for x in range(n * width):
        expected[x % 5] = expected.get(x % 5, 0) + x
    return expected


class TestWorkerPool:
    def test_matches_serial_and_reuses_one_pool(self, monkeypatch):
        created = []
        real_pool = runtime_mod.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            created.append(1)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(runtime_mod, "ProcessPoolExecutor", counting_pool)
        serial = SerialExecutor().run(make_job(), make_splits())
        with WorkerPool(max_workers=2) as pool:
            r1 = pool.run(make_job(), make_splits())
            r2 = pool.run(make_job(), make_splits())
            assert pool.started
        assert len(created) == 1
        assert r1.outputs == serial.outputs == r2.outputs
        assert all(r.executor == "processes" for r in r1.records)
        assert not any(r.simulator_safe for r in r1.records)

    def test_job_blob_segment_is_destroyed_after_run(self, monkeypatch):
        published = []
        real_publish = shm_mod.publish_bytes

        def spying_publish(data):
            seg = real_publish(data)
            published.append(seg.name)
            return seg

        monkeypatch.setattr(shm_mod, "publish_bytes", spying_publish)
        with WorkerPool(max_workers=2) as pool:
            result = pool.run(make_above_page_job(), make_splits())
            assert dict(result.flat_outputs()) == _expected_totals()
            # A sub-page job rides inline: no blob segment at all.
            pool.run(make_job(), make_splits())
        assert len(published) == 1, "job blob was not shipped via shared memory"
        assert not any(segment_exists(n) for n in published)

    def test_unpicklable_job_falls_back_to_serial(self):
        job = MapReduceJob(
            mapper=lambda s: [(0, x) for x in s.payload],  # closure: unpicklable
            reducer=_sum_reducer,
            num_reducers=2,
            name="t",
        )
        with WorkerPool(max_workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                result = pool.run(job, make_splits())
        totals = dict(kv for out in result.outputs for kv in out)
        assert totals == {0: sum(range(60))}
        assert all(r.executor == "serial" for r in result.records)

    def test_single_worker_runs_serial_without_pool(self):
        pool = WorkerPool(max_workers=1)
        result = pool.run(make_job(), make_splits())
        assert not pool.started
        assert all(r.executor == "serial" for r in result.records)

    def test_single_worker_prewarm_starts_nothing(self):
        """``run`` never uses a one-worker pool's process, so ``prewarm``
        must not fork one either."""
        before = set(multiprocessing.active_children())
        pool = WorkerPool(max_workers=1)
        pool.prewarm()
        assert not pool.started
        assert set(multiprocessing.active_children()) - before == set()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_crash_recovers_and_leaks_nothing(self, start_method):
        """An injected worker crash must (a) fall back to a correct serial
        run, (b) discard the poisoned pool, and (c) leave /dev/shm clean —
        under both fork and spawn start methods."""
        before = _psm_segments()
        job = make_job(mapper=_CrashInWorkerMapper(os.getpid()))
        pool = WorkerPool(max_workers=2, start_method=start_method)
        try:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                result = pool.run(job, make_splits())
            assert not pool.started, "crashed pool must be discarded"
            totals = dict(kv for out in result.outputs for kv in out)
            assert totals == _expected_totals()
            # The pool rebuilds transparently on the next run.
            healthy = pool.run(make_job(), make_splits())
            assert all(r.executor == "processes" for r in healthy.records)
        finally:
            pool.shutdown()
        assert _psm_segments() - before == set()

    def test_shutdown_is_idempotent_and_rebuildable(self):
        pool = WorkerPool(max_workers=2)
        r1 = pool.run(make_job(), make_splits())
        pool.shutdown()
        pool.shutdown()
        assert not pool.started
        r2 = pool.run(make_job(), make_splits())
        pool.shutdown()
        assert r1.outputs == r2.outputs

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    def test_repeated_job_runs_setup_once_per_worker(self):
        """Re-submitting a pickled-identical job must hit the per-worker job
        cache, not re-publish under a fresh key and re-run ``setup``.

        The setup hook shifts every mapped value by 1000, so a second setup
        run in any worker would show up as inflated sums on the re-run.
        """
        _POOL_SETUP["offset"] = 0
        job = MapReduceJob(
            mapper=_setup_offset_mapper,
            reducer=_sum_reducer,
            num_reducers=2,
            setup=_accumulating_setup,
            name="t",
        )
        with WorkerPool(max_workers=2) as pool:
            r1 = pool.run(job, make_splits())
            r2 = pool.run(job, make_splits())
        totals = dict(kv for out in r1.outputs for kv in out)
        # 60 inputs, each shifted by exactly one setup run's 1000.
        assert sum(totals.values()) == sum(range(60)) + 1000 * 60
        assert r1.outputs == r2.outputs
        assert _POOL_SETUP["offset"] == 0, "setup must run in workers only"

    def test_prewarmed_fork_workers_share_the_driver_tracker(self, tmp_path):
        """A pool forked before any shm activity must still hand its workers
        the driver's resource tracker: otherwise each worker that attaches
        an above-page job blob starts a private tracker, which at exit
        reports the driver's (already destroyed) segments as leaked."""
        script = tmp_path / "prewarmed.py"
        script.write_text(
            "import functools, mmap\n"
            "from repro.mapreduce.job import MapReduceJob\n"
            "from repro.mapreduce.runtime import WorkerPool\n"
            "from repro.mapreduce.types import InputSplit\n"
            "def mapper(padding, split):\n"
            "    for x in split.payload:\n"
            "        yield x % 5, x\n"
            "def reducer(key, values):\n"
            "    yield key, sum(values)\n"
            "if __name__ == '__main__':\n"
            "    pool = WorkerPool(max_workers=2, start_method='fork')\n"
            "    pool.prewarm()\n"
            "    splits = [InputSplit(index=i, payload=list(range(i * 10, i * 10 + 10)))\n"
            "              for i in range(6)]\n"
            "    for j in range(3):\n"
            "        padding = bytes(2 * mmap.PAGESIZE + j)  # a fresh blob per job\n"
            "        job = MapReduceJob(mapper=functools.partial(mapper, padding),\n"
            "                           reducer=reducer, num_reducers=2, name='t')\n"
            "        pool.run(job, splits)\n"
            "    pool.shutdown()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "resource_tracker" not in out.stderr


# --------------------------------------------------------------------------- #
# streaming-shuffle spill sets
# --------------------------------------------------------------------------- #


class TestSpillSet:
    def test_names_are_deterministic_and_driver_owned(self):
        with shm_mod.SpillSet(3) as spills:
            assert spills.name_for(2) == f"{spills.set_id}_00002_a01"
            assert spills.name_for(2, attempt=3) == f"{spills.set_id}_00002_a03"
            # Minting records every name handed out, exactly once.
            assert spills.names == (
                f"{spills.set_id}_00002_a01",
                f"{spills.set_id}_00002_a03",
            )
            assert spills.set_id.startswith(f"orionspill_{os.getpid()}_")
        # Distinct sets in one process must never collide.
        s1, s2 = shm_mod.SpillSet(1), shm_mod.SpillSet(1)
        try:
            assert s1.name_for(0) != s2.name_for(0)
        finally:
            s1.release()
            s2.release()

    def test_attempts_get_distinct_names_and_individual_sweeps(self):
        """A retried map task's new attempt never collides with the old
        attempt's segment, and the dead attempt is swept without touching
        the winner's run."""
        spills = shm_mod.SpillSet(1)
        try:
            first = spills.name_for(0, attempt=1)
            second = spills.name_for(0, attempt=2)
            assert first != second
            create_segment(4, b"dead", name=first).close()
            create_segment(4, b"live", name=second).close()
            assert spills.sweep(0, attempt=1) is True
            assert not segment_exists(first)
            assert segment_exists(second)
            assert spills.sweep(0, attempt=1) is False  # idempotent
        finally:
            spills.release()
        assert not segment_exists(second)

    def test_release_sweeps_created_segments_and_is_idempotent(self):
        spills = shm_mod.SpillSet(3)
        # Simulate two workers spilling (one name intentionally minted but
        # never created: the inline-fallback / crashed-worker case).
        names = [spills.name_for(i) for i in range(3)]
        for i in (0, 2):
            seg = create_segment(8, b"run-data", name=names[i])
            seg.close()
        assert segment_exists(names[0])
        spills.release()
        assert not any(segment_exists(n) for n in names)
        spills.release()  # second release: no-op, no error

    def test_read_segment_slice_pulls_one_run(self):
        spills = shm_mod.SpillSet(1)
        try:
            name = spills.name_for(0)
            create_segment(12, b"aaaabbbbcccc", name=name).close()
            assert shm_mod.read_segment_slice(name, 4, 4) == b"bbbb"
            assert shm_mod.read_segment_slice(name, 0, 0) == b""
        finally:
            spills.release()

    def test_cleanup_hook_reclaims_unreleased_sets(self):
        spills = shm_mod.SpillSet(2)
        leftover = spills.name_for(1)
        create_segment(4, b"left", name=leftover).close()
        assert spills.set_id in shm_mod._LIVE_SPILL_SETS
        shm_mod._cleanup_live_spill_sets()
        assert spills.set_id not in shm_mod._LIVE_SPILL_SETS
        assert not segment_exists(leftover)

    def test_sweep_segment_reports_removal(self):
        spills = shm_mod.SpillSet(1)
        try:
            name = spills.name_for(0)
            assert shm_mod.sweep_segment(name) is False
            create_segment(4, b"data", name=name).close()
            assert shm_mod.sweep_segment(name) is True
            assert shm_mod.sweep_segment(name) is False
        finally:
            spills.release()
