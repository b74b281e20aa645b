"""Shared-memory data plane + persistent WorkerPool tests.

The leak tests assert the lifecycle invariant directly against ``/dev/shm``:
whatever happens — normal release, forgotten release at interpreter exit,
or a worker process crashing mid-task — no orphan segment may survive.
Planes come from :class:`~repro.mapreduce.shm.PlaneRegistry`, the only
plane lifecycle; ``test_plane_registry.py`` covers the leases themselves.
"""

import functools
import mmap
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.blast.lookup import sorted_kmers
from repro.mapreduce import runtime as runtime_mod
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import SerialExecutor, WorkerPool
from repro.mapreduce.shm import (
    PLANE_PREFIX,
    PlaneCorruptError,
    PlaneRegistry,
    attach_cached_view,
    attach_view,
    create_segment,
    destroy_segment,
    detach_cached_views,
    read_segment,
    reap_orphan_planes,
    segment_exists,
    write_segment,
)
from repro.mapreduce.types import InputSplit
from repro.sequence.generator import make_database

pytestmark = pytest.mark.skipif(
    not shm_mod.HAVE_SHARED_MEMORY, reason="platform lacks POSIX shared memory"
)

K = 9


def _shm_names(prefix):
    """Names of live ``/dev/shm`` entries with ``prefix`` (Linux probe)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _psm_segments():
    """Names of live platform-named POSIX shm segments."""
    return _shm_names("psm_")


@pytest.fixture
def db():
    return make_database(101, num_sequences=5, mean_length=400)


# Module-level task callables: picklable under fork and spawn alike.
def _mod5_mapper(split):
    for x in split.payload:
        yield x % 5, x


def _sum_reducer(key, values):
    return sum(values)


def _listing_mapper(padding, split):
    """Map ``x % 5 -> x``; the last two splits also emit what ``/dev/shm``
    holds at that moment. ``padding`` rides in the mapper's pickle."""
    for x in split.payload:
        yield f"k{x % 5}", x
    if split.index >= 4:
        yield "seen", sorted(os.listdir("/dev/shm"))


def _listing_reducer(key, values):
    if key == "seen":
        return [name for names in values for name in names]
    return sum(values)


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


def make_job(mapper=_mod5_mapper):
    return MapReduceJob(mapper=mapper, reducer=_sum_reducer, name="t")


def make_splits(n=6, width=10):
    return [
        InputSplit(index=i, payload=list(range(i * width, (i + 1) * width)))
        for i in range(n)
    ]


# --------------------------------------------------------------------------- #
# segment helpers
# --------------------------------------------------------------------------- #


@pytest.fixture
def segment_name():
    """A fresh segment name no owner claims, swept after the test."""
    name = f"oriontest_{os.getpid()}_{os.urandom(4).hex()}"
    yield name
    shm_mod.sweep_segment(name)


class TestSegments:
    def test_publish_read_roundtrip(self, segment_name):
        write_segment(segment_name, [b"orion ", b"shared bytes"])
        assert segment_exists(segment_name)
        assert read_segment(segment_name) == b"orion shared bytes"
        assert read_segment(segment_name, 6, 6) == b"shared"
        shm_mod.sweep_segment(segment_name)
        assert not segment_exists(segment_name)

    def test_destroy_is_idempotent(self, segment_name):
        seg = create_segment(segment_name, 16)
        destroy_segment(seg)
        destroy_segment(seg)  # second unlink: FileNotFoundError swallowed
        assert not segment_exists(seg.name)

    def test_failed_create_does_not_leak(self, segment_name):
        before = _shm_names("orion") | _psm_segments()
        with pytest.raises(TypeError):
            # The second chunk is no buffer: the write fails after
            # creation and the paired finally must unlink.
            write_segment(segment_name, [b"way more than four bytes", object()])
        assert not segment_exists(segment_name)
        assert (_shm_names("orion") | _psm_segments()) - before == set()


class TestSpillSet:
    """Reads of one run inside a multi-chunk segment, and sweeps."""

    def test_read_segment_slice_pulls_one_run(self, segment_name):
        write_segment(segment_name, [b"aaaa", b"bbbbcccc"])
        assert read_segment(segment_name, 4, 4) == b"bbbb"
        assert read_segment(segment_name, 0, 0) == b""

    def test_sweep_segment_reports_removal(self, segment_name):
        assert shm_mod.sweep_segment(segment_name) is False
        write_segment(segment_name, [b"data"])
        assert shm_mod.sweep_segment(segment_name) is True
        assert shm_mod.sweep_segment(segment_name) is False


# --------------------------------------------------------------------------- #
# the database plane
# --------------------------------------------------------------------------- #


class TestPlane:
    def test_view_roundtrips_codes_and_kmers(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            view = attach_view(lease.handle)
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
        with PlaneRegistry.attach_or_create(db, K) as lease:
            view = attach_view(lease.handle)
            codes = view.codes(db.records[0].seq_id)
            with pytest.raises(ValueError):
                codes[0] = 1
            view.close()

    def test_handle_pickles_small(self, db):
        import pickle

        with PlaneRegistry.attach_or_create(db, K) as lease:
            blob = pickle.dumps(lease.handle)
            # The whole point: the handle is metadata, not the database.
            assert len(blob) < 4096
            assert pickle.loads(blob) == lease.handle

    def test_cached_view_attaches_once_per_process(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            try:
                v1 = attach_cached_view(lease.digest, lease.generation)
                v2 = attach_cached_view(lease.digest, lease.generation)
                assert v1 is v2
                assert v1.handle == lease.handle  # read from the registry
            finally:
                detach_cached_views()

    def test_cached_view_of_another_generation_is_corrupt(self, db):
        """A worker named a plane generation the registry no longer holds
        (the plane was rebuilt): attaching must refuse, not read new bytes
        under an old name."""
        with PlaneRegistry.attach_or_create(db, K) as lease:
            try:
                with pytest.raises(PlaneCorruptError, match="generation"):
                    attach_cached_view(lease.digest, lease.generation + 1)
                with pytest.raises(PlaneCorruptError, match="generation"):
                    shm_mod.cached_shards(lease.digest, lease.generation + 1, 2)
            finally:
                detach_cached_views()

    def test_cleanup_hook_reclaims_unreleased_planes(self, db):
        lease = PlaneRegistry.attach_or_create(db, K)
        names = lease.handle.segment_names + (shm_mod._registry_name(lease.digest),)
        assert lease in shm_mod._LIVE_LEASES.values()
        shm_mod._cleanup_live_leases()
        assert lease._released
        assert not any(segment_exists(n) for n in names)
        assert lease not in shm_mod._LIVE_LEASES.values()

    def test_handle_carries_only_the_database(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            names = lease.handle.segment_names
            assert [n.rsplit("_", 1)[1] for n in names] == ["codes", "keys", "positions"]
            fields = set(vars(lease.handle))
            assert not any(f.startswith("sketch") for f in fields)
            assert "registry_segment" not in fields

    def test_no_segments_leak(self, db):
        before = _shm_names(PLANE_PREFIX)
        lease = PlaneRegistry.attach_or_create(db, K)
        assert len(_shm_names(PLANE_PREFIX) - before) == 4  # 3 data + registry
        lease.release()
        assert _shm_names(PLANE_PREFIX) <= before


class TestLeakOnExit:
    def test_no_orphan_segments_after_normal_interpreter_exit(self, db, tmp_path):
        """A script that leases a plane and *forgets* to release it must
        still leave /dev/shm clean: the atexit lease drain is the backstop."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "import sys\n"
            "from repro.mapreduce.shm import PlaneRegistry, _registry_name\n"
            "from repro.sequence.generator import make_database\n"
            "db = make_database(7, num_sequences=3, mean_length=300)\n"
            "lease = PlaneRegistry.attach_or_create(db, 9)\n"
            "print('\\n'.join(lease.handle.segment_names))\n"
            "print(_registry_name(lease.digest))\n"
            "# exits without release\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, check=True,
        )
        names = [n for n in out.stdout.splitlines() if n]
        assert len(names) == 4  # codes, kmer keys, kmer positions, registry
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

    def test_unpicklable_job_falls_back_to_serial(self):
        job = MapReduceJob(
            mapper=lambda s: [(0, x) for x in s.payload],  # closure: unpicklable
            reducer=_sum_reducer,
            name="t",
        )
        with WorkerPool(max_workers=2) as pool:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                result = pool.run(job, make_splits())
        assert result.outputs == [(0, sum(range(60)))]
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
            assert dict(result.outputs) == _expected_totals()
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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_create_no_segment(self, start_method):
        """A pool run makes no ``/dev/shm`` entry, whether its mapper pickles
        within a page or above one: late map tasks list ``/dev/shm`` while
        earlier tasks' above-page outputs are already back, and the driver
        lists it once the run is over."""
        jobs = [
            MapReduceJob(
                mapper=functools.partial(_listing_mapper, padding),
                reducer=_listing_reducer, name="listing",
            )
            for padding in (b"", bytes(2 * mmap.PAGESIZE))
        ]
        sizes = [len(pickle.dumps(job.mapper)) for job in jobs]
        assert sizes[0] <= mmap.PAGESIZE < sizes[1]
        splits = [InputSplit(index=i, payload=list(range(i, 3000, 6))) for i in range(6)]
        with WorkerPool(max_workers=2, start_method=start_method) as pool:
            pool.prewarm()  # the pool's own semaphores predate the listing
            before = set(os.listdir("/dev/shm"))
            for job in jobs:
                result = pool.run(job, splits)
                outputs = dict(result.outputs)
                assert [outputs[f"k{k}"] for k in range(5)] == [
                    sum(range(k, 3000, 5)) for k in range(5)
                ]
                assert all(r.executor == "processes" for r in result.records)
                assert set(outputs["seen"]) - before == set()
                assert set(os.listdir("/dev/shm")) - before == set()

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)


# --------------------------------------------------------------------------- #
# the one-owner rule: every segment has a lock-holding owner, one reaper
# --------------------------------------------------------------------------- #


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _owned_entries():
    """Every entry this program could have created: planes, psm_ blobs."""
    return _shm_names("orion") | _psm_segments()


def _wait_for(predicate, timeout=60.0):
    """Poll ``predicate`` until it holds (True) or ``timeout`` passes (False)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _group_alive(pgid):
    """Whether any non-zombie process is left in process group ``pgid``."""
    for pid in os.listdir("/proc"):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


#: A driver that leases a plane, then searches one long query after another
#: on a process pool, so at any moment a run is likely in flight.
_SEARCH_DRIVER = textwrap.dedent(
    """\
    import sys
    from repro.core.orion import OrionSearch
    from repro.mapreduce.runtime import WorkerPool
    from repro.sequence.generator import (
        HomologySpec, make_database, make_query_with_homologies,
    )

    if __name__ == "__main__":
        db = make_database(7, num_sequences=5, mean_length=400)
        search = OrionSearch(
            db, num_shards=4,
            executor=WorkerPool(max_workers=2, start_method=sys.argv[1]),
        )
        search.warmup()
        print("READY", flush=True)
        for seed in range(11, 10_000):
            query, _ = make_query_with_homologies(
                seed, 8000, db, [HomologySpec(length=120)]
            )
            search.run(query)
    """
)


class TestOneOwnerRule:
    """A plane is the only thing in ``/dev/shm``, it lives under its
    lock-holding registry, and :func:`reap_orphan_planes` sweeps whatever
    no lock holds."""

    @pytest.mark.parametrize("scope", ["driver", "group"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_driver_leaves_nothing_after_reap(
        self, tmp_path, start_method, scope
    ):
        """SIGKILL a driver once its plane is published — alone (its
        workers live on) or with its whole process group — and reaping
        leaves no plane of it behind."""
        script = tmp_path / "driver.py"
        script.write_text(_SEARCH_DRIVER)
        before = _owned_entries()
        semaphores_before = _shm_names("sem.mp-")
        proc = subprocess.Popen(
            [sys.executable, str(script), start_method],
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
            start_new_session=True,  # killpg must never reach the test runner
        )
        try:
            assert proc.stdout.readline().strip() == "READY"

            def plane_published():
                new = _owned_entries() - before
                return any(n.startswith(PLANE_PREFIX) and n.endswith("_reg") for n in new)

            assert _wait_for(plane_published)
            if scope == "driver":
                os.kill(proc.pid, signal.SIGKILL)
            else:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            at_kill = _owned_entries() - before

            def reaped(names):
                reap_orphan_planes()
                return not names & _owned_entries()

            # The kernel drops a dead process's locks as its exit completes,
            # which can trail its reaping by a moment: poll rather than race.
            # Orphaned workers may still be alive and map the segments, but
            # they hold no lock: everything the dead driver owned goes.
            _wait_for(lambda: reaped(at_kill), timeout=10)
            assert not at_kill & _owned_entries()
            assert _psm_segments() - before == set()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group is gone already
                pass
            assert _wait_for(lambda: not _group_alive(proc.pid), timeout=30)
            proc.stdout.close()
            # A spawn pool's semaphores are its dead resource tracker's to
            # unlink; only the killed group's are new.
            for name in _shm_names("sem.mp-") - semaphores_before:
                os.unlink(os.path.join("/dev/shm", name))
        # Anything an orphan worker's pool left after the kill goes too.
        _wait_for(lambda: reaped(_owned_entries() - before), timeout=10)
        assert _owned_entries() - before == set()
