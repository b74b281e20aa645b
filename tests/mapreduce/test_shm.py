"""Shared-memory data plane + persistent WorkerPool tests.

The leak tests assert the lifecycle invariant directly against ``/dev/shm``:
whatever happens — normal release, forgotten release at interpreter exit,
or a worker process crashing mid-task — no orphan segment may survive.
Planes come from :class:`~repro.mapreduce.shm.PlaneRegistry`, the only
plane lifecycle; ``test_plane_registry.py`` covers the leases themselves.
"""

import functools
import itertools
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
from tests.mapreduce.test_runtime import _padded_mapper

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


def _listing_mapper(padding, driver_pid, split):
    """Map ``x % 5 -> x``; the last two splits also emit what the driver's
    runs hold in ``/dev/shm`` at that moment."""
    for x in split.payload:
        yield f"k{x % 5}", x
    if split.index >= 4:
        prefix = f"orionspill_{driver_pid}_"
        yield "seen", sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


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


def make_above_page_job():
    """A job whose mapper's pickle outgrows one page, so its blob ships via shm."""
    job = make_job(functools.partial(_padded_mapper, bytes(2 * mmap.PAGESIZE)))
    assert len(pickle.dumps(job.mapper)) > mmap.PAGESIZE
    return job


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
        with shm_mod.SpillSet() as spills:
            name = spills.publish_job(data)
            assert read_segment(name) == data
            assert read_segment(name, 6, 6) == b"shared"
            assert segment_exists(name)
        assert not segment_exists(name)

    def test_destroy_is_idempotent(self):
        with shm_mod.SpillSet() as spills:
            seg = create_segment(f"{spills.set_id}_seg", 16)
            destroy_segment(seg)
            destroy_segment(seg)  # second unlink: FileNotFoundError swallowed
            assert not segment_exists(seg.name)

    def test_failed_create_does_not_leak(self):
        before = _shm_names("orion") | _psm_segments()
        with shm_mod.SpillSet() as spills:
            name = f"{spills.set_id}_seg"
            with pytest.raises(TypeError):
                # The second chunk is no buffer: the write fails after
                # creation and the paired finally must unlink.
                write_segment(name, [b"way more than four bytes", object()])
            assert not segment_exists(name)
        assert (_shm_names("orion") | _psm_segments()) - before == set()


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
                v1 = attach_cached_view(lease.handle)
                v2 = attach_cached_view(lease.handle)
                assert v1 is v2
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

    def test_job_blob_segment_is_destroyed_after_run(self, monkeypatch):
        published = []
        real_publish = shm_mod.SpillSet.publish_job

        def spying_publish(spills, data):
            name = real_publish(spills, data)
            published.append(name)
            return name

        monkeypatch.setattr(shm_mod.SpillSet, "publish_job", spying_publish)
        with WorkerPool(max_workers=2) as pool:
            result = pool.run(make_above_page_job(), make_splits())
            assert dict(result.outputs) == _expected_totals()
            # A sub-page job rides inline: no blob segment at all.
            pool.run(make_job(), make_splits())
        assert len(published) == 1, "job blob was not shipped via shared memory"
        assert not any(segment_exists(n) for n in published)

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
        """Late map tasks list the driver's run while earlier tasks' above-page
        outputs are already back: the run holds only its anchor and job blob."""
        job = MapReduceJob(
            mapper=functools.partial(_listing_mapper, bytes(2 * mmap.PAGESIZE), os.getpid()),
            reducer=_listing_reducer, name="listing",
        )
        splits = [InputSplit(index=i, payload=list(range(i, 3000, 6))) for i in range(6)]
        with WorkerPool(max_workers=2, start_method=start_method) as pool:
            result = pool.run(job, splits)
        outputs = dict(result.outputs)
        assert [outputs[f"k{k}"] for k in range(5)] == [
            sum(range(k, 3000, 5)) for k in range(5)
        ]
        assert outputs["seen"]  # the run's anchor at least
        assert all(n.endswith("_job") or n.count("_") == 3 for n in outputs["seen"])

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)


# --------------------------------------------------------------------------- #
# spill sets: the owner of a pool run's anchor and job blob
# --------------------------------------------------------------------------- #


class TestSpillSet:
    def test_release_sweeps_created_segments_and_is_idempotent(self):
        spills = shm_mod.SpillSet()
        blob = spills.publish_job(b"job bytes")
        assert segment_exists(blob) and segment_exists(spills.set_id)
        spills.release()
        assert not segment_exists(blob) and not segment_exists(spills.set_id)
        spills.release()  # second release: no-op, no error
        # A run whose job rode inline published nothing; release still works.
        with shm_mod.SpillSet() as inline_run:
            assert segment_exists(inline_run.set_id)
        assert not segment_exists(inline_run.set_id)

    def test_read_segment_slice_pulls_one_run(self):
        spills = shm_mod.SpillSet()
        try:
            name = f"{spills.set_id}_seg"
            write_segment(name, [b"aaaa", b"bbbbcccc"])
            assert read_segment(name, 4, 4) == b"bbbb"
            assert read_segment(name, 0, 0) == b""
        finally:
            spills.release()
            shm_mod.sweep_segment(f"{spills.set_id}_seg")

    def test_cleanup_hook_reclaims_unreleased_sets(self):
        spills = shm_mod.SpillSet()
        leftover = spills.publish_job(b"left")
        assert spills.set_id in shm_mod._LIVE_SPILL_SETS
        shm_mod._cleanup_live_spill_sets()
        assert spills.set_id not in shm_mod._LIVE_SPILL_SETS
        assert not segment_exists(leftover)

    def test_same_pid_and_counter_mint_disjoint_names(self, monkeypatch):
        """Drivers in separate PID namespaces can share one /dev/shm with
        the same pid and counter (two containers of a pod, each PID 1); the
        random token in the run prefix keeps their segments apart."""
        monkeypatch.setattr(shm_mod, "_SPILL_COUNTER", itertools.count())
        first = shm_mod.SpillSet()
        monkeypatch.setattr(shm_mod, "_SPILL_COUNTER", itertools.count())
        second = shm_mod.SpillSet()
        try:
            assert first.set_id.split("_")[3] == second.set_id.split("_")[3] == "0"

            def names(spills):
                return {spills.set_id, f"{spills.set_id}_job"}

            assert not names(first) & names(second)
        finally:
            first.release()
            second.release()

    def test_sweep_segment_reports_removal(self):
        spills = shm_mod.SpillSet()
        try:
            name = f"{spills.set_id}_seg"
            assert shm_mod.sweep_segment(name) is False
            write_segment(name, [b"data"])
            assert shm_mod.sweep_segment(name) is True
            assert shm_mod.sweep_segment(name) is False
        finally:
            spills.release()


# --------------------------------------------------------------------------- #
# the one-owner rule: every segment has a lock-holding owner, one reaper
# --------------------------------------------------------------------------- #


def _subprocess_env(**extra):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.update(extra)
    return env


def _owned_entries():
    """Every entry this program could have created: planes, runs, psm_ blobs."""
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


#: A driver that searches one long query after another on a process pool,
#: so at any moment a run with an above-page job blob is likely in flight.
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


#: A driver whose one above-page pool run stays in flight until a gate
#: file appears: split 0 commits, split 1 waits on the gate.
_GATED_RUN = textwrap.dedent(
    """\
    import functools, mmap, os, sys, time
    from repro.mapreduce.job import MapReduceJob
    from repro.mapreduce.runtime import WorkerPool
    from repro.mapreduce.types import InputSplit

    def mapper(padding, gate, split):
        while split.index == 1 and not os.path.exists(gate):
            time.sleep(0.01)
        for x in split.payload:
            yield x % 2, bytes(1000)

    def reducer(key, values):
        return len(values)

    if __name__ == "__main__":
        job = MapReduceJob(
            mapper=functools.partial(mapper, bytes(2 * mmap.PAGESIZE), sys.argv[1]),
            reducer=reducer, name="gated",
        )
        splits = [InputSplit(index=i, payload=list(range(10))) for i in range(2)]
        with WorkerPool(max_workers=2) as pool:
            print(pool.run(job, splits).outputs, flush=True)
    """
)


class TestOneOwnerRule:
    """Planes and job blobs all live under a lock-holding owner, and
    :func:`reap_orphan_planes` sweeps whatever no lock holds."""

    def test_reaper_sweeps_a_run_whose_owner_is_gone(self):
        spills = shm_mod.SpillSet()
        blob = spills.publish_job(b"job bytes")
        assert spills.set_id not in reap_orphan_planes()  # held: kept
        assert segment_exists(blob)
        spills._abandon()  # a crashed driver: lock gone, nothing unlinked
        removed = reap_orphan_planes()
        assert {spills.set_id, blob} <= set(removed)
        assert not any(segment_exists(n) for n in (spills.set_id, blob))

    def test_forked_child_does_not_pin_a_run(self):
        """A forked child shares the anchor's open file description; the
        at-fork hook closes the child's copy, so once the driver lets go
        the reaper sweeps the run while the child lives on."""
        spills = shm_mod.SpillSet()
        blob = spills.publish_job(b"job bytes")
        started_r, started_w = os.pipe()
        exit_r, exit_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: inherits the set and its anchor fd
            try:
                os.write(started_w, b"started")
                os.read(exit_r, 1)  # stay alive until the parent is done
            finally:
                os._exit(0)
        try:
            assert os.read(started_r, 16) == b"started"
            spills._abandon()  # the driver's lock goes, nothing unlinked
            assert {spills.set_id, blob} <= set(reap_orphan_planes())
        finally:
            os.write(exit_w, b"x")
            _, status = os.waitpid(pid, 0)
            for fd in (started_r, started_w, exit_r, exit_w):
                os.close(fd)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_anchor_swept_before_its_lock_lands_is_replaced(self, monkeypatch):
        """A reaper that sweeps a fresh anchor between its create and its
        lock must not leave the run ownerless: the set sees its path no
        longer names the locked inode and re-anchors under a new name."""
        import fcntl

        real_flock = fcntl.flock
        raced = []

        def racing_flock(fd, op):
            if op == fcntl.LOCK_SH and not raced:
                raced.append(reap_orphan_planes())
            return real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", racing_flock)
        with shm_mod.SpillSet() as spills:
            mine = f"orionspill_{os.getpid()}_"
            swept = [n for n in raced[0] if n.startswith(mine)]
            assert swept and spills.set_id not in swept
            blob = spills.publish_job(b"live")
            assert blob not in reap_orphan_planes()
            assert segment_exists(spills.set_id) and segment_exists(blob)
        assert not segment_exists(spills.set_id) and not segment_exists(blob)

    @pytest.mark.parametrize("scope", ["driver", "group"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_driver_leaves_nothing_after_reap(
        self, tmp_path, start_method, scope
    ):
        """SIGKILL a driver while its above-page job blob is published —
        alone (its workers live on) or with its whole process group — and
        reaping leaves no plane, run or blob of it behind."""
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

            def blob_published():
                new = _owned_entries() - before
                return any(n.startswith("psm_") or n.endswith("_job") for n in new)

            assert _wait_for(blob_published)
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

    def test_run_in_another_temp_dir_keeps_its_job_blob(self, tmp_path):
        """A pool run in flight in another process, under another TMPDIR,
        keeps its anchor and job blob when this process reaps."""
        script = tmp_path / "gated.py"
        script.write_text(_GATED_RUN)
        gate = tmp_path / "gate"
        private_tmp = tmp_path / "tmp"
        private_tmp.mkdir()
        proc = subprocess.Popen(
            [sys.executable, str(script), str(gate)],
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(TMPDIR=str(private_tmp)),
            start_new_session=True,
        )
        run = f"orionspill_{proc.pid}_"
        try:

            def in_flight():
                return any(n.endswith("_job") for n in _shm_names(run))

            assert _wait_for(in_flight)
            live = _shm_names(run)
            assert len(live) == 2  # anchor and job blob; workers write nothing
            removed = reap_orphan_planes()
            assert not live & set(removed)
            assert live <= _shm_names(run)
            gate.touch()
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 0
        assert out.strip() == "[(0, 10), (1, 10)]"
        assert _shm_names(run) == set()
