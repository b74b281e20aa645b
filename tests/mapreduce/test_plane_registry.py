"""Crash-safe cross-process plane lifecycle tests (the plane registry).

Covers the registry's whole contract directly against ``/dev/shm``:
sessions share one plane per database fingerprint, the last leaseholder's
release unlinks every segment, a lease is a kernel-held ``flock`` that dies
with its holder and never passes to a forked child, SIGKILLed holders
(creator included, under fork and spawn) leave orphans the reaper reclaims,
corrupt planes are detected — never silently searched — and the search
degrades to a serial run in the driver with the reason stamped on the
result.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import warnings
from concurrent import futures

import numpy as np
import pytest

from repro.core.orion import OrionSearch
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import FaultInjector, FaultSpec
from repro.mapreduce.runtime import WorkerPool
from repro.mapreduce.shm import (
    PLANE_PREFIX,
    PlaneCorruptError,
    PlaneRegistry,
    attach_segment,
    attach_view,
    list_planes,
    reap_orphan_planes,
)
from repro.sequence.generator import (
    HomologySpec,
    make_database,
    make_query_with_homologies,
)

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


def _plane_segments():
    """Names of live registry-managed plane segments."""
    return _shm_names(PLANE_PREFIX)


@pytest.fixture
def db():
    return make_database(101, num_sequences=5, mean_length=400)


@pytest.fixture(autouse=True)
def _no_leaked_planes():
    """Every test leaves /dev/shm as it found it."""
    before = _plane_segments()
    yield
    leaked = _plane_segments() - before
    if leaked:  # clean up, then fail loudly
        reap_orphan_planes()
    assert not leaked, f"test leaked plane segments: {sorted(leaked)}"


def _subprocess_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(shm_mod.__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


#: A child process that leases the shared plane for the fixture database,
#: reports its registry segment, then parks until told to exit (or killed).
_HOLDER_SCRIPT = textwrap.dedent(
    """\
    import os, sys
    from repro.mapreduce.shm import PlaneRegistry, _registry_name
    from repro.sequence.generator import make_database

    db = make_database(101, num_sequences=5, mean_length=400)
    lease = PlaneRegistry.attach_or_create(db, 9)
    print(f"READY {int(lease.created)} {_registry_name(lease.digest)}", flush=True)
    line = sys.stdin.readline()  # park until the parent speaks (or kills us)
    if line.strip() == "release":
        lease.release()
        print("RELEASED", flush=True)
    """
)


#: The same holder, but paused at the plane's ``publish`` fault point — data
#: segments written, registry not yet — until the parent says go.
_PAUSED_PUBLISHER = _HOLDER_SCRIPT.replace(
    "lease = PlaneRegistry.attach_or_create(db, 9)",
    textwrap.dedent(
        """\
        class PauseAtPublish:
            def fire_plane(self, point):
                if point == "publish":
                    print("PAUSED", flush=True)
                    sys.stdin.readline()

        lease = PlaneRegistry.attach_or_create(db, 9, injector=PauseAtPublish())"""
    ),
)


def _start(script, **env):
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**_subprocess_env(), **env},
        start_new_session=True,  # killpg must never reach the test runner
    )


def _spawn_holder(**env):
    proc = _start(_HOLDER_SCRIPT, **env)
    ready = proc.stdout.readline().split()
    assert ready[0] == "READY", ready
    return proc, bool(int(ready[1])), ready[2]


def _kill_holder(proc):
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()


def _release_holder(proc):
    proc.stdin.write("release\n")
    proc.stdin.flush()
    assert proc.stdout.readline().strip() == "RELEASED"
    proc.stdin.close()
    proc.stdout.close()
    proc.wait()


# --------------------------------------------------------------------------- #
# in-process lifecycle
# --------------------------------------------------------------------------- #


class TestLeaseLifecycle:
    def test_attach_shares_created_segments(self, db):
        with PlaneRegistry.attach_or_create(db, K) as first:
            assert first.created
            with PlaneRegistry.attach_or_create(db, K) as second:
                assert not second.created
                assert second.handle.segment_names == first.handle.segment_names
                view = attach_view(second.handle)
                try:
                    rec = next(iter(db))
                    assert np.array_equal(view.codes(rec.seq_id), rec.codes)
                finally:
                    view.close()

    def test_last_release_unlinks_any_order(self, db):
        first = PlaneRegistry.attach_or_create(db, K)
        second = PlaneRegistry.attach_or_create(db, K)
        names = set(first.handle.segment_names) | {shm_mod._registry_name(first.digest)}
        # Creator releases first: attacher keeps the plane alive.
        first.release()
        assert names <= _plane_segments()
        second.release()
        assert not names & _plane_segments()

    def test_two_leases_in_one_process_are_two_holders(self, db):
        """flock locks belong to open file descriptions, so two leases in
        one process conflict like two processes: dropping one is not last."""
        first = PlaneRegistry.attach_or_create(db, K)
        second = PlaneRegistry.attach_or_create(db, K)
        names = set(first.handle.segment_names) | {shm_mod._registry_name(first.digest)}
        # The attacher releases first this time; the creator still holds.
        second.release()
        assert names <= _plane_segments()
        assert {s.digest: s for s in list_planes()}[first.digest].held
        first.release()
        assert not names & _plane_segments()

    def test_release_is_idempotent(self, db):
        lease = PlaneRegistry.attach_or_create(db, K)
        lease.release()
        lease.release()  # no raise, no tracker noise
        assert lease._released

    def test_distinct_parameters_get_distinct_planes(self, db):
        with PlaneRegistry.attach_or_create(db, K) as a:
            with PlaneRegistry.attach_or_create(db, K + 2) as b:
                assert a.digest != b.digest
                assert not set(a.handle.segment_names) & set(b.handle.segment_names)

    def test_reap_skips_planes_with_live_leases(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            assert reap_orphan_planes() == []
            assert shm_mod.segment_exists(shm_mod._registry_name(lease.digest))

    def test_list_planes_reports_health_and_holders(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            status = {s.digest: s for s in list_planes()}[lease.digest]
            assert status.healthy
            assert status.db_name == db.name
            assert status.k == K
            assert status.generation == 1
            assert status.held
            assert status.num_segments == 4  # registry + 3 data segments

    def test_forked_child_does_not_pin_the_plane(self, db):
        """A forked child shares the lease's open file description; the
        at-fork hook closes the child's copy, so the parent's release is
        still the last one while the child lives on."""
        lease = PlaneRegistry.attach_or_create(db, K)
        names = set(lease.handle.segment_names) | {shm_mod._registry_name(lease.digest)}
        started_r, started_w = os.pipe()
        exit_r, exit_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: inherits the lease object and its fd
            try:
                os.write(started_w, b"started")
                os.read(exit_r, 1)  # stay alive until the parent is done
                lease.release()  # not the child's lease: a no-op
            finally:
                os._exit(0)
        try:
            assert os.read(started_r, 16) == b"started"
            lease.release()
            assert not names & _plane_segments()
        finally:
            os.write(exit_w, b"x")
            _, status = os.waitpid(pid, 0)
            for fd in (started_r, started_w, exit_r, exit_w):
                os.close(fd)
        assert os.waitstatus_to_exitcode(status) == 0


# --------------------------------------------------------------------------- #
# integrity verification
# --------------------------------------------------------------------------- #


class TestIntegrity:
    def test_corrupt_data_segment_detected_when_pinned(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            seg = attach_segment(lease.handle.segment_names[0])
            try:
                seg.buf[:32] = b"\xa5" * 32
            finally:
                seg.close()
            with pytest.raises(PlaneCorruptError, match="checksum"):
                PlaneRegistry.attach_or_create(db, K)

    def test_layout_version_gate(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            reg = attach_segment(shm_mod._registry_name(lease.digest))
            try:
                reg.buf[8:12] = (999).to_bytes(4, "little")  # layout_version
            finally:
                reg.close()
            with pytest.raises(PlaneCorruptError, match="layout version"):
                PlaneRegistry.attach_or_create(db, K)

    def test_corrupt_unheld_plane_is_rebuilt_with_bumped_generation(
        self, db, monkeypatch
    ):
        lease = PlaneRegistry.attach_or_create(db, K)
        seg = attach_segment(lease.handle.segment_names[0])
        try:
            seg.buf[:32] = b"\xff" * 32
        finally:
            seg.close()
        # Simulate a crashed holder: drop the lock without the last-holder
        # sweep (so the segments survive), and keep the reaper out of the
        # way to force the attach path itself to handle the corrupt orphan.
        digest = lease.digest
        lease._abandon()
        monkeypatch.setattr(shm_mod, "_reap_locked", lambda: [])
        with PlaneRegistry.attach_or_create(db, K) as rebuilt:
            assert rebuilt.created
            assert rebuilt.generation == 2
            assert rebuilt.digest == digest


# --------------------------------------------------------------------------- #
# cross-process sharing + crash recovery
# --------------------------------------------------------------------------- #


class TestCrossProcess:
    def test_two_sessions_share_one_plane(self, db):
        proc, created, registry_name = _spawn_holder()
        assert created
        try:
            with PlaneRegistry.attach_or_create(db, K) as lease:
                assert not lease.created
                assert shm_mod._registry_name(lease.digest) == registry_name
        finally:
            _release_holder(proc)
        assert not shm_mod.segment_exists(registry_name)

    def test_sigkilled_holder_leaves_orphan_reaper_reclaims(self, db):
        proc, _, registry_name = _spawn_holder()
        _kill_holder(proc)
        assert shm_mod.segment_exists(registry_name)  # the orphan persists
        removed = reap_orphan_planes()
        assert registry_name in removed
        assert len([n for n in removed if registry_name[:-4] in n]) == 4  # 3 data + registry
        assert not shm_mod.segment_exists(registry_name)
        # A fresh attach_or_create rebuilds a healthy plane.
        with PlaneRegistry.attach_or_create(db, K) as lease:
            assert lease.created
            status = {s.digest: s for s in list_planes()}[lease.digest]
            assert status.healthy

    def test_list_planes_sees_a_sigkilled_holder_go(self, db):
        proc, _, registry_name = _spawn_holder()
        digest = registry_name[len(PLANE_PREFIX) : -len("_reg")]
        try:
            assert {s.digest: s for s in list_planes()}[digest].held
        finally:
            _kill_holder(proc)
        assert not {s.digest: s for s in list_planes()}[digest].held
        assert registry_name in reap_orphan_planes()

    def test_holder_with_another_temp_dir_is_seen_held(self, db, tmp_path):
        """Leases live on the registry segment in /dev/shm, not in a
        per-process temp directory, so a holder whose TMPDIR differs from
        ours still pins its plane against our reaper."""
        proc, _, registry_name = _spawn_holder(TMPDIR=str(tmp_path))
        digest = registry_name[len(PLANE_PREFIX) : -len("_reg")]
        try:
            assert registry_name not in reap_orphan_planes()
            assert shm_mod.segment_exists(registry_name)
            assert {s.digest: s for s in list_planes()}[digest].held
        finally:
            _release_holder(proc)
        assert not shm_mod.segment_exists(registry_name)

    def test_publisher_with_another_temp_dir_keeps_its_half_published_plane(
        self, tmp_path
    ):
        """The plane mutex is machine-wide, not per TMPDIR: our reaper
        waits for a publisher under another temp directory, paused between
        writing its data segments and its registry, instead of sweeping
        the half-published plane."""
        before = _plane_segments()
        proc = _start(_PAUSED_PUBLISHER, TMPDIR=str(tmp_path))
        try:
            assert proc.stdout.readline().strip() == "PAUSED"
            half = _plane_segments() - before
            assert half and not any(n.endswith("_reg") for n in half)
            with futures.ThreadPoolExecutor(max_workers=1) as pool:
                reap = pool.submit(reap_orphan_planes)
                done, _ = futures.wait([reap], timeout=0.5)
                assert not done, "the reaper must wait for the publisher"
                assert half <= _plane_segments()
                proc.stdin.write("go\n")
                proc.stdin.flush()
                ready = proc.stdout.readline().split()
                assert ready[:2] == ["READY", "1"], ready
                assert not half & set(reap.result(timeout=60))
            assert half <= _plane_segments()
        except BaseException:
            _kill_holder(proc)
            raise
        _release_holder(proc)
        assert not half & _plane_segments()

    def test_racing_attachers_create_exactly_once(self, db):
        procs = [_spawn_holder() for _ in range(3)]
        try:
            created_flags = [created for _, created, _ in procs]
            registries = {name for _, _, name in procs}
            assert sum(created_flags) == 1
            assert len(registries) == 1
        finally:
            for proc, _, _ in procs:
                _release_holder(proc)
        assert not shm_mod.segment_exists(next(iter(registries)))


def _search_script(start_method):
    return textwrap.dedent(
        f"""\
        import sys
        from repro.core.orion import OrionSearch
        from repro.mapreduce.runtime import WorkerPool
        from repro.mapreduce.shm import _registry_name
        from repro.sequence.generator import (
            HomologySpec, make_database, make_query_with_homologies,
        )

        db = make_database(7, num_sequences=5, mean_length=400)
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        search = OrionSearch(
            db, num_shards=4,
            executor=WorkerPool(max_workers=2, start_method={start_method!r}),
        )
        search.warmup()  # plane published, workers forked/spawned
        print("READY " + _registry_name(search._lease.digest), flush=True)
        res = search.run(query)  # the parent SIGKILLs us in here
        print("DONE", flush=True)
        sys.stdin.readline()
        """
    )


class TestCreatorCrashMatrix:
    """SIGKILL the plane-creating process mid-search, under fork and spawn.

    The acceptance matrix: the survivor (this test process) keeps searching
    with byte-identical results, and once the survivor releases — or a reap
    runs — ``/dev/shm`` is empty again. The killed creator leaves no job
    blob behind either: its sub-page job rides inline in the task items.
    """

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_survivor_searches_then_cleanup_empties_shm(self, start_method):
        db = make_database(7, num_sequences=5, mean_length=400)
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        serial = OrionSearch(db, num_shards=4, executor="serial").run(query)
        serial_keys = [str(a) for a in serial.alignments]
        blobs_before = _shm_names("psm_")
        semaphores_before = _shm_names("sem.mp-")

        creator = subprocess.Popen(
            [sys.executable, "-c", _search_script(start_method)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
            start_new_session=True,
        )
        ready = creator.stdout.readline().split()
        assert ready[0] == "READY", ready
        registry_name = ready[1]

        # Attach as the survivor while the creator is alive and mid-search,
        # then SIGKILL the creator's whole process group (workers included).
        survivor = OrionSearch(
            db, num_shards=4,
            executor=WorkerPool(max_workers=2, start_method=start_method),
        )
        try:
            survivor._ensure_plane()
            assert shm_mod._registry_name(survivor._lease.digest) == registry_name
            assert survivor._plane_mode == "attached"
            _kill_holder(creator)
            # A spawn-method pool names its queue semaphores in /dev/shm and
            # leaves the unlink to its resource tracker, which died in the
            # same process group: the only new ones are the creator's.
            for name in _shm_names("sem.mp-") - semaphores_before:
                os.unlink(os.path.join("/dev/shm", name))

            res = survivor.run(query)
            assert [str(a) for a in res.alignments] == serial_keys
            assert res.plane_attached == 1
        finally:
            survivor.close()
        # The survivor was the last leaseholder: the kernel dropped the dead
        # creator's lock, so the survivor's close swept the plane.
        assert not shm_mod.segment_exists(registry_name)
        assert _shm_names("psm_") - blobs_before == set()

    def test_crash_before_registry_publish_is_reaped(self, db):
        """A creator killed between publishing data segments and writing the
        registry leaves nameless orphans only the /dev/shm scan can find."""
        script = textwrap.dedent(
            """\
            from repro.mapreduce.faults import FaultInjector, FaultSpec
            from repro.mapreduce.shm import PlaneRegistry
            from repro.sequence.generator import make_database

            db = make_database(101, num_sequences=5, mean_length=400)
            inj = FaultInjector(
                specs=(FaultSpec(phase="plane", kind="crash", point="publish"),)
            )
            PlaneRegistry.attach_or_create(db, 9, injector=inj)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.returncode == 13  # the injected os._exit
        orphans = {
            n for n in _plane_segments() if not n.endswith("_reg")
        }
        assert orphans  # data segments exist...
        assert not any(n.endswith("_reg") for n in _plane_segments())
        removed = reap_orphan_planes()  # ...and the scan-based reap finds them
        assert set(removed) >= orphans
        assert not _plane_segments()


# --------------------------------------------------------------------------- #
# search-level degradation
# --------------------------------------------------------------------------- #


def _corrupt_attach_search(db):
    """A process-backed search whose every plane attach sees corruption."""
    inj = FaultInjector(
        specs=(FaultSpec(phase="plane", kind="corrupt-segment", point="attach"),)
    )
    return OrionSearch(
        db, num_shards=4, executor="processes", num_workers=2,
        fault_injector=inj,
    )


class TestSearchFallback:
    def test_corrupt_plane_falls_back_with_reason(self, db):
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        serial = OrionSearch(db, num_shards=4, executor="serial").run(query)
        search = _corrupt_attach_search(db)
        # A live holder pins the corrupted plane, so the search cannot
        # rebuild it — it must degrade to a serial run in the driver, not
        # fail, and must say why.
        holder = PlaneRegistry.attach_or_create(db, search.params.k)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = search.run(query)
            assert res.plane_fallback == 1
            assert res.plane_created == 0 and res.plane_attached == 0
            assert "PlaneCorruptError" in res.plane_fallback_reason
            assert any("falling back" in str(w.message) for w in caught)
            assert res.executor_kind == "serial"
            # Only records the serial executor produced are simulator-safe.
            assert res.simulator_safe
            assert all(r.simulator_safe for r in res.map_records)
            assert pickle.dumps(res.alignments) == pickle.dumps(serial.alignments)
            assert search.executor.started is False  # the pool never ran
        finally:
            search.close()
            holder.release()

    def test_close_retries_the_lease(self, db):
        """A fallback is sticky until ``close``; the run after it leases
        again — degrading again while the corrupt plane is pinned, and
        publishing a fresh plane once it is not."""
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        search = _corrupt_attach_search(db)
        holder = PlaneRegistry.attach_or_create(db, search.params.k)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert search.run(query).plane_fallback == 1
                search.close()
                again = search.run(query)
            assert again.plane_fallback == 1
            assert "PlaneCorruptError" in again.plane_fallback_reason
            search.close()
            holder.release()
            holder = None
            fresh = search.run(query)
            assert fresh.plane_created == 1 and fresh.plane_fallback == 0
            assert fresh.executor_kind == "processes"
        finally:
            search.close()
            if holder is not None:
                holder.release()

    def test_fresh_plane_stamps_created(self, db):
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        with OrionSearch(
            db, num_shards=4, executor="processes", num_workers=2
        ) as search:
            res = search.run(query)
            assert res.plane_created == 1
            assert res.plane_attached == 0 and res.plane_fallback == 0
            assert res.plane_fallback_reason is None
