"""Crash-safe cross-process plane lifecycle tests (the lease registry).

Covers the registry's whole contract directly against ``/dev/shm``:
sessions share one plane per database fingerprint, the last *live*
leaseholder's release unlinks every segment, SIGKILLed holders (creator
included, under fork and spawn) leave orphans the reaper reclaims, corrupt
planes are detected — never silently searched — and the search degrades to
the in-process database path with the reason stamped on the result.
"""

import os
import signal
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from repro.core.orion import OrionSearch
from repro.mapreduce import shm as shm_mod
from repro.mapreduce.faults import FaultInjector, FaultSpec
from repro.mapreduce.runtime import WorkerPool
from repro.mapreduce.shm import (
    PLANE_PREFIX,
    PLANE_SLOTS,
    PlaneBusyError,
    PlaneCorruptError,
    PlaneRegistry,
    attach_segment_untracked,
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
    """Every test leaves /dev/shm exactly as it found it."""
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
    from repro.mapreduce.shm import PlaneRegistry
    from repro.sequence.generator import make_database

    db = make_database(101, num_sequences=5, mean_length=400)
    lease = PlaneRegistry.attach_or_create(db, 9)
    print(f"READY {int(lease.created)} {lease.handle.registry_segment}", flush=True)
    line = sys.stdin.readline()  # park until the parent speaks (or kills us)
    if line.strip() == "release":
        lease.release()
        print("RELEASED", flush=True)
    """
)


def _spawn_holder():
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER_SCRIPT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_subprocess_env(),
        start_new_session=True,  # killpg must never reach the test runner
    )
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
                assert second.slot != first.slot
                view = attach_view(second.handle)
                try:
                    rec = next(iter(db))
                    assert np.array_equal(view.codes(rec.seq_id), rec.codes)
                finally:
                    view.close()

    def test_last_release_unlinks_any_order(self, db):
        first = PlaneRegistry.attach_or_create(db, K)
        second = PlaneRegistry.attach_or_create(db, K)
        names = set(first.handle.segment_names) | {first.handle.registry_segment}
        # Creator releases first: attacher keeps the plane alive.
        first.release()
        assert names <= _plane_segments()
        second.release()
        assert not names & _plane_segments()

    def test_release_is_idempotent(self, db):
        lease = PlaneRegistry.attach_or_create(db, K)
        lease.release()
        lease.release()  # no raise, no tracker noise
        assert lease.released

    def test_distinct_parameters_get_distinct_planes(self, db):
        with PlaneRegistry.attach_or_create(db, K) as a:
            with PlaneRegistry.attach_or_create(db, K + 2) as b:
                assert a.digest != b.digest
                assert not set(a.handle.segment_names) & set(b.handle.segment_names)

    def test_reap_skips_planes_with_live_leases(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            assert reap_orphan_planes() == []
            assert shm_mod.segment_exists(lease.handle.registry_segment)

    def test_list_planes_reports_health_and_holders(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            status = {s.digest: s for s in list_planes()}[lease.digest]
            assert status.healthy
            assert status.db_name == db.name
            assert status.k == K
            assert status.generation == 1
            assert os.getpid() in status.live_pids
            assert not status.reapable
            assert status.num_segments == 5  # registry + 4 data segments

    def test_forked_child_release_does_not_clear_parent_slot(self, db):
        lease = PlaneRegistry.attach_or_create(db, K)
        try:
            pid = os.fork()
            if pid == 0:  # child: inherits the lease object, must not own it
                lease.release()
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # The parent's slot survived the child's release: the plane is
            # still held and a fresh attach still shares it.
            with PlaneRegistry.attach_or_create(db, K) as again:
                assert not again.created
        finally:
            lease.release()


# --------------------------------------------------------------------------- #
# integrity verification
# --------------------------------------------------------------------------- #


class TestIntegrity:
    def test_corrupt_data_segment_detected_when_pinned(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            seg = attach_segment_untracked(lease.handle.segment_names[0])
            try:
                seg.buf[:32] = b"\xa5" * 32
            finally:
                seg.close()
            with pytest.raises(PlaneCorruptError, match="checksum"):
                PlaneRegistry.attach_or_create(db, K)

    def test_layout_version_gate(self, db):
        with PlaneRegistry.attach_or_create(db, K) as lease:
            reg = attach_segment_untracked(lease.handle.registry_segment)
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
        seg = attach_segment_untracked(lease.handle.segment_names[0])
        try:
            seg.buf[:32] = b"\xff" * 32
        finally:
            seg.close()
        # Simulate a crashed holder: mark the lease dead without releasing
        # (so the segments survive), and keep the reaper out of the way to
        # force the attach path itself to handle the corrupt orphan.
        digest = lease.digest
        reg = attach_segment_untracked(lease.handle.registry_segment)
        try:
            shm_mod._write_slot(reg, lease.slot, 0, 0, 0)
        finally:
            reg.close()
        lease._released = True  # the slot is gone; plain release would no-op
        shm_mod._LIVE_LEASES.pop(lease.nonce, None)
        monkeypatch.setattr(shm_mod, "reap_orphan_planes", lambda: [])
        with PlaneRegistry.attach_or_create(db, K) as rebuilt:
            assert rebuilt.created
            assert rebuilt.generation == 2
            assert rebuilt.digest == digest

    def test_stale_slot_of_dead_pid_is_reclaimed(self, db, monkeypatch):
        proc, created, _ = _spawn_holder()
        assert created
        _kill_holder(proc)
        monkeypatch.setattr(shm_mod, "reap_orphan_planes", lambda: [])
        with PlaneRegistry.attach_or_create(db, K) as lease:
            assert not lease.created  # healthy plane: attached, not rebuilt
            assert lease.slot == 0  # the dead creator's slot, reclaimed

    def test_slot_exhaustion_raises_busy(self, db):
        lease = PlaneRegistry.attach_or_create(db, K)
        reg = attach_segment_untracked(lease.handle.registry_segment)
        me = os.getpid()
        start = shm_mod.process_start_time(me)
        try:
            for slot in range(PLANE_SLOTS):
                if slot != lease.slot:
                    shm_mod._write_slot(reg, slot, me, start, slot + 2)
            with pytest.raises(PlaneBusyError, match="lease slots"):
                PlaneRegistry.attach_or_create(db, K)
            for slot in range(PLANE_SLOTS):  # hand the slots back
                if slot != lease.slot:
                    shm_mod._write_slot(reg, slot, 0, 0, 0)
        finally:
            reg.close()
        lease.release()

    def test_injected_stale_lease_is_not_counted_live(self, db):
        creator = PlaneRegistry.attach_or_create(db, K)
        inj = FaultInjector(
            specs=(FaultSpec(phase="plane", kind="stale-lease", point="claim"),)
        )
        lease = PlaneRegistry.attach_or_create(db, K, injector=inj)
        assert not lease.created  # the claim point only fires on attach
        names = set(lease.handle.segment_names) | {lease.handle.registry_segment}
        creator.release()
        reg = attach_segment_untracked(lease.handle.registry_segment)
        try:
            # The injector wrote an extra slot: our pid, a wrong start time.
            slots = [
                shm_mod._read_slot(reg, s)
                for s in range(PLANE_SLOTS)
                if shm_mod._read_slot(reg, s)[2] != 0
            ]
            assert len(slots) == 2
            assert shm_mod._live_slot_pids(reg) == [os.getpid()]
        finally:
            reg.close()
        # Pid-reuse defence: despite the poisoned slot naming a live pid,
        # this release is the last *live* lease and must sweep everything.
        lease.release()
        assert not names & _plane_segments()


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
                assert lease.handle.registry_segment == registry_name
        finally:
            _release_holder(proc)
        assert not shm_mod.segment_exists(registry_name)

    def test_sigkilled_holder_leaves_orphan_reaper_reclaims(self, db):
        proc, _, registry_name = _spawn_holder()
        _kill_holder(proc)
        assert shm_mod.segment_exists(registry_name)  # the orphan persists
        removed = reap_orphan_planes()
        assert registry_name in removed
        assert len([n for n in removed if registry_name[:-4] in n]) == 5
        assert not shm_mod.segment_exists(registry_name)
        # A fresh attach_or_create rebuilds a healthy plane.
        with PlaneRegistry.attach_or_create(db, K) as lease:
            assert lease.created
            status = {s.digest: s for s in list_planes()}[lease.digest]
            assert status.healthy

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
        print("READY " + search._shm_handle.registry_segment, flush=True)
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
            assert survivor._shm_handle.registry_segment == registry_name
            assert survivor._plane_mode == "attached"
            _kill_holder(creator)

            res = survivor.run(query)
            assert [str(a) for a in res.alignments] == serial_keys
            assert res.plane_attached == 1
        finally:
            survivor.close()
        # The survivor was the last live leaseholder: its exit swept the
        # plane, dead creator's slot notwithstanding.
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


class TestSearchFallback:
    def test_corrupt_plane_falls_back_with_reason(self, db):
        query, _ = make_query_with_homologies(
            11, 600, db, [HomologySpec(length=120)]
        )
        serial = OrionSearch(db, num_shards=4, executor="serial").run(query)
        inj = FaultInjector(
            specs=(FaultSpec(phase="plane", kind="corrupt-segment", point="attach"),)
        )
        search = OrionSearch(
            db, num_shards=4, executor="processes", num_workers=2,
            fault_injector=inj,
        )
        # A live holder pins the corrupted plane, so the search cannot
        # rebuild it — it must degrade, not fail, and must say why.
        holder = PlaneRegistry.attach_or_create(db, search.params.k)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = search.run(query)
            assert res.plane_fallback == 1
            assert res.plane_created == 0 and res.plane_attached == 0
            assert "PlaneCorruptError" in res.plane_fallback_reason
            assert any("falling back" in str(w.message) for w in caught)
            assert [str(a) for a in res.alignments] == [
                str(a) for a in serial.alignments
            ]
        finally:
            search.close()
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
