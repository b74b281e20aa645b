"""Zero-copy shared-memory data plane for process workers.

Pickling the database into the job would ship a private copy to *every*
:class:`~repro.mapreduce.runtime.WorkerPool` worker, so per-worker warmup
memory and time would scale with ``num_workers`` — exactly the overhead the
paper's fine-grained design must keep small (Section V). This module places the database's 2-bit sequence
codes and its per-sequence sorted k-mer arrays into shared-memory
segments: one copy per machine, with workers attaching zero-copy NumPy
views instead of unpickling a private copy. The same segments carry each
pool run's above-page job blob.

Segments
--------
A segment is a plain file in ``/dev/shm`` (Linux tmpfs) that this module
opens, ``mmap``s or ``pread``s, and unlinks itself: :func:`create_segment`,
:func:`attach_segment`, :func:`write_segment`, :func:`read_segment`,
:func:`sweep_segment`. Without a usable ``/dev/shm`` a plane lease
raises and the search runs serially in the driver; a pool run's job blob,
whose write raises ``OSError``, rides inline in the task messages.

One owner rule
--------------
Every segment has an owner file whose ``flock`` a live process holds, and
one reaper, :func:`reap_orphan_planes`, unlinks whatever no lock holds. The
kernel drops a lock when its holder dies, SIGKILL included, so a crashed
owner never pins its segments and a recycled pid cannot impersonate one.
There are two kinds of owner:

* A **plane**'s owner is its registry segment ``orionplane_<digest>_reg``;
  every :class:`PlaneLease` is a shared ``flock`` on it. The last lease to
  release unlinks the plane.
* A **pool run**'s owner is its anchor ``orionspill_<pid>_<token>_<n>``,
  which :class:`SpillSet` creates and share-locks for the run's lifetime;
  the run's job blob is named under it and unlinked with it. Only the
  driver makes segments: pool workers read the job blob and the plane,
  and return their map output through the result pipe.

The reaper runs at plane creation, ``OrionService.start`` and the ``plane
reap`` CLI. Plane create, attach, release and reaping serialize on one
machine-wide mutex, an exclusive ``flock`` on the ``/dev/shm`` directory
itself, so processes with different ``TMPDIR``s serialize too. A forked
child closes every inherited lock fd at fork, so pool workers never pin
the driver's plane or run.

Lifecycle of a plane
--------------------
:class:`PlaneRegistry` is the one way to get a plane.
:meth:`PlaneRegistry.attach_or_create` names the plane's segments after a
digest of the database fingerprint, word size and layout version, so
every session on a machine that searches the same database
meets at the same segments — several service replicas, a benchmark and a
notebook share one copy. The first caller publishes; the rest verify
(layout version gate, per-segment size checks, a checksum over the handle
blob and every segment's head) and attach, or get a typed
:class:`PlaneCorruptError` so their search can run serially in the driver.
Every caller gets a :class:`PlaneLease`. *Workers* attach through
:func:`attach_view` (or the per-process-cached :func:`attach_cached_view`)
and get a :class:`SharedDatabaseView`, whose arrays alias the shared
buffers.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import mmap
import os
import pickle
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # import would be cycle-free but is kept lazy at runtime
    from repro.mpiblast.formatdb import DatabaseShard
    from repro.sequence.records import Database

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Where segments live as plain files (Linux tmpfs).
_SHM_DIR = "/dev/shm"

#: Whether this platform has a ``/dev/shm`` to put segments in.
HAVE_SHARED_MEMORY = fcntl is not None and os.path.isdir(_SHM_DIR)


class SharedMemoryUnavailable(RuntimeError):
    """Raised when shared-memory segments cannot be used on this platform."""


def _require_shm() -> None:
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform without shm
        raise SharedMemoryUnavailable(f"{_SHM_DIR} is unavailable on this platform")


# --------------------------------------------------------------------------- #
# segment primitives
# --------------------------------------------------------------------------- #


def _path(name: str) -> str:
    return os.path.join(_SHM_DIR, name)


class Segment:
    """One segment file mapped read-write into this process.

    ``buf`` is a memoryview of the mapping. :meth:`close` unmaps; it raises
    ``BufferError`` while NumPy arrays still alias ``buf``. Unlinking the
    file is its owner's business (:func:`sweep_segment`).
    """

    def __init__(self, name: str, size: Optional[int] = None) -> None:
        """Map segment ``name``; with ``size``, create it exclusively first."""
        flags = os.O_RDWR | os.O_CLOEXEC
        if size is not None:
            flags |= os.O_CREAT | os.O_EXCL
        fd = os.open(_path(name), flags, 0o600)
        try:
            if size is not None:
                os.ftruncate(fd, max(1, size))
            self._mmap = mmap.mmap(fd, 0)
        except BaseException:
            if size is not None:
                os.unlink(_path(name))
            raise
        finally:
            os.close(fd)  # the mapping keeps its own reference
        self.name = name
        self.size = len(self._mmap)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap (idempotent); the file stays until someone unlinks it."""
        self.buf.release()
        self._mmap.close()


def create_segment(name: str, size: int) -> Segment:
    """Create segment ``name`` of ``size`` bytes (min 1) and map it.

    ``FileExistsError`` if the name is taken. The caller owns the paired
    :func:`destroy_segment` on its failure paths.
    """
    return Segment(name, size)


def attach_segment(name: str) -> Segment:
    """Map an existing segment; the caller owns the paired ``close()``."""
    return Segment(name)


def write_segment(name: str, chunks: Iterable[bytes]) -> None:
    """Create segment ``name`` holding ``chunks`` back to back.

    ``FileExistsError`` if the name is taken. A failed write (``ENOSPC`` on
    a full ``/dev/shm``) unlinks the partial file before re-raising, so the
    caller can degrade to inline bytes with nothing left behind.
    """
    fd = os.open(_path(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY | os.O_CLOEXEC, 0o600)
    ok = False
    try:
        for chunk in chunks:
            view = memoryview(chunk)
            while view:
                view = view[os.write(fd, view) :]
        ok = True
    finally:
        os.close(fd)
        if not ok:
            sweep_segment(name)


def read_segment(name: str, start: int = 0, length: Optional[int] = None) -> bytes:
    """Copy ``length`` bytes at ``start`` out of segment ``name``.

    ``length=None`` reads to the end.
    """
    fd = os.open(_path(name), os.O_RDONLY | os.O_CLOEXEC)
    try:
        if length is None:
            length = os.fstat(fd).st_size - start
        return os.pread(fd, length, start)
    finally:
        os.close(fd)


def sweep_segment(name: str) -> bool:
    """Unlink segment ``name`` if it exists; ``True`` when one was removed.

    Idempotent by design, so cleanup paths can sweep every name they
    *might* have caused to exist.
    """
    try:
        os.unlink(_path(name))
    except FileNotFoundError:
        return False
    return True


def destroy_segment(seg: Segment) -> None:
    """Close and unlink a segment this process created (idempotent)."""
    try:
        seg.close()
    except BufferError:  # orionlint: disable=ORL006
        # Live NumPy views still alias the buffer; the mapping stays until
        # they die, but the name must still vanish from /dev/shm below.
        pass
    sweep_segment(seg.name)


def segment_exists(name: str) -> bool:
    """Whether a segment with ``name`` is currently linked (test/leak probe)."""
    return os.path.exists(_path(name))


# --------------------------------------------------------------------------- #
# owners: lock fds, the machine mutex, the reaper
# --------------------------------------------------------------------------- #

#: Every fd of this process whose ``flock`` carries ownership (leases, run
#: anchors, the machine mutex, a reaper's probe). ``flock`` belongs to the
#: open file description, which ``fork`` shares, so a forked child must
#: close its copies or it would keep the parent's locks held.
_LOCK_FDS: Set[int] = set()

#: Held across opening a lock fd and recording it, and across ``fork``, so
#: a child never inherits a lock fd it does not know to close.
_FORK_GUARD = threading.Lock()


def _open_lock_fd(path: str, flags: int = os.O_RDONLY) -> int:
    """Open a file whose ``flock`` will carry ownership (see :data:`_LOCK_FDS`)."""
    with _FORK_GUARD:
        fd = os.open(path, flags | os.O_CLOEXEC, 0o600)
        _LOCK_FDS.add(fd)
    return fd


def _close_lock_fd(fd: int) -> None:
    _LOCK_FDS.discard(fd)
    os.close(fd)


@contextmanager
def _machine_lock() -> Iterator[None]:
    """The machine-wide mutex: plane create/attach/release and reaping.

    An exclusive ``flock`` on the ``/dev/shm`` directory itself. Every
    process on the machine meets at it whatever its ``TMPDIR``, and it
    creates no file. Racing attachers serialize (one creates, the rest
    attach), a reaper never sweeps a plane mid-publish, and taking a lease
    never races the last-holder test. Never nest it: a second ``flock``
    from this process on a fresh fd waits on the first forever.
    """
    fd = _open_lock_fd(_SHM_DIR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        _close_lock_fd(fd)  # closing the fd releases the flock


def _owner_held(owner: str) -> bool:
    """Whether a live process holds owner file ``owner``'s lock (a probe).

    An exclusive non-blocking ``flock`` succeeds only when no shared lock
    is left. A missing owner file holds nothing (a half-published plane or
    run); so does one this user cannot open (its sweep then fails and
    skips it).
    """
    try:
        fd = _open_lock_fd(_path(owner))
    except OSError:
        return False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return True
    finally:
        _close_lock_fd(fd)
    return False


def _sweep_unowned(owner: str, names: Iterable[str]) -> List[str]:
    """Unlink ``names`` unless owner file ``owner`` is held; the names removed.

    The owner's exclusive lock is held across the sweep and the owner file
    goes last, so an owner that locks a fresh anchor meanwhile finds it
    unlinked and starts over (:func:`_create_anchor`). A missing owner file
    holds nothing; one this user cannot open is not ours to judge.
    """
    fd: Optional[int]
    try:
        fd = _open_lock_fd(_path(owner))
    except FileNotFoundError:
        fd = None
    except OSError:
        return []
    try:
        if fd is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return []
        ordered = sorted(names, key=lambda name: name == owner)
        return [name for name in ordered if sweep_segment(name)]
    finally:
        if fd is not None:
            _close_lock_fd(fd)


def _owner_of(entry: str) -> Optional[str]:
    """The owner file whose lock keeps ``/dev/shm`` entry ``entry`` alive."""
    if entry.startswith(PLANE_PREFIX):
        return _registry_name(entry[len(PLANE_PREFIX) :].split("_", 1)[0])
    if entry.startswith(SPILL_PREFIX):
        return "_".join(entry.split("_", 4)[:4])
    return None  # not this program's


def _owned_entries() -> Dict[str, List[str]]:
    """This program's ``/dev/shm`` entries, grouped by owner file."""
    groups: Dict[str, List[str]] = {}
    for entry in sorted(os.listdir(_SHM_DIR)):
        owner = _owner_of(entry)
        if owner is not None:
            groups.setdefault(owner, []).append(entry)
    return groups


def reap_orphan_planes() -> List[str]:
    """Sweep every plane and pool run no lock holds; the names reclaimed.

    The crash backstop: a SIGKILLed last holder never runs its release,
    so its segments persist until someone sweeps them. Wired into plane
    creation, ``OrionService.start`` and ``python -m repro plane reap``. A
    held plane is never swept, corrupt or not, and neither is a live run.
    """
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform without shm
        return []
    with _machine_lock():
        return _reap_locked()


def _reap_locked() -> List[str]:
    """:func:`reap_orphan_planes` for a caller already holding the mutex."""
    removed: List[str] = []
    for owner, names in _owned_entries().items():
        removed.extend(_sweep_unowned(owner, names))
    return removed


# --------------------------------------------------------------------------- #
# pool runs: the job blob
# --------------------------------------------------------------------------- #

#: Every pool run's anchor and job blob name starts with this.
SPILL_PREFIX = "orionspill_"

#: Runs opened (and not yet released) by this process; drained by the
#: atexit hook below so an abandoned run never outlives the interpreter —
#: the same discipline as ``_LIVE_LEASES``.
_LIVE_SPILL_SETS: Dict[str, "SpillSet"] = {}
_SPILL_COUNTER = itertools.count()


def _cleanup_live_spill_sets() -> None:
    # Release order is immaterial (sets are independent); the list() only
    # guards against mutation while iterating.
    for spill_set in list(_LIVE_SPILL_SETS.values()):  # orionlint: disable=ORL004
        spill_set.release()


atexit.register(_cleanup_live_spill_sets)


def _create_anchor() -> Tuple[str, int]:
    """Create and share-lock a fresh run anchor; its name and lock fd.

    The name carries the pid, a random token and a per-process counter.
    The token keeps names apart across PID namespaces that share one
    ``/dev/shm`` (two containers of a pod, each driver PID 1). A reaper
    that judged the fresh anchor unheld before our lock landed has unlinked
    it (holding its exclusive lock until then), so after locking, the
    locked inode must still be linked — nobody renames an anchor, so then
    the path still names it; otherwise start over under a new name.
    """
    while True:
        set_id = f"{SPILL_PREFIX}{os.getpid()}_{os.urandom(4).hex()}_{next(_SPILL_COUNTER)}"
        fd = _open_lock_fd(_path(set_id), os.O_CREAT | os.O_EXCL | os.O_RDONLY)
        ok = False
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            ok = os.fstat(fd).st_nlink > 0
        finally:
            if not ok:
                _close_lock_fd(fd)
        if ok:
            return set_id, fd


class SpillSet:
    """The owner of one pool run's segments: its anchor and its job blob.

    Creating the set creates the run's anchor (:func:`_create_anchor`) and
    holds a shared ``flock`` on it until :meth:`release`. The job blob is
    named ``{set_id}_job`` under the anchor (:meth:`publish_job`), so
    whatever kills the driver, :func:`reap_orphan_planes` sweeps the whole
    run once the lock is free. :meth:`release` sweeps the blob, then the
    anchor. Until released, the set sits in a module registry drained at
    interpreter exit.
    """

    def __init__(self) -> None:
        self.set_id, self._fd = _create_anchor()
        self._released = False
        _LIVE_SPILL_SETS[self.set_id] = self

    def publish_job(self, data: bytes) -> str:
        """Write the run's job blob under the anchor; its segment name."""
        name = f"{self.set_id}_job"
        write_segment(name, (data,))
        return name

    def _abandon(self) -> None:
        """Close the anchor's lock fd without sweeping (a forked child's copy)."""
        if self._released:
            return
        self._released = True
        _LIVE_SPILL_SETS.pop(self.set_id, None)
        _close_lock_fd(self._fd)

    def release(self) -> None:
        """Sweep the job blob, then the anchor (idempotent)."""
        if self._released:
            return
        sweep_segment(f"{self.set_id}_job")
        sweep_segment(self.set_id)
        self._abandon()

    def __enter__(self) -> "SpillSet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# --------------------------------------------------------------------------- #
# the database plane
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SharedDatabaseHandle:
    """Picklable description of one shared database plane.

    Workers receive this (the segment names, the id and description
    strings and two offset tables) instead of the pickled database, and
    attach with :func:`attach_view`. Offsets are half-open prefix sums:
    sequence ``i``'s codes live at
    ``codes[codes_offsets[i]:codes_offsets[i+1]]`` and its sorted k-mer
    keys/positions at ``kmer_offsets[i]:kmer_offsets[i+1]`` of the two
    k-mer segments.
    """

    plane_id: str
    db_name: str
    k: int
    seq_ids: Tuple[str, ...]
    descriptions: Tuple[str, ...]
    codes_segment: str
    codes_offsets: Tuple[int, ...]
    kmer_keys_segment: str
    kmer_positions_segment: str
    kmer_offsets: Tuple[int, ...]

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return (self.codes_segment, self.kmer_keys_segment, self.kmer_positions_segment)

    @property
    def total_codes(self) -> int:
        return self.codes_offsets[-1]

    @property
    def total_kmers(self) -> int:
        return self.kmer_offsets[-1]


class SharedDatabaseView:
    """Zero-copy view of a shared database plane.

    ``database()`` rebuilds a :class:`~repro.sequence.records.Database`
    whose record ``codes`` are read-only NumPy views into the shared codes
    segment; ``sorted_kmers``/``kmer_cache_for`` expose the pre-built
    per-sequence sorted k-mer indexes the same way. The view keeps its
    segments attached for as long as it lives (workers keep one per plane
    for their whole lifetime); :meth:`close` detaches explicitly.
    """

    def __init__(
        self,
        handle: SharedDatabaseHandle,
        segments: Sequence[Segment],
    ) -> None:
        self.handle = handle
        self._segments = list(segments)
        codes_seg, keys_seg, pos_seg = self._segments
        self._codes = _wrap_array(codes_seg, np.uint8, handle.total_codes)
        self._keys = _wrap_array(keys_seg, np.int64, handle.total_kmers)
        self._positions = _wrap_array(pos_seg, np.int64, handle.total_kmers)
        self._index = {seq_id: i for i, seq_id in enumerate(handle.seq_ids)}
        self._database: Optional["Database"] = None
        self._closed = False

    # -- zero-copy accessors ------------------------------------------- #

    def codes(self, seq_id: str) -> np.ndarray:
        """The 2-bit code array of one sequence (read-only view)."""
        i = self._index[seq_id]
        off = self.handle.codes_offsets
        return self._codes[off[i] : off[i + 1]]

    def sorted_kmers(self, seq_id: str) -> Tuple[np.ndarray, np.ndarray]:
        """One sequence's sorted (keys, positions) k-mer index (views)."""
        i = self._index[seq_id]
        off = self.handle.kmer_offsets
        return (
            self._keys[off[i] : off[i + 1]],
            self._positions[off[i] : off[i + 1]],
        )

    def kmer_cache_for(
        self, seq_ids: Sequence[str]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """A subject k-mer cache dict covering only ``seq_ids`` (views).

        This is the shard-scoped building block: a worker calls it per
        database shard its map tasks actually touch, paying a handful of
        array slices instead of a full per-worker index rebuild.
        """
        return {seq_id: self.sorted_kmers(seq_id) for seq_id in seq_ids}

    def database(self) -> "Database":
        """The full database, rebuilt from shared codes (records are views)."""
        if self._database is None:
            from repro.sequence.records import Database, SequenceRecord

            records = [
                SequenceRecord(
                    seq_id=seq_id,
                    codes=self.codes(seq_id),
                    description=self.handle.descriptions[i],
                )
                for i, seq_id in enumerate(self.handle.seq_ids)
            ]
            self._database = Database(records, name=self.handle.db_name)
        return self._database

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Detach from the segments (the creator still owns unlinking)."""
        if self._closed:
            return
        self._closed = True
        self._database = None
        self._codes = self._keys = self._positions = np.empty(0, dtype=np.uint8)
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # orionlint: disable=ORL006
                # A caller still holds array views; their mapping stays
                # valid and dies with the process — nothing to unlink here.
                pass
        self._segments = []


def _wrap_array(seg: Segment, dtype: type, length: int) -> np.ndarray:
    arr: np.ndarray = np.ndarray((length,), dtype=dtype, buffer=seg.buf)
    arr.setflags(write=False)
    return arr


def _prefix_sums(sizes: Iterable[int]) -> Tuple[int, ...]:
    out = [0]
    for size in sizes:
        out.append(out[-1] + int(size))
    return tuple(out)


def _publish_database_segments(
    database: "Database", k: int, digest: str, generation: int
) -> Tuple[SharedDatabaseHandle, List[Segment]]:
    """Build one plane's data segments and its handle.

    Two passes keep peak extra memory at one sequence's index, not the
    whole database's: valid k-mer counts first size the segments exactly,
    then each sequence's sorted index is built straight into its slice of
    the shared buffers (:func:`repro.blast.lookup.sorted_kmers_into`).
    Segment names derive from
    ``digest`` so independent sessions meet at the same segments. On any
    failure every created segment is destroyed before re-raising.
    """
    from repro.blast.lookup import count_valid_kmers, sorted_kmers_into

    names = {
        kind: f"{PLANE_PREFIX}{digest}_{kind}" for kind in ("codes", "keys", "positions")
    }
    records = list(database)
    seq_ids = tuple(r.seq_id for r in records)
    descriptions = tuple(r.description for r in records)
    codes_offsets = _prefix_sums(len(r) for r in records)
    kmer_offsets = _prefix_sums(count_valid_kmers(r.codes, k) for r in records)

    segments: List[Segment] = []
    ok = False
    try:
        codes_seg = create_segment(names["codes"], codes_offsets[-1])
        segments.append(codes_seg)
        keys_seg = create_segment(names["keys"], kmer_offsets[-1] * 8)
        segments.append(keys_seg)
        pos_seg = create_segment(names["positions"], kmer_offsets[-1] * 8)
        segments.append(pos_seg)

        codes_arr: np.ndarray = np.ndarray(
            (codes_offsets[-1],), dtype=np.uint8, buffer=codes_seg.buf
        )
        keys_arr: np.ndarray = np.ndarray(
            (kmer_offsets[-1],), dtype=np.int64, buffer=keys_seg.buf
        )
        pos_arr: np.ndarray = np.ndarray(
            (kmer_offsets[-1],), dtype=np.int64, buffer=pos_seg.buf
        )
        for i, rec in enumerate(records):
            codes_arr[codes_offsets[i] : codes_offsets[i + 1]] = rec.codes
            sorted_kmers_into(
                rec.codes,
                k,
                keys_arr[kmer_offsets[i] : kmer_offsets[i + 1]],
                pos_arr[kmer_offsets[i] : kmer_offsets[i + 1]],
            )
        # Drop the creator-side array aliases so close() can unmap later.
        del codes_arr, keys_arr, pos_arr

        handle = SharedDatabaseHandle(
            plane_id=f"plane-{digest}-g{generation}",
            db_name=database.name,
            k=int(k),
            seq_ids=seq_ids,
            descriptions=descriptions,
            codes_segment=codes_seg.name,
            codes_offsets=codes_offsets,
            kmer_keys_segment=keys_seg.name,
            kmer_positions_segment=pos_seg.name,
            kmer_offsets=kmer_offsets,
        )
        ok = True
        return handle, segments
    finally:
        if not ok:
            for seg in segments:
                destroy_segment(seg)


# --------------------------------------------------------------------------- #
# worker-side attachment
# --------------------------------------------------------------------------- #


def attach_view(handle: SharedDatabaseHandle) -> SharedDatabaseView:
    """Attach a fresh zero-copy view of a plane (see also
    :func:`attach_cached_view` for the once-per-process variant).
    """
    segments: List[Segment] = []
    ok = False
    try:
        for name in handle.segment_names:
            segments.append(attach_segment(name))
        view = SharedDatabaseView(handle, segments)
        ok = True
        return view
    finally:
        if not ok:
            for seg in segments:
                seg.close()


#: Per-process cache of attached views, keyed by plane id — a worker
#: attaches each plane once and keeps the view warm across queries/jobs.
_ATTACHED_VIEWS: Dict[str, SharedDatabaseView] = {}


def attach_cached_view(handle: SharedDatabaseHandle) -> SharedDatabaseView:
    """Attach (or reuse this process's existing view of) a plane."""
    view = _ATTACHED_VIEWS.get(handle.plane_id)
    if view is None:
        view = attach_view(handle)
        _ATTACHED_VIEWS[handle.plane_id] = view
    return view


#: Shard lists over the cached views' databases, keyed by (plane id, shard
#: count): every job a worker loads for one search shares one list instead
#: of re-sharding the database per query.
_ATTACHED_SHARDS: Dict[Tuple[str, int], List["DatabaseShard"]] = {}


def cached_shards(handle: SharedDatabaseHandle, num_shards: int) -> List["DatabaseShard"]:
    """This process's shard list of a plane's database (built once)."""
    key = (handle.plane_id, num_shards)
    shards = _ATTACHED_SHARDS.get(key)
    if shards is None:
        from repro.mpiblast.formatdb import shard_database

        shards = shard_database(attach_cached_view(handle).database(), num_shards)
        _ATTACHED_SHARDS[key] = shards
    return shards


def detach_cached_views() -> None:
    """Close every cached view and drop the shard lists built over them
    (test isolation / explicit worker teardown)."""
    _ATTACHED_SHARDS.clear()
    # Close order is immaterial (views are independent attachments).
    for view in list(_ATTACHED_VIEWS.values()):  # orionlint: disable=ORL004
        view.close()
    _ATTACHED_VIEWS.clear()


# --------------------------------------------------------------------------- #
# the plane registry — crash-safe, cross-process plane lifecycle
# --------------------------------------------------------------------------- #

#: Bump whenever the registry header layout below changes shape: an
#: attacher seeing a different version must treat the plane as unusable
#: (PlaneCorruptError) rather than misread its bytes.
PLANE_LAYOUT_VERSION = 3

#: First 8 bytes of every registry segment.
PLANE_MAGIC = b"ORIONPLN"

#: Every plane segment name starts with this; the reaper and the CI leak
#: sweeps key off it.
PLANE_PREFIX = "orionplane_"

#: How many leading bytes of each data segment the integrity checksum
#: covers. Full-content checksums would cost a pass over gigabytes on every
#: attach; the head covers each segment's densest metadata-like region and
#: catches truncation, zeroing and layout mix-ups, which are the realistic
#: corruption modes for a crashed publisher.
_PLANE_HEAD_BYTES = 4096

# Registry segment layout:
#   header : magic 8s | layout_version u32 | generation u64
#            | fingerprint 40s (sha1 hex, ascii) | meta_sha 32s | blob_len u64
#   blob   : pickled SharedDatabaseHandle (blob_len bytes)
_REG_HEADER = struct.Struct("<8sIQ40s32sQ")
_REG_BLOB_OFFSET = _REG_HEADER.size


class PlaneCorruptError(RuntimeError):
    """A plane failed integrity verification at attach time.

    Raised instead of silently searching bad bytes: bad magic, layout
    version mismatch, fingerprint mismatch, truncated/undersized segments,
    an unreadable handle blob, or a head-checksum mismatch. A search that
    gets it runs its queries serially in the driver (``plane_fallback`` and
    its reason stamped on the result) — the plane is rebuilt once no lease
    holds it.
    """


def database_fingerprint(database: "Database") -> str:
    """A cheap stable identity for a database's content.

    Hashes the name, each sequence's id and length, and a strided 64-base
    sample of its codes — O(num_sequences) work, not O(total bases), yet two
    databases that differ anywhere beyond a handful of point edits hash
    apart (and id/length tables disambiguate the rest). This is the key the
    plane registry shares planes under: two sessions loading the same
    database derive the same fingerprint, hence the same segment names.
    """
    h = hashlib.sha1()
    h.update(database.name.encode())
    for rec in database:
        h.update(rec.seq_id.encode())
        h.update(str(len(rec)).encode())
        codes = rec.codes
        h.update(np.ascontiguousarray(codes[:: max(1, codes.shape[0] // 64)]).tobytes())
    return h.hexdigest()


def plane_digest(fingerprint: str, k: int) -> str:
    """The short digest that names one plane's segments.

    Derived from everything that shapes the plane's bytes — database
    fingerprint, word size, and the layout version (so a code upgrade
    publishes under fresh names instead of fighting an old layout).
    """
    key = f"{fingerprint}|{int(k)}|{PLANE_LAYOUT_VERSION}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _registry_name(digest: str) -> str:
    return f"{PLANE_PREFIX}{digest}_reg"


def _sweep_plane(digest: str) -> List[str]:
    """Unlink one plane's segments unless a lease holds it; the names removed.

    Caller holds the machine mutex. The ``/dev/shm`` scan also catches
    segments no registry names, left by a half-published create that died
    before writing its registry.
    """
    owner = _registry_name(digest)
    return _sweep_unowned(owner, _owned_entries().get(owner, ()))


@dataclass(frozen=True)
class _RegistryHeader:
    layout_version: int
    generation: int
    fingerprint: str
    meta_sha: bytes
    blob_len: int


def _read_header(name: str, reg: bytes) -> _RegistryHeader:
    """Parse and gate registry segment ``name``'s header (raises PlaneCorruptError)."""
    if len(reg) < _REG_BLOB_OFFSET:
        raise PlaneCorruptError(
            f"registry segment {name} is {len(reg)} bytes — smaller than "
            f"the {_REG_BLOB_OFFSET}-byte header"
        )
    magic, version, generation, fp, meta_sha, blob_len = _REG_HEADER.unpack_from(reg, 0)
    if magic != PLANE_MAGIC:
        raise PlaneCorruptError(f"registry segment {name} has bad magic {magic!r}")
    if version != PLANE_LAYOUT_VERSION:
        raise PlaneCorruptError(
            f"registry segment {name} has layout version {version}, "
            f"this build reads {PLANE_LAYOUT_VERSION}"
        )
    if blob_len <= 0 or len(reg) < _REG_BLOB_OFFSET + blob_len:
        raise PlaneCorruptError(
            f"registry segment {name} handle blob is truncated "
            f"({blob_len} bytes declared, {len(reg)} total)"
        )
    return _RegistryHeader(
        layout_version=version,
        generation=generation,
        fingerprint=fp.decode("ascii", "replace").rstrip("\x00"),
        meta_sha=meta_sha,
        blob_len=blob_len,
    )


def _registry_blob(reg: bytes, header: _RegistryHeader) -> bytes:
    return reg[_REG_BLOB_OFFSET : _REG_BLOB_OFFSET + header.blob_len]


def _meta_sha(blob: bytes, heads: Iterable[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(blob)
    for head in heads:
        h.update(head)
    return h.digest()


def _expected_segment_sizes(handle: SharedDatabaseHandle) -> Dict[str, int]:
    """Minimum byte size of each data segment (create_segment floors at 1)."""
    return {
        handle.codes_segment: max(1, handle.total_codes),
        handle.kmer_keys_segment: max(1, handle.total_kmers * 8),
        handle.kmer_positions_segment: max(1, handle.total_kmers * 8),
    }


def _verify_plane(handle: SharedDatabaseHandle, meta_sha: bytes, blob: bytes) -> None:
    """Integrity-check a plane's data segments against the registry record.

    Per-segment existence and size floors, then the head checksum over the
    handle blob and every segment's first :data:`_PLANE_HEAD_BYTES`. Raises
    :class:`PlaneCorruptError`; never mutates anything.
    """
    expected = _expected_segment_sizes(handle)
    heads: List[bytes] = []
    for name in handle.segment_names:
        try:
            size = os.stat(_path(name)).st_size
            heads.append(read_segment(name, 0, _PLANE_HEAD_BYTES))
        except FileNotFoundError:
            raise PlaneCorruptError(f"plane data segment {name} is missing") from None
        if size < expected[name]:
            raise PlaneCorruptError(
                f"plane data segment {name} is {size} bytes, "
                f"expected at least {expected[name]}"
            )
    if _meta_sha(blob, heads) != meta_sha:
        raise PlaneCorruptError(
            f"plane {handle.plane_id} failed its header/metadata checksum — "
            f"a segment's leading bytes differ from what the publisher recorded"
        )


#: Leases held (and not yet released) by this process, keyed by their
#: lease fd; drained at interpreter exit like ``_LIVE_SPILL_SETS``.
_LIVE_LEASES: Dict[int, "PlaneLease"] = {}


def _cleanup_live_leases() -> None:
    # Release order is immaterial (leases are independent); the list() only
    # guards against mutation while iterating.
    for lease in list(_LIVE_LEASES.values()):  # orionlint: disable=ORL004
        lease.release()


atexit.register(_cleanup_live_leases)


def _hold(digest: str) -> int:
    """Take a lease: a shared ``flock`` on the plane's registry segment.

    Caller holds the machine mutex and has just attached or published the
    registry, so the file exists and this never blocks for long (the
    exclusive takers, :func:`_owner_held` and :func:`_sweep_unowned`,
    never wait). Each call opens a new file description, and ``flock``
    conflicts between descriptions, so two leases in one process are two
    holders. The returned fd carries the lease.
    """
    fd = _open_lock_fd(_path(_registry_name(digest)))
    try:
        fcntl.flock(fd, fcntl.LOCK_SH)
    except BaseException:
        _close_lock_fd(fd)
        raise
    return fd


class PlaneLease:
    """One process's hold on a registry-managed plane.

    Returned by :meth:`PlaneRegistry.attach_or_create`; holds the plane's
    :class:`SharedDatabaseHandle` plus the fd of a shared ``flock`` on the
    plane's registry segment. :meth:`release` closes that fd under the
    machine mutex and, when no other lease holds the plane, unlinks every
    segment: the last leaseholder unlinks. Idempotent and atexit-drained; a
    forked child's copies are closed at fork (:func:`_drop_inherited_locks`).
    """

    def __init__(
        self,
        handle: SharedDatabaseHandle,
        digest: str,
        fd: int,
        created: bool,
        generation: int,
    ) -> None:
        self.handle = handle
        self.digest = digest
        #: Whether this lease published the plane (vs. attached to one).
        self.created = created
        self.generation = generation
        self._fd = fd
        self._released = False
        _LIVE_LEASES[fd] = self

    def _abandon(self) -> None:
        """Close the lease fd without the last-holder test (never unlinks)."""
        if self._released:
            return
        self._released = True
        _LIVE_LEASES.pop(self._fd, None)
        _close_lock_fd(self._fd)

    def release(self) -> None:
        """Drop this hold; unlink the plane if no other lease holds it."""
        if self._released:
            return
        with _machine_lock():
            self._abandon()
            _sweep_plane(self.digest)

    def __enter__(self) -> "PlaneLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def _drop_inherited_locks() -> None:
    """At-fork hook, child side: close every lock fd inherited from the parent.

    A ``flock`` belongs to the open file description, which ``fork``
    shares, so until the child closes its copy the parent's lease, run
    anchor or mutex stays locked even after the parent lets go. Closing
    (never ``LOCK_UN``, which would drop the parent's lock too) and marking
    the child's copies released fixes that. A residual window remains: the
    child holds the locks for the few milliseconds before this hook runs,
    so a lease release that races *any* fork in the process (this or
    another search's pool starting or respawning a crashed worker) is not
    "last". That plane stays in
    ``/dev/shm`` until the next plane creation, service start or ``plane
    reap`` sweeps it — the outcome a SIGKILLed holder gets.
    ``OrionSearch.close`` shuts its own pool down before it releases.
    """
    _FORK_GUARD.release()
    for lease in list(_LIVE_LEASES.values()):  # orionlint: disable=ORL004
        lease._abandon()
    for spill_set in list(_LIVE_SPILL_SETS.values()):  # orionlint: disable=ORL004
        spill_set._abandon()
    for fd in list(_LOCK_FDS):  # orionlint: disable=ORL004
        _close_lock_fd(fd)  # mutex or probe fds of the parent's other threads


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(
        before=_FORK_GUARD.acquire,
        after_in_parent=_FORK_GUARD.release,
        after_in_child=_drop_inherited_locks,
    )


@dataclass(frozen=True)
class PlaneStatus:
    """One machine plane as reported by :func:`list_planes` (CLI ``plane ls``)."""

    digest: str
    db_name: Optional[str]
    k: Optional[int]
    generation: int
    num_segments: int
    total_bytes: int
    held: bool
    healthy: bool
    detail: str = ""


def list_planes() -> List[PlaneStatus]:
    """Inspect every registry-managed plane on this machine (read-only).

    Takes no mutex, so it never waits behind a create or publish; a
    ``held`` reading may be momentarily stale.
    """
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform without shm
        return []
    statuses: List[PlaneStatus] = []
    for owner, entries in _owned_entries().items():
        if not owner.startswith(PLANE_PREFIX):
            continue
        total_bytes = 0
        for entry in entries:
            try:
                total_bytes += os.stat(_path(entry)).st_size
            except OSError:
                continue
        held = _owner_held(owner)
        db_name: Optional[str] = None
        k: Optional[int] = None
        generation = 0
        healthy = False
        detail = ""
        try:
            reg = read_segment(owner)
        except OSError:
            detail = "no registry segment (half-published or mid-reap)"
        else:
            try:
                header = _read_header(owner, reg)
                generation = header.generation
                blob = _registry_blob(reg, header)
                handle = pickle.loads(blob)
                db_name = handle.db_name
                k = handle.k
                _verify_plane(handle, header.meta_sha, blob)
                healthy = True
            except PlaneCorruptError as exc:
                detail = str(exc)
            except Exception as exc:  # unreadable blob and friends
                detail = f"unreadable registry: {exc}"
        statuses.append(
            PlaneStatus(
                digest=owner[len(PLANE_PREFIX) : -len("_reg")],
                db_name=db_name,
                k=k,
                generation=generation,
                num_segments=len(entries),
                total_bytes=total_bytes,
                held=held,
                healthy=healthy,
                detail=detail,
            )
        )
    return statuses


class PlaneRegistry:
    """Machine-level catalogue of shared database planes.

    :meth:`attach_or_create` is the one entry point: it derives the plane
    digest from the database fingerprint (word size and layout version
    included), then — under the machine mutex — reaps
    orphans and attaches to a healthy existing plane or publishes a fresh
    one, returning a :class:`PlaneLease` either way. All methods are
    classmethods; the registry's state *is* ``/dev/shm``, never this
    process.
    """

    @classmethod
    def attach_or_create(
        cls,
        database: "Database",
        k: int,
        injector: Optional[object] = None,
    ) -> PlaneLease:
        """Share (or publish) the machine-wide plane for ``database``.

        Raises :class:`PlaneCorruptError` when the existing plane fails
        verification *and* another lease holds it (rebuilding would yank
        it from under that holder — the caller's search runs serially in
        the driver); a corrupt plane nobody holds is swept and rebuilt
        with a bumped generation. Raises :class:`SharedMemoryUnavailable`
        on platforms without ``fcntl.flock`` or a ``/dev/shm`` directory.

        ``injector`` is a :class:`repro.mapreduce.faults.FaultInjector`
        consulted at the lifecycle points (``attach``, ``create``,
        ``publish``) — the fault-matrix tests drive crashes and segment
        corruption through it.
        """
        _require_shm()
        fingerprint = database_fingerprint(database)
        digest = plane_digest(fingerprint, k)
        registry = _registry_name(digest)
        with _machine_lock():
            # Creation is the natural moment to reclaim crashed sessions'
            # planes and runs; the mutex is already ours, so reap directly.
            _reap_locked()
            generation = 1
            if segment_exists(registry):
                try:
                    return cls._attach_locked(fingerprint, digest, injector)
                except PlaneCorruptError:
                    if _owner_held(registry):
                        raise  # another holder pins the corrupt plane
                    generation = cls._generation_best_effort(registry) + 1
                # Corrupt and unheld: rebuild in place (mutex still held).
                _sweep_plane(digest)
            return cls._create_locked(
                database, k, fingerprint, digest, generation, injector
            )

    # -- internals (machine mutex held) ---------------------------------- #

    @staticmethod
    def _generation_best_effort(registry: str) -> int:
        """The old generation if the header is readable enough; else 0."""
        reg = read_segment(registry)
        if len(reg) < _REG_HEADER.size:
            return 0
        magic, _v, generation, _fp, _sha, _bl = _REG_HEADER.unpack_from(reg, 0)
        return int(generation) if magic == PLANE_MAGIC else 0

    @classmethod
    def _attach_locked(
        cls, fingerprint: str, digest: str, injector: Optional[object]
    ) -> PlaneLease:
        registry = _registry_name(digest)
        if injector is not None:
            spec = injector.fire_plane("attach")
            if spec is not None and spec.kind == "corrupt-segment":
                cls._corrupt_for_injection(registry)
        reg = read_segment(registry)
        header = _read_header(registry, reg)
        if header.fingerprint != fingerprint:
            raise PlaneCorruptError(
                f"plane {digest} was published for database fingerprint "
                f"{header.fingerprint[:12]}…, not {fingerprint[:12]}… — "
                f"digest collision or scribbled registry"
            )
        blob = _registry_blob(reg, header)
        try:
            handle = pickle.loads(blob)
        except Exception as exc:
            raise PlaneCorruptError(
                f"plane {digest} has an unreadable handle blob: {exc}"
            ) from exc
        if not isinstance(handle, SharedDatabaseHandle):
            raise PlaneCorruptError(
                f"plane {digest} registry blob is not a SharedDatabaseHandle"
            )
        _verify_plane(handle, header.meta_sha, blob)
        return PlaneLease(
            handle, digest, _hold(digest), created=False, generation=header.generation
        )

    @staticmethod
    def _corrupt_for_injection(registry: str) -> None:
        """Injected ``corrupt-segment`` fault: scribble the first data segment.

        Reads the (still healthy) handle out of the registry, overwrites
        the head of its first data segment, and lets the normal
        verification path discover the damage — the test proves detection,
        not the scribble. An already unreadable registry is scribbled
        directly instead.
        """
        try:
            reg = read_segment(registry)
            handle = pickle.loads(_registry_blob(reg, _read_header(registry, reg)))
            seg = attach_segment(handle.segment_names[0])
        except (PlaneCorruptError, OSError, pickle.PickleError):
            seg = attach_segment(registry)
        try:
            seg.buf[: min(seg.size, 64)] = b"\xa5" * min(seg.size, 64)
        finally:
            seg.close()

    @classmethod
    def _create_locked(
        cls,
        database: "Database",
        k: int,
        fingerprint: str,
        digest: str,
        generation: int,
        injector: Optional[object],
    ) -> PlaneLease:
        if injector is not None:
            injector.fire_plane("create")  # kill-creator-before-segments
        handle, segments = _publish_database_segments(database, k, digest, generation)
        registry = _registry_name(digest)
        ok = False
        try:
            if injector is not None:
                # kill-creator-mid-publish: data segments exist, registry
                # does not — the orphan shape only the /dev/shm scan finds.
                injector.fire_plane("publish")
            blob = pickle.dumps(handle)
            meta_sha = _meta_sha(
                blob, (bytes(seg.buf[:_PLANE_HEAD_BYTES]) for seg in segments)
            )
            header = _REG_HEADER.pack(
                PLANE_MAGIC,
                PLANE_LAYOUT_VERSION,
                generation,
                fingerprint.encode("ascii"),
                meta_sha,
                len(blob),
            )
            write_segment(registry, (header, blob))
            lease = PlaneLease(
                handle, digest, _hold(digest), created=True, generation=generation
            )
            ok = True
            return lease
        finally:
            # The creator keeps no segment mappings of its own: views
            # attach on demand, and the lease (not this process) owns the
            # plane's lifetime.
            for seg in segments:
                if ok:
                    try:
                        seg.close()
                    except BufferError:  # orionlint: disable=ORL006 # pragma: no cover
                        pass
                else:
                    destroy_segment(seg)
            if not ok:
                sweep_segment(registry)
