"""Zero-copy shared-memory data plane for process workers.

Pickling the database into the job ships a private copy to *every*
:class:`~repro.mapreduce.runtime.WorkerPool` worker, so per-worker warmup
memory and time scale with ``num_workers`` — exactly the overhead the
paper's fine-grained design must keep small (Section V). This module places the database's 2-bit sequence
codes and its per-sequence sorted k-mer arrays into POSIX shared-memory
segments (``multiprocessing.shared_memory``): one copy per machine, with
workers attaching zero-copy NumPy views instead of unpickling a private
copy.

Lifecycle
---------
:class:`PlaneRegistry` is the one way to get a plane.
:meth:`PlaneRegistry.attach_or_create` names the plane's segments after a
digest of the database fingerprint, word size, sketch size and layout
version, so every session on a machine that searches the same database
meets at the same segments — several service replicas, a benchmark and a
notebook share one copy. The first caller publishes; the rest verify
(layout version gate, per-segment size checks, a checksum over the handle
blob and every segment's head) and attach, or get a typed
:class:`PlaneCorruptError` so they can fall back to the in-process path.
Every caller gets a :class:`PlaneLease`.

The kernel tracks who holds a plane. A lease is a shared ``flock`` on the
plane's registry segment, the ``/dev/shm`` file that exists exactly as
long as the plane does, and the kernel drops it when its holder dies,
SIGKILL included. "Does anyone still hold the plane?" is therefore one
non-blocking exclusive lock attempt on that file. The last lease to
release unlinks every segment; :func:`reap_orphan_planes` sweeps every
plane no lease holds (crashed holders, half-published creates) and runs
at plane creation, ``OrionService.start`` and the ``plane reap`` CLI. A
forked child closes its inherited lease fds at fork, so pool workers
never pin the driver's plane.

*Workers* attach through :func:`attach_view` (or the per-process-cached
:func:`attach_cached_view`) and get a :class:`SharedDatabaseView`, whose
arrays alias the shared buffers.

Plane segments are deliberately *invisible to the stdlib resource
tracker*: a tracker is per process tree, so session B's tracker would
unlink segments session A still serves the moment B exits. The leases,
the reaper and the atexit lease drain replace that backstop.

Every raw ``SharedMemory`` create/attach in this repository lives in this
module's :func:`create_segment`/:func:`attach_segment` helpers (and the
untracked variants below), which pair the call with ``close``/``unlink``
on their failure paths — the invariant orionlint rule ORL008 enforces at
every other call site.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import struct
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # import would be cycle-free but is kept lazy at runtime
    from repro.sequence.records import Database
    from repro.sketch import KmerSketch

try:
    from multiprocessing import shared_memory as _shm_module

    HAVE_SHARED_MEMORY = True
except ImportError:  # pragma: no cover - platform without POSIX shm
    _shm_module = None  # type: ignore[assignment]
    HAVE_SHARED_MEMORY = False

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]


class SharedMemoryUnavailable(RuntimeError):
    """Raised when shared-memory segments cannot be used on this platform."""


def _require_shm() -> None:
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform without shm
        raise SharedMemoryUnavailable(
            "multiprocessing.shared_memory is unavailable on this platform"
        )


# --------------------------------------------------------------------------- #
# segment helpers — the only raw SharedMemory call sites in the repo
# --------------------------------------------------------------------------- #


def create_segment(
    size: int, data: Optional[bytes] = None, name: Optional[str] = None
) -> "_shm_module.SharedMemory":
    """Create one shared segment of at least ``size`` bytes (min 1).

    ``data``, when given, is copied in before the segment is returned.
    ``name`` pins the segment name (the streaming shuffle's spill
    segments are named by the *driver* so it can sweep them even if the
    creating worker dies before reporting); ``None`` lets the platform
    pick one. If anything fails after creation the segment is closed *and
    unlinked* in the paired ``finally`` — a half-initialized segment must
    never outlive this call.
    """
    _require_shm()
    seg = _shm_module.SharedMemory(name=name, create=True, size=max(1, int(size)))
    ok = False
    try:
        if data is not None:
            seg.buf[: len(data)] = data
        ok = True
        return seg
    finally:
        if not ok:
            seg.close()
            seg.unlink()


def attach_segment(name: str) -> "_shm_module.SharedMemory":
    """Attach to an existing segment by name, without taking ownership.

    The ``SharedMemory`` constructor registers the name with the resource
    tracker for creators and attachers alike, but the tracker is a single
    process shared by the whole tree and its cache is a *set* — an attach
    re-registering the name is idempotent, balanced by the one unregister
    the creator's ``unlink`` performs. Do **not** unregister here: that
    would strip the shared registration, making later unregisters fail
    and forfeiting the tracker's crash backstop (cf. bpo-38119).

    The caller owns the paired ``close()`` (views close in their
    ``finally``/``close`` paths; the creator additionally unlinks).
    """
    _require_shm()
    return _shm_module.SharedMemory(name=name)  # orionlint: disable=ORL008


#: Serializes the brief resource-tracker monkeypatch the untracked helpers
#: apply. A concurrent *tracked* attach in another thread during the window
#: would merely skip its (idempotent, backstop-only) registration.
_TRACKER_PATCH_LOCK = threading.Lock()


def _noop_track(name: str, rtype: str) -> None:  # pragma: no cover - trivial
    return None


def attach_segment_untracked(name: str) -> "_shm_module.SharedMemory":
    """Attach to a registry-managed segment without tracker registration.

    The stdlib resource tracker is per process *tree*; registering a
    cross-session segment here would hand this tree's tracker license to
    unlink it at our exit, yanking the plane out from under every other
    session still serving it. ``SharedMemory.__init__`` offers no opt-out
    on this Python, so ``register`` is swapped for a no-op for the duration
    of the constructor. The caller owns the paired ``close()`` (and, for
    last-leaseholder teardown, :func:`_unlink_untracked`).
    """
    _require_shm()
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = _noop_track
        try:
            return _shm_module.SharedMemory(name=name)  # orionlint: disable=ORL008
        finally:
            resource_tracker.register = original


def _unlink_untracked(seg: "_shm_module.SharedMemory") -> None:
    """Unlink a registry-managed segment without a tracker unregister.

    ``SharedMemory.unlink`` unconditionally unregisters the name; for a
    segment this process never registered (untracked attach, or a create
    already balanced by :func:`untrack_segment`) that would make the
    tracker process print a spurious ``KeyError`` traceback.
    """
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.unregister
        resource_tracker.unregister = _noop_track
        try:
            seg.unlink()
        except FileNotFoundError:
            return  # already unlinked (sweeps are idempotent)
        finally:
            resource_tracker.unregister = original


def untrack_segment(seg: "_shm_module.SharedMemory") -> None:
    """Balance a freshly *created* segment's tracker registration.

    Called once right after :func:`create_segment` for registry-managed
    segments: the create registered the name, this unregisters it, and from
    then on no tracker in any session knows the segment exists — the
    leases and :func:`reap_orphan_planes` own reclamation.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # orionlint: disable=ORL006
        # The tracker may already be gone (interpreter teardown) — losing
        # the unregister is harmless; the registration is backstop-only.
        pass


def destroy_segment(seg: "_shm_module.SharedMemory") -> None:
    """Close and unlink a segment this process created (idempotent)."""
    try:
        seg.close()
    except BufferError:  # orionlint: disable=ORL006
        # Live NumPy views still alias the buffer; the mapping stays until
        # they die, but the name must still vanish from /dev/shm below.
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        return  # already unlinked (idempotent release paths)


def segment_exists(name: str) -> bool:
    """Whether a segment with ``name`` is currently linked (test/leak probe)."""
    _require_shm()
    try:
        seg = attach_segment(name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def publish_bytes(data: bytes) -> "_shm_module.SharedMemory":
    """Copy ``data`` into a fresh segment (caller owns close+unlink)."""
    return create_segment(len(data), data)


def read_bytes(name: str, size: int) -> bytes:
    """Copy ``size`` bytes out of segment ``name``, then detach."""
    seg = attach_segment(name)
    try:
        return bytes(seg.buf[:size])
    finally:
        seg.close()


def read_segment_slice(name: str, start: int, length: int) -> bytes:
    """Copy ``[start, start+length)`` out of segment ``name``, then detach.

    The streaming shuffle's reduce tasks use this to pull exactly their
    partition's run out of a map task's spill segment, without touching
    (or unpickling) the other partitions' bytes.
    """
    seg = attach_segment(name)
    try:
        return bytes(seg.buf[start : start + length])
    finally:
        seg.close()


def ensure_resource_tracker() -> None:
    """Start this process's resource tracker if it is not already running.

    Forked pool workers inherit the tracker fd only if the tracker exists
    at fork time. A pool's first shm activity may be a *worker* — creating
    a spill segment, or attaching an above-page job blob — and without
    this pre-start each forked worker would lazily spawn its own private
    tracker, whose registrations the driver's sweep can never balance
    (noisy ``ENOENT`` and "leaked shared_memory objects" warnings at
    worker exit). ``WorkerPool`` calls this before it builds its process
    pool (``spawn`` children receive the fd via preparation data
    regardless).
    """
    if not HAVE_SHARED_MEMORY:  # pragma: no cover - platform without shm
        return
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def sweep_segment(name: str) -> bool:
    """Unlink segment ``name`` if it exists; ``True`` when one was removed.

    The reclamation primitive for driver-chosen segment names: attach (so
    the mapping can be closed), then close + unlink. A missing segment is
    not an error — sweeping is idempotent by design, so cleanup paths can
    sweep every name they *might* have caused to exist.
    """
    try:
        seg = attach_segment(name)
    except FileNotFoundError:
        return False
    destroy_segment(seg)
    return True


# --------------------------------------------------------------------------- #
# spill-segment sets (streaming-shuffle intermediate data)
# --------------------------------------------------------------------------- #

#: Spill sets created (and not yet released) by this process; drained by the
#: atexit hook below so an abandoned streaming-shuffle job never leaks its
#: intermediate runs — the same discipline as ``_LIVE_LEASES``.
_LIVE_SPILL_SETS: Dict[str, "SpillSet"] = {}
_SPILL_COUNTER = itertools.count()


def _cleanup_live_spill_sets() -> None:
    # Release order is immaterial (sets are independent); the list() only
    # guards against mutation while iterating.
    for spill_set in list(_LIVE_SPILL_SETS.values()):  # orionlint: disable=ORL004
        spill_set.release()


atexit.register(_cleanup_live_spill_sets)


class SpillSet:
    """Driver-side owner of one streaming-shuffle job's spill segments.

    The driver mints one deterministic name per map task *attempt*
    (``orionspill_{pid}_{job#}_{split:05d}_a{attempt:02d}``); workers
    create segments *under those names* via :func:`create_segment` and
    detach after writing, so ownership of every possible segment rests
    with the driver from the start. Attempt-scoped names are what make
    per-task retries and speculative duplicates safe: two attempts of the
    same map task never collide on a segment name, the losing attempt's
    run is swept individually (:meth:`sweep`) without touching the
    winner's, and a retry never trips over a stale segment squatting on
    its name.

    Names are minted lazily — :meth:`name_for` records every name it
    hands out — and :meth:`release` sweeps all that remain. An attempt
    that commits inline (sub-page output, or the no-shm fallback) created
    nothing and is struck off via :meth:`forget`; names whose fate is
    unknown — already swept, or orphaned by a worker that crashed between
    create and report — are all covered by the same idempotent
    :func:`sweep_segment` call. Until released, the set
    sits in a module registry drained at interpreter exit, mirroring the
    database plane's atexit backstop.
    """

    def __init__(self, num_segments: int) -> None:
        token = f"{os.getpid()}_{next(_SPILL_COUNTER)}"
        self.set_id = f"orionspill_{token}"
        self.num_segments = num_segments
        # Insertion-ordered so release() sweeps in minting order (determinism
        # for tests; sweeping itself is order-independent).
        self._minted: Dict[str, None] = {}
        self._released = False
        _LIVE_SPILL_SETS[self.set_id] = self

    @property
    def names(self) -> Tuple[str, ...]:
        """Every name minted so far and not yet swept or forgotten."""
        return tuple(self._minted)

    def _name(self, split_index: int, attempt: int) -> str:
        return f"{self.set_id}_{split_index:05d}_a{attempt:02d}"

    def name_for(self, split_index: int, attempt: int = 1) -> str:
        """Reserve the spill segment name for one map task attempt.

        Minting records the name, so :meth:`release` sweeps everything
        ever handed out — including attempts that died before reporting.
        """
        name = self._name(split_index, attempt)
        self._minted[name] = None
        return name

    def forget(self, split_index: int, attempt: int = 1) -> None:
        """Strike off an attempt that reported creating no segment.

        Only for attempts that *returned* an inline commit: a failed or
        lost attempt may have died after creating its segment and must be
        swept instead.
        """
        self._minted.pop(self._name(split_index, attempt), None)

    def sweep(self, split_index: int, attempt: int = 1) -> bool:
        """Sweep one attempt's segment now (failed/superseded attempts).

        Idempotent and safe for never-created segments; ``True`` when a
        segment was actually removed.
        """
        name = self._name(split_index, attempt)
        self._minted.pop(name, None)
        return sweep_segment(name)

    def release(self) -> None:
        """Sweep every minted segment of this set (idempotent)."""
        if self._released:
            return
        self._released = True
        _LIVE_SPILL_SETS.pop(self.set_id, None)
        for name in self._minted:
            sweep_segment(name)
        self._minted = {}

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

    Workers receive this (a few hundred bytes plus the id strings) instead
    of the pickled database, and attach with :func:`attach_view`. Offsets
    are half-open prefix sums: sequence ``i``'s codes live at
    ``codes[codes_offsets[i]:codes_offsets[i+1]]`` and its sorted k-mer
    keys/positions at ``kmer_offsets[i]:kmer_offsets[i+1]`` of the two
    k-mer segments.

    ``sketch_segment`` (optional fourth segment) holds per-sequence
    bottom-k k-mer sketches (sorted uint64 hashes; sequence ``i``'s at
    ``sketch_offsets[i]:sketch_offsets[i+1]``), with the per-sequence
    inclusive thresholds in ``sketch_thresholds``. The driver's shard-
    pruning probe (:mod:`repro.sketch`) merges these per shard; planes
    published by older layouts (``sketch_segment=None``) simply fall back
    to the in-process sketch build.
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
    sketch_segment: Optional[str] = None
    sketch_offsets: Tuple[int, ...] = (0,)
    sketch_thresholds: Tuple[int, ...] = ()
    sketch_size: int = 0
    #: Name of the plane's registry segment (set on every published plane).
    registry_segment: Optional[str] = None

    @property
    def segment_names(self) -> Tuple[str, ...]:
        names: Tuple[str, ...] = (
            self.codes_segment, self.kmer_keys_segment, self.kmer_positions_segment
        )
        if self.sketch_segment is not None:
            names = names + (self.sketch_segment,)
        return names

    @property
    def has_sketches(self) -> bool:
        return self.sketch_segment is not None

    @property
    def total_sketch_hashes(self) -> int:
        return self.sketch_offsets[-1]

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
        segments: Sequence["_shm_module.SharedMemory"],
    ) -> None:
        self.handle = handle
        self._segments = list(segments)
        codes_seg, keys_seg, pos_seg = self._segments[:3]
        self._codes = _wrap_array(codes_seg, np.uint8, handle.total_codes)
        self._keys = _wrap_array(keys_seg, np.int64, handle.total_kmers)
        self._positions = _wrap_array(pos_seg, np.int64, handle.total_kmers)
        self._sketches: Optional[np.ndarray] = None
        if handle.has_sketches and len(self._segments) > 3:
            self._sketches = _wrap_array(
                self._segments[3], np.uint64, handle.total_sketch_hashes
            )
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

    @property
    def has_sketches(self) -> bool:
        """Whether this plane was published with the sketch segment."""
        return self._sketches is not None

    def sequence_sketch(self, seq_id: str) -> "KmerSketch":
        """One sequence's bottom-k k-mer sketch (hashes are a view).

        Raises :class:`SharedMemoryUnavailable` when the plane was
        published without sketches — callers fall back to the in-process
        build (see :meth:`repro.sketch.ShardSketchIndex.build`).
        """
        if self._sketches is None:
            raise SharedMemoryUnavailable(
                f"plane {self.handle.plane_id} was published without sketches"
            )
        from repro.sketch import KmerSketch

        i = self._index[seq_id]
        off = self.handle.sketch_offsets
        return KmerSketch.from_parts(
            self._sketches[off[i] : off[i + 1]],
            self.handle.sketch_thresholds[i],
        )

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
        self._sketches = None
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # orionlint: disable=ORL006
                # A caller still holds array views; their mapping stays
                # valid and dies with the process — nothing to unlink here.
                pass
        self._segments = []


def _wrap_array(seg: "_shm_module.SharedMemory", dtype: type, length: int) -> np.ndarray:
    arr: np.ndarray = np.ndarray((length,), dtype=dtype, buffer=seg.buf)
    arr.setflags(write=False)
    return arr


def _prefix_sums(sizes: Iterable[int]) -> Tuple[int, ...]:
    out = [0]
    for size in sizes:
        out.append(out[-1] + int(size))
    return tuple(out)


def _publish_database_segments(
    database: "Database", k: int, sketch_size: int, digest: str, generation: int
) -> Tuple[SharedDatabaseHandle, List["_shm_module.SharedMemory"]]:
    """Build one plane's data segments and its handle.

    Two passes keep peak extra memory at one sequence's index, not the
    whole database's: valid k-mer counts first size the segments exactly,
    then each sequence's sorted index is built straight into its slice of
    the shared buffers (:func:`repro.blast.lookup.sorted_kmers_into`).
    ``sketch_size=0`` omits the sketch segment. Segment names derive from
    ``digest`` so independent sessions meet at the same segments. On any
    failure every created segment is destroyed before re-raising.
    """
    from repro.blast.lookup import count_valid_kmers, sorted_kmers_into
    from repro.sketch import KmerSketch

    names = {
        kind: f"{PLANE_PREFIX}{digest}_{kind}"
        for kind in ("codes", "keys", "positions", "sketches")
    }
    records = list(database)
    seq_ids = tuple(r.seq_id for r in records)
    descriptions = tuple(r.description for r in records)
    codes_offsets = _prefix_sums(len(r) for r in records)
    kmer_offsets = _prefix_sums(count_valid_kmers(r.codes, k) for r in records)

    segments: List["_shm_module.SharedMemory"] = []
    ok = False
    try:
        codes_seg = create_segment(codes_offsets[-1], name=names["codes"])
        segments.append(codes_seg)
        keys_seg = create_segment(kmer_offsets[-1] * 8, name=names["keys"])
        segments.append(keys_seg)
        pos_seg = create_segment(kmer_offsets[-1] * 8, name=names["positions"])
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
        sketches: List["KmerSketch"] = []
        for i, rec in enumerate(records):
            codes_arr[codes_offsets[i] : codes_offsets[i + 1]] = rec.codes
            sorted_kmers_into(
                rec.codes,
                k,
                keys_arr[kmer_offsets[i] : kmer_offsets[i + 1]],
                pos_arr[kmer_offsets[i] : kmer_offsets[i + 1]],
            )
            if sketch_size > 0:
                # Sketch straight off the keys just written: one sort and
                # one neighbour scan (no hash table), a fraction of the
                # index build above.
                sketches.append(
                    KmerSketch.from_kmer_keys(
                        keys_arr[kmer_offsets[i] : kmer_offsets[i + 1]],
                        sketch_size,
                    )
                )

        sketch_segment: Optional[str] = None
        sketch_offsets: Tuple[int, ...] = (0,)
        sketch_thresholds: Tuple[int, ...] = ()
        if sketch_size > 0:
            sketch_offsets = _prefix_sums(s.num_hashes for s in sketches)
            sketch_thresholds = tuple(s.threshold for s in sketches)
            sketch_seg = create_segment(
                sketch_offsets[-1] * 8, name=names["sketches"]
            )
            segments.append(sketch_seg)
            sketch_segment = sketch_seg.name
            sketch_arr: np.ndarray = np.ndarray(
                (sketch_offsets[-1],), dtype=np.uint64, buffer=sketch_seg.buf
            )
            for i, sk in enumerate(sketches):
                sketch_arr[sketch_offsets[i] : sketch_offsets[i + 1]] = sk.hashes
            del sketch_arr
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
            sketch_segment=sketch_segment,
            sketch_offsets=sketch_offsets,
            sketch_thresholds=sketch_thresholds,
            sketch_size=sketch_size,
            registry_segment=_registry_name(digest),
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

    Segments attach *untracked*: the leases and the reaper own
    reclamation, and a tracker registration here would let this process
    tree unlink segments other sessions still serve (see the module
    docstring).
    """
    segments: List["_shm_module.SharedMemory"] = []
    ok = False
    try:
        for name in handle.segment_names:
            segments.append(attach_segment_untracked(name))
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


def detach_cached_views() -> None:
    """Close every cached view (test isolation / explicit worker teardown)."""
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
PLANE_LAYOUT_VERSION = 2

#: First 8 bytes of every registry segment.
PLANE_MAGIC = b"ORIONPLN"

#: Every registry-managed segment name (and the per-plane ``.lock`` file
#: in the temp directory) starts with this; the reaper and the CI leak
#: sweeps key off it.
PLANE_PREFIX = "orionplane_"

#: Where POSIX shared-memory segments appear as files (Linux tmpfs). The
#: reaper scans it, and a lease is an ``flock`` on a registry file in it.
_SHM_DIR = "/dev/shm"

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
    an unreadable handle blob, or a head-checksum mismatch. Callers degrade
    to the in-process database path (``fallback_reason`` stamped on the
    result) — the plane is rebuilt once no lease holds it.
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


def plane_digest(fingerprint: str, k: int, sketch_size: int) -> str:
    """The short digest that names one plane's segments and lock files.

    Derived from everything that shapes the plane's bytes — database
    fingerprint, word size, sketch size, and the layout version (so a code
    upgrade publishes under fresh names instead of fighting an old layout).
    """
    key = f"{fingerprint}|{int(k)}|{int(sketch_size)}|{PLANE_LAYOUT_VERSION}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _registry_name(digest: str) -> str:
    return f"{PLANE_PREFIX}{digest}_reg"


@contextmanager
def _plane_lock(digest: str) -> Iterator[None]:
    """Exclusive per-plane mutex (create/attach/reap/release).

    An ``flock`` on ``<tempdir>/orionplane_<digest>.lock``: racing
    attachers serialize (one creates, the rest attach), a reaper can never
    sweep a plane mid-publish, and taking a lease never races the
    last-holder test. The file is never unlinked — unlinking a mutex file
    races its waiters.
    """
    fd = os.open(
        os.path.join(tempfile.gettempdir(), f"{PLANE_PREFIX}{digest}.lock"),
        os.O_CREAT | os.O_RDWR | os.O_CLOEXEC,
        0o666,
    )
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the fd releases the flock


def _open_registry_file(digest: str) -> int:
    """A fresh fd on the plane's registry segment file (FileNotFoundError if none).

    Each call opens a new file description, and ``flock`` conflicts
    between descriptions, so two leases in one process are two holders.
    ``O_CLOEXEC`` keeps exec'd children (spawn and forkserver pools,
    subprocesses) from inheriting a lease.
    """
    return os.open(
        os.path.join(_SHM_DIR, _registry_name(digest)), os.O_RDONLY | os.O_CLOEXEC
    )


def _hold(digest: str) -> int:
    """Take a lease: a shared ``flock`` on the plane's registry segment.

    Caller holds the plane lock and has just attached or published the
    registry, so the file exists and this never blocks (the one exclusive
    taker, :func:`_plane_held`, never waits). The returned fd carries the
    lease.
    """
    fd = _open_registry_file(digest)
    try:
        fcntl.flock(fd, fcntl.LOCK_SH)
    except BaseException:
        os.close(fd)
        raise
    return fd


def _plane_held(digest: str) -> bool:
    """Whether any lease, in any process on this machine, still holds the plane.

    An exclusive non-blocking ``flock`` on the registry segment succeeds
    only when no lease's shared lock is left. The kernel drops a lock when
    its holder dies, SIGKILL included, so a crashed holder never pins a
    plane and a recycled pid cannot impersonate one. A half-published plane
    has no registry yet, so it counts as unheld; so does one whose registry
    this user cannot open (its sweep then fails to attach and skips it).
    """
    try:
        fd = _open_registry_file(digest)
    except OSError:
        return False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return True
    finally:
        os.close(fd)
    return False


@dataclass(frozen=True)
class _RegistryHeader:
    layout_version: int
    generation: int
    fingerprint: str
    meta_sha: bytes
    blob_len: int


def _read_header(reg: "_shm_module.SharedMemory") -> _RegistryHeader:
    """Parse and gate a registry segment's header (raises PlaneCorruptError)."""
    if reg.size < _REG_BLOB_OFFSET:
        raise PlaneCorruptError(
            f"registry segment {reg.name} is {reg.size} bytes — smaller than "
            f"the {_REG_BLOB_OFFSET}-byte header"
        )
    magic, version, generation, fp, meta_sha, blob_len = _REG_HEADER.unpack_from(
        reg.buf, 0
    )
    if magic != PLANE_MAGIC:
        raise PlaneCorruptError(
            f"registry segment {reg.name} has bad magic {magic!r}"
        )
    if version != PLANE_LAYOUT_VERSION:
        raise PlaneCorruptError(
            f"registry segment {reg.name} has layout version {version}, "
            f"this build reads {PLANE_LAYOUT_VERSION}"
        )
    if blob_len <= 0 or reg.size < _REG_BLOB_OFFSET + blob_len:
        raise PlaneCorruptError(
            f"registry segment {reg.name} handle blob is truncated "
            f"({blob_len} bytes declared, {reg.size} total)"
        )
    return _RegistryHeader(
        layout_version=version,
        generation=generation,
        fingerprint=fp.decode("ascii", "replace").rstrip("\x00"),
        meta_sha=meta_sha,
        blob_len=blob_len,
    )


def _meta_sha(blob: bytes, heads: Iterable[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(blob)
    for head in heads:
        h.update(head)
    return h.digest()


def _expected_segment_sizes(handle: SharedDatabaseHandle) -> Dict[str, int]:
    """Minimum byte size of each data segment (create_segment floors at 1)."""
    sizes = {
        handle.codes_segment: max(1, handle.total_codes),
        handle.kmer_keys_segment: max(1, handle.total_kmers * 8),
        handle.kmer_positions_segment: max(1, handle.total_kmers * 8),
    }
    if handle.sketch_segment is not None:
        sizes[handle.sketch_segment] = max(1, handle.total_sketch_hashes * 8)
    return sizes


def _verify_plane(handle: SharedDatabaseHandle, meta_sha: bytes, blob: bytes) -> None:
    """Integrity-check a plane's data segments against the registry record.

    Per-segment existence and size floors (a shm segment may round up to
    page size, never down), then the head checksum over the handle blob and
    every segment's first :data:`_PLANE_HEAD_BYTES`. Raises
    :class:`PlaneCorruptError`; never mutates anything.
    """
    expected = _expected_segment_sizes(handle)
    h = hashlib.sha256()
    h.update(blob)
    for name in handle.segment_names:
        try:
            seg = attach_segment_untracked(name)
        except FileNotFoundError:
            raise PlaneCorruptError(f"plane data segment {name} is missing") from None
        try:
            if seg.size < expected[name]:
                raise PlaneCorruptError(
                    f"plane data segment {name} is {seg.size} bytes, "
                    f"expected at least {expected[name]}"
                )
            h.update(bytes(seg.buf[:_PLANE_HEAD_BYTES]))
        finally:
            seg.close()
    if h.digest() != meta_sha:
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


def _drop_inherited_leases() -> None:
    """At-fork hook, child side: close every lease fd inherited from the parent.

    A ``flock`` belongs to the open file description, which ``fork``
    shares, so until the child closes its copy the parent's lease stays
    locked even after the parent releases it. Closing (never ``LOCK_UN``,
    which would drop the parent's lock too) and marking the leases released
    fixes that. A residual window remains: the child holds the lock for the
    few milliseconds before this hook runs, so a release that races *any*
    fork in the process (a pool starting or respawning a crashed worker,
    another search's pool in a multi-database service) is not "last". That
    plane stays in ``/dev/shm`` until the next plane creation, service
    start or ``plane reap`` sweeps it — the outcome a SIGKILLed holder gets.
    ``OrionSearch.close`` shuts its own pool down before it releases.
    """
    for lease in list(_LIVE_LEASES.values()):  # orionlint: disable=ORL004
        lease._abandon()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_drop_inherited_leases)


class PlaneLease:
    """One process's hold on a registry-managed plane.

    Returned by :meth:`PlaneRegistry.attach_or_create`; holds the plane's
    :class:`SharedDatabaseHandle` plus the fd of a shared ``flock`` on the
    plane's registry segment. :meth:`release` closes that fd under the plane
    lock and, when no other lease holds the plane, unlinks every segment:
    the last leaseholder unlinks. Idempotent and atexit-drained; a forked
    child's copies are closed at fork (:func:`_drop_inherited_leases`).
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

    @property
    def released(self) -> bool:
        return self._released

    def _abandon(self) -> None:
        """Close the lease fd without the last-holder test (never unlinks)."""
        if self._released:
            return
        self._released = True
        _LIVE_LEASES.pop(self._fd, None)
        os.close(self._fd)

    def release(self) -> None:
        """Drop this hold; unlink the plane if no other lease holds it."""
        if self._released:
            return
        with _plane_lock(self.digest):
            self._abandon()
            if not _plane_held(self.digest):
                _sweep_plane_segments(self.digest)

    def __enter__(self) -> "PlaneLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def _sweep_plane_segments(digest: str) -> List[str]:
    """Unlink one plane's segments; the segment names removed.

    Caller holds the plane lock and has seen no lease hold the plane. The
    ``/dev/shm`` scan (which every plane has: ``attach_or_create`` refuses
    without it) also catches segments no registry names, left by a
    half-published create that died before writing its registry.
    """
    prefix = f"{PLANE_PREFIX}{digest}_"
    names = sorted(entry for entry in os.listdir(_SHM_DIR) if entry.startswith(prefix))
    removed: List[str] = []
    for name in names:
        try:
            seg = attach_segment_untracked(name)
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
        except BufferError:  # orionlint: disable=ORL006 # pragma: no cover
            # A local view still aliases the mapping; it dies with the
            # process — the name must still vanish below.
            pass
        _unlink_untracked(seg)
        removed.append(name)
    return removed


def _plane_digests_on_machine() -> List[str]:
    """Digests of every registry-managed plane with segments in /dev/shm."""
    try:
        entries = sorted(os.listdir(_SHM_DIR))
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return []
    digests = {
        entry[len(PLANE_PREFIX) :].rsplit("_", 1)[0]
        for entry in entries
        if entry.startswith(PLANE_PREFIX) and "_" in entry[len(PLANE_PREFIX) :]
    }
    return sorted(digests)


def reap_orphan_planes() -> List[str]:
    """Sweep every plane no lease holds; the segment names reclaimed.

    The crash backstop: a SIGKILLed last holder never runs its release, and
    untracked segments are invisible to the stdlib resource tracker, so
    orphans persist until someone sweeps them. Wired into plane creation,
    ``OrionService.start`` and ``python -m repro plane reap``. A held plane
    is never swept, corrupt or not. Safe against racing creators: each
    plane is judged under its own plane lock, and creators publish
    entirely inside that lock.
    """
    if not HAVE_SHARED_MEMORY or fcntl is None:  # pragma: no cover
        return []
    removed: List[str] = []
    for digest in _plane_digests_on_machine():
        with _plane_lock(digest):
            if not _plane_held(digest):
                removed.extend(_sweep_plane_segments(digest))
    return removed


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

    @property
    def reapable(self) -> bool:
        return not self.held


def list_planes() -> List[PlaneStatus]:
    """Inspect every registry-managed plane on this machine (read-only).

    Takes no plane lock, so it never waits behind a create or publish; a
    ``held`` reading may be momentarily stale.
    """
    if not HAVE_SHARED_MEMORY or fcntl is None:  # pragma: no cover
        return []
    statuses: List[PlaneStatus] = []
    for digest in _plane_digests_on_machine():
        prefix = f"{PLANE_PREFIX}{digest}_"
        try:
            entries = sorted(
                entry for entry in os.listdir(_SHM_DIR) if entry.startswith(prefix)
            )
        except OSError:  # pragma: no cover - no /dev/shm on this platform
            entries = []
        total_bytes = 0
        for entry in entries:
            try:
                total_bytes += os.stat(os.path.join(_SHM_DIR, entry)).st_size
            except OSError:
                continue
        held = _plane_held(digest)
        db_name: Optional[str] = None
        k: Optional[int] = None
        generation = 0
        healthy = False
        detail = ""
        try:
            reg = attach_segment_untracked(_registry_name(digest))
        except (FileNotFoundError, OSError):
            detail = "no registry segment (half-published or mid-reap)"
        else:
            try:
                header = _read_header(reg)
                generation = header.generation
                blob = bytes(
                    reg.buf[_REG_BLOB_OFFSET : _REG_BLOB_OFFSET + header.blob_len]
                )
                handle = pickle.loads(blob)
                db_name = handle.db_name
                k = handle.k
                _verify_plane(handle, header.meta_sha, blob)
                healthy = True
            except PlaneCorruptError as exc:
                detail = str(exc)
            except Exception as exc:  # unreadable blob and friends
                detail = f"unreadable registry: {exc}"
            finally:
                reg.close()
        statuses.append(
            PlaneStatus(
                digest=digest,
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
    digest from the database fingerprint (word size, sketch size and
    layout version included), reaps orphans, then — under the plane's file
    lock — attaches to a healthy existing plane or publishes a fresh one,
    returning a :class:`PlaneLease` either way. All methods are
    classmethods; the registry's state *is* ``/dev/shm`` plus the lock
    files, never this process.
    """

    @classmethod
    def attach_or_create(
        cls,
        database: "Database",
        k: int,
        sketch_size: Optional[int] = None,
        injector: Optional[object] = None,
    ) -> PlaneLease:
        """Share (or publish) the machine-wide plane for ``database``.

        Raises :class:`PlaneCorruptError` when the existing plane fails
        verification *and* another lease holds it (rebuilding would yank
        it from under that holder — the caller falls back to the
        in-process path); a corrupt plane nobody holds is swept and rebuilt
        with a bumped generation. Raises :class:`SharedMemoryUnavailable`
        on platforms without POSIX shared memory, ``fcntl.flock`` or a
        ``/dev/shm`` directory to lock registry segments in.

        ``injector`` is a :class:`repro.mapreduce.faults.FaultInjector`
        consulted at the lifecycle points (``attach``, ``create``,
        ``publish``) — the fault-matrix tests drive crashes and segment
        corruption through it.
        """
        _require_shm()
        if fcntl is None or not os.path.isdir(_SHM_DIR):  # pragma: no cover
            raise SharedMemoryUnavailable(
                f"plane leases need fcntl.flock and {_SHM_DIR}, "
                f"which this platform lacks"
            )
        if sketch_size is None:
            from repro.sketch import SKETCH_SIZE_DEFAULT

            sketch_size = SKETCH_SIZE_DEFAULT
        # Reap first, outside the target plane's lock: creation is the
        # natural moment to reclaim crashed sessions' planes, and taking
        # other planes' locks while holding ours could deadlock a racing
        # reaper.
        reap_orphan_planes()
        fingerprint = database_fingerprint(database)
        digest = plane_digest(fingerprint, k, sketch_size)
        with _plane_lock(digest):
            generation = 1
            try:
                reg = attach_segment_untracked(_registry_name(digest))
            except FileNotFoundError:
                reg = None
            if reg is not None:
                try:
                    try:
                        return cls._attach_locked(reg, fingerprint, digest, injector)
                    except PlaneCorruptError:
                        if _plane_held(digest):
                            raise  # another holder pins the corrupt plane
                        generation = cls._generation_best_effort(reg) + 1
                finally:
                    reg.close()
                # Corrupt and unheld: rebuild in place (lock still held).
                _sweep_plane_segments(digest)
            return cls._create_locked(
                database, k, sketch_size, fingerprint, digest, generation, injector
            )

    # -- internals (plane lock held) ------------------------------------ #

    @staticmethod
    def _generation_best_effort(reg: "_shm_module.SharedMemory") -> int:
        """The old generation if the header is readable enough; else 0."""
        if reg.size < _REG_HEADER.size:
            return 0
        magic, _v, generation, _fp, _sha, _bl = _REG_HEADER.unpack_from(reg.buf, 0)
        return int(generation) if magic == PLANE_MAGIC else 0

    @classmethod
    def _attach_locked(
        cls,
        reg: "_shm_module.SharedMemory",
        fingerprint: str,
        digest: str,
        injector: Optional[object],
    ) -> PlaneLease:
        if injector is not None:
            spec = injector.fire_plane("attach")
            if spec is not None and spec.kind == "corrupt-segment":
                cls._corrupt_for_injection(reg)
        header = _read_header(reg)
        if header.fingerprint != fingerprint:
            raise PlaneCorruptError(
                f"plane {digest} was published for database fingerprint "
                f"{header.fingerprint[:12]}…, not {fingerprint[:12]}… — "
                f"digest collision or scribbled registry"
            )
        blob = bytes(reg.buf[_REG_BLOB_OFFSET : _REG_BLOB_OFFSET + header.blob_len])
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
    def _corrupt_for_injection(reg: "_shm_module.SharedMemory") -> None:
        """Injected ``corrupt-segment`` fault: scribble the first data segment.

        Reads the (still healthy) handle out of the registry, overwrites
        the head of its first data segment, and lets the normal
        verification path discover the damage — the test proves detection,
        not the scribble.
        """
        try:
            header = _read_header(reg)
            blob = bytes(reg.buf[_REG_BLOB_OFFSET : _REG_BLOB_OFFSET + header.blob_len])
            handle = pickle.loads(blob)
            seg = attach_segment_untracked(handle.segment_names[0])
        except (PlaneCorruptError, FileNotFoundError, OSError, pickle.PickleError):
            # Registry already unreadable — corrupt it directly instead.
            reg.buf[:8] = b"SCRIBBLE"
            return
        try:
            seg.buf[: min(seg.size, 64)] = b"\xa5" * min(seg.size, 64)
        finally:
            seg.close()

    @classmethod
    def _create_locked(
        cls,
        database: "Database",
        k: int,
        sketch_size: int,
        fingerprint: str,
        digest: str,
        generation: int,
        injector: Optional[object],
    ) -> PlaneLease:
        if injector is not None:
            injector.fire_plane("create")  # kill-creator-before-segments
        handle, segments = _publish_database_segments(
            database, k, sketch_size, digest, generation
        )
        reg: Optional["_shm_module.SharedMemory"] = None
        ok = False
        try:
            # From here the segments must be tracker-invisible in every
            # session (see the module docstring); create registered them,
            # this balances it.
            for seg in segments:
                untrack_segment(seg)
            if injector is not None:
                # kill-creator-mid-publish: data segments exist, registry
                # does not — the orphan shape only the /dev/shm scan finds.
                injector.fire_plane("publish")
            blob = pickle.dumps(handle)
            meta_sha = _meta_sha(
                blob, (bytes(seg.buf[:_PLANE_HEAD_BYTES]) for seg in segments)
            )
            reg = create_segment(_REG_BLOB_OFFSET + len(blob), name=_registry_name(digest))
            untrack_segment(reg)
            _REG_HEADER.pack_into(
                reg.buf,
                0,
                PLANE_MAGIC,
                PLANE_LAYOUT_VERSION,
                generation,
                fingerprint.encode("ascii"),
                meta_sha,
                len(blob),
            )
            reg.buf[_REG_BLOB_OFFSET : _REG_BLOB_OFFSET + len(blob)] = blob
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
                try:
                    seg.close()
                except BufferError:  # orionlint: disable=ORL006 # pragma: no cover
                    pass
                if not ok:
                    _unlink_untracked(seg)
            if reg is not None:
                reg.close()
                if not ok:
                    _unlink_untracked(reg)
