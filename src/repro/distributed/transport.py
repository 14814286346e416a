"""Shared-memory columnar shard transport.

The process backend of :mod:`repro.distributed.shard` used to ship every
shard's whole leaf environment — partitioned base relations, replicated
dimensions, delta slices, the stale view — by pickle, on every
maintenance round.  For the static bulk of that environment the work is
pure waste: relations are immutable, the persistent worker pool outlives
rounds, and the columnar engine already keeps the data as numpy column
buffers.  This module turns the environment into a *resident* resource:

* **Export** (coordinator): each distinct relation is packed once into a
  ``multiprocessing.shared_memory`` block as contiguous column buffers
  (:func:`~repro.algebra.columnar.pack_column_buffers`; object columns
  fall back to an embedded pickle) plus a small picklable
  :class:`ExportManifest` (segment name, column layout, schema, key,
  generation).  Exports are memoized on relation *identity* — immutable
  relations make ``is`` the exact change detector — so an unchanged leaf
  costs zero bytes on later rounds, and a relation replicated to every
  shard is exported exactly once.
* **Generation tracking** (via
  :class:`~repro.db.sharding.GenerationTracker`): every environment slot
  ``(leaf, shard, count)`` carries a generation counter that bumps when
  a different relation occupies it.  A bumped slot retires the old
  export (its segment is unlinked once no slot references it) and the
  new manifest's fresh segment name invalidates whatever workers had
  cached.
* **Attach** (worker): a pool worker resolves its task environment from
  manifests — a cached attachment is reused as-is (zero bytes, zero
  copies); a new segment is attached as read-only numpy views over the
  shared block (:meth:`~repro.algebra.relation.Relation.attach_buffer`),
  with the ``SharedMemory`` handle pinned on the batch as its owner.
  The task's ``live`` id set evicts stale attachments by dropping the
  cache reference; the handle then closes via refcounting the moment
  the last array viewing the buffer is gone.

Steady state, only the per-round novelties — partitioned delta columns,
the freshly maintained view, and the manifest diff — cross the process
boundary; ``benchmarks/bench_shard_transport.py`` gates the ≥ 10×
byte reduction against the pickle path, and the sharded ≡ single-shard
equivalence suite covers the transport like every other backend.

Lifecycle notes.  Segments are owned by the coordinator: it unlinks
them on retirement, on :func:`close_store`, and at interpreter exit.
Worker attachments are deliberately untracked (``track=False`` on
Python ≥ 3.13; on older versions the fork-shared resource tracker makes
the worker's registration an idempotent re-add of the coordinator's, so
unlink still unregisters exactly once and no "leaked shared_memory"
warning is ever printed).  Workers never call ``close()`` by hand —
numpy does not keep buffers exported, so closing could unmap memory
live arrays still point into; instead the handle is owned by the
attached batch and closes via garbage collection with its last reader.
"""

from __future__ import annotations

import atexit
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.columnar import pack_column_buffers, write_column_buffers
from repro.algebra.relation import Relation
from repro.db.sharding import GenerationTracker
from repro.errors import ReproError
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import SHM_EXPORT, fault_check

__all__ = [
    "ExportManifest",
    "SegmentAttachError",
    "SegmentIntegrityError",
    "ShardExportStore",
    "attach_manifest",
    "close_store",
    "evict_stale",
    "get_store",
    "leaked_segments",
    "release_worker_cache",
    "shm_available",
    "shm_breaker",
    "shm_disabled_reason",
]


class SegmentAttachError(ReproError):
    """A worker could not attach a shared-memory segment.

    Wraps the raw ``OSError`` so the coordinator can classify the
    failure as transport infrastructure (retryable) rather than a task
    error.  Pickles across the process boundary via ``args``.
    """

    def __init__(self, export_id: str, detail: str = ""):
        super().__init__(export_id, detail)
        self.export_id = export_id
        self.detail = detail

    def __str__(self) -> str:
        return (f"failed to attach segment {self.export_id}"
                f"{': ' + self.detail if self.detail else ''}")


class SegmentIntegrityError(ReproError):
    """An attached segment failed its manifest checksum (corruption).

    Carries the export id so the coordinator can retire exactly the
    corrupt export (forcing a clean re-export) before retrying.
    """

    def __init__(self, export_id: str, detail: str = ""):
        super().__init__(export_id, detail)
        self.export_id = export_id
        self.detail = detail

    def __str__(self) -> str:
        return (f"segment {self.export_id} failed checksum verification"
                f"{': ' + self.detail if self.detail else ''}")

#: Names of every segment this process created and has not yet unlinked.
#: Purely an audit trail: teardown code (and the equivalence suite) can
#: prove that no demotion/fallback path orphaned a segment in
#: ``/dev/shm``.  Names are added on creation and discarded on unlink —
#: including the already-gone ``OSError`` branch, where the segment
#: demonstrably no longer exists.
_SEGMENT_REGISTRY: set = set()


def leaked_segments() -> FrozenSet[str]:
    """Segments created here that nothing will ever unlink.

    A name is *leaked* once it is neither unlinked nor tracked by the
    live store — the store unlinks everything it tracks on retirement
    and :func:`close_store`, so an untracked-but-existing segment sits
    in ``/dev/shm`` until reboot.  This is exactly what the
    pool-demotion and encode-abort fallbacks used to risk.  Registered
    names whose backing file is already gone (external cleanup) are
    pruned rather than reported.
    """
    import os

    shm_dir = "/dev/shm"
    if os.path.isdir(shm_dir):  # pragma: no branch - POSIX in CI
        for name in [
            n for n in _SEGMENT_REGISTRY
            if not os.path.exists(os.path.join(shm_dir, n))
        ]:
            _SEGMENT_REGISTRY.discard(name)
    store = _STORE[0]
    tracked = frozenset(store._exports) if store is not None else frozenset()
    return frozenset(_SEGMENT_REGISTRY) - tracked


#: Relations whose packed columns fit in this many bytes ship inline
#: (pickled inside the task payload) instead of through a segment: the
#: manifest alone would be a comparable number of bytes, and empty delta
#: partitions — the common small case — change identity every round, so
#: a segment would only churn.
INLINE_MAX_BYTES = 2048


# ----------------------------------------------------------------------
# Availability probe
# ----------------------------------------------------------------------
_SHM_STATE: List[Optional[str]] = [None]  # None=untested, ""=ok, str=reason


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


@lru_cache(maxsize=1)
def _supports_track_kwarg() -> bool:
    """True when ``SharedMemory`` accepts ``track=`` (Python >= 3.13).

    Explicit signature inspection, cached per process.  The previous
    detection — a one-element module-level list written on the first
    attach attempt — was exactly the worker-mutated shared-state
    pattern that rule REP006 in ``tests/test_invariants.py`` rejects; a
    cached pure function has no shared mutable slot to race on (a
    concurrent first call at worst inspects the signature twice).
    """
    import inspect

    params = inspect.signature(_shared_memory().SharedMemory).parameters
    return "track" in params


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works here.

    The probe result is sticky; a mid-session failure (e.g. a full
    ``/dev/shm``) also flips it off via :func:`disable_shm`, so the
    executor falls back to the pickle transport instead of failing every
    round.
    """
    if _SHM_STATE[0] is None:
        try:
            shm = _shared_memory().SharedMemory(create=True, size=16)
            shm.close()
            shm.unlink()
            _SHM_STATE[0] = ""
        # repro: ignore[REP004] -- availability probe, not a recovery path: the outcome *is* the reason string stored in _SHM_STATE, surfaced via shm_disabled_reason(); mid-session failures go through disable_shm which does emit DemotionEvents
        except Exception as err:  # pragma: no cover - platform dependent
            _SHM_STATE[0] = f"shared memory unavailable: {err!r}"
    return _SHM_STATE[0] == ""


def shm_disabled_reason() -> Optional[str]:
    """Why shared memory is off (None when it works or was never probed)."""
    return _SHM_STATE[0] or None


def disable_shm(reason: str) -> None:
    """Permanently fall back to the pickle transport (sticky).

    Reserved for *platform* unavailability (no POSIX shared memory at
    all).  Transient mid-session failures — a full ``/dev/shm``, an
    export error — go through :func:`shm_breaker` instead, whose
    half-open probes restore the shm fast path once the fault clears.
    """
    _SHM_STATE[0] = reason


#: Circuit breaker gating the shm transport against mid-session export
#: failures.  One failure opens it (the round already fell back to
#: pickle — re-paying the export error every round has no upside); a
#: half-open probe re-exports after the cooldown and a success restores
#: shm residency for good.
_SHM_BREAKER = CircuitBreaker(
    "shm-transport", failure_threshold=1, cooldown_s=30.0
)


def shm_breaker() -> CircuitBreaker:
    """The breaker guarding the shm transport (tests, introspection)."""
    return _SHM_BREAKER


def _attach_segment(name: str):
    """Attach an existing segment without tracking it as *ours*.

    Ownership is the coordinator's: it created the segment and it will
    unlink it.  On Python ≥ 3.13 ``track=False`` keeps an attachment out
    of the resource tracker entirely.  Older versions register every
    attachment — which is harmless here *because* pool workers are fork
    children sharing the parent's tracker process, so the registration
    is an idempotent re-add of the name the coordinator already
    registered, and the coordinator's eventual ``unlink()`` unregisters
    it exactly once.  (Explicitly unregistering from a worker would
    delete the shared registration out from under the coordinator —
    that is the bug, not the fix.)
    """
    shared_memory = _shared_memory()
    if _supports_track_kwarg():
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Manifests and the coordinator-side store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExportManifest:
    """Everything a worker needs to attach one exported relation.

    ``export_id`` doubles as the shared-memory segment name — globally
    unique, so a worker's cache keyed by it can never confuse two
    exports, and a re-exported leaf (new generation, new id) is
    automatically a cache miss.
    """

    export_id: str
    schema: object
    columns: tuple
    nrows: int
    nbytes: int
    key: Optional[tuple]
    rel_name: Optional[str]
    generation: int
    #: adler32 of the segment's first ``nbytes`` at export time; workers
    #: verify it on first attach so a corrupted segment surfaces as a
    #: :class:`SegmentIntegrityError` instead of garbage rows.
    checksum: int = 0


class _Export:
    """One live segment: the exported relation plus its bookkeeping."""

    __slots__ = ("relation", "manifest", "shm", "slots", "retired")

    def __init__(self, relation, manifest, shm):
        self.relation = relation
        self.manifest = manifest
        self.shm = shm
        self.slots = set()
        self.retired = False


class ShardExportStore:
    """Coordinator-side registry of exported shard environments.

    One store per process; rounds bracket with :meth:`begin_round` /
    :meth:`round_stats`.  ``export`` is identity-memoized, so calling it
    for every leaf of every shard environment each round costs nothing
    for the resident majority.  Slots that move to a new relation
    release their old export; a segment is unlinked as soon as no slot
    references it.
    """

    def __init__(self):
        self._exports: Dict[str, _Export] = {}
        self._by_rel: Dict[int, _Export] = {}
        self._slot_exports: Dict[tuple, str] = {}
        self._generations = GenerationTracker()
        self._seen_this_round: set = set()
        self._created_this_round: set = set()
        self._written = 0
        self._resident = 0
        self._segments_created = 0

    # -- round bracketing ------------------------------------------------
    def begin_round(self) -> None:
        self._seen_this_round = set()
        self._created_this_round = set()
        self._written = 0
        self._resident = 0
        self._segments_created = 0

    def rollback_round(self) -> None:
        """Retire every segment exported since :meth:`begin_round`.

        The transactional escape hatch for an encode that aborts partway
        (an unpicklable payload, an allocation failure between exports):
        the round's fresh segments would otherwise sit orphaned until
        session teardown — or forever, if the session then demotes away
        from the process backend.  Resident exports from earlier rounds
        are untouched.
        """
        for export_id in list(self._created_this_round):
            ex = self._exports.get(export_id)
            if ex is not None:
                for slot in list(ex.slots):
                    self._slot_exports.pop(slot, None)
                    self._generations.forget(slot)
                ex.slots.clear()
                self._retire(ex)
        self._created_this_round.clear()

    def round_stats(self) -> Tuple[int, int, int]:
        """``(bytes_written, bytes_resident, segments_created)``."""
        return self._written, self._resident, self._segments_created

    # -- export ----------------------------------------------------------
    def export(self, slot: tuple, rel: Relation) -> Optional[ExportManifest]:
        """Manifest for ``rel`` occupying ``slot``; None means ship inline.

        Reuses the live export when the slot's relation is unchanged (or
        when another slot — a replica, an earlier round — already
        exported the same object).  Small relations return None and ride
        in the task payload by pickle.
        """
        ex = self._by_rel.get(id(rel))
        if ex is not None and ex.relation is rel:
            self._assign_slot(slot, ex)
            # Refresh the slot's generation entry too: it holds a strong
            # reference to the slot's last occupant, and a slot that
            # reuses another slot's export would otherwise keep pinning
            # whatever relation it exported rounds ago.
            self._generations.generation(slot, rel)
            if ex.manifest.export_id not in self._seen_this_round:
                self._seen_this_round.add(ex.manifest.export_id)
                self._resident += ex.manifest.nbytes
            return ex.manifest

        batch = rel.columnar()
        specs, total, chunks = pack_column_buffers(batch)
        if total <= INLINE_MAX_BYTES:
            self._release_slot(slot)
            self._generations.generation(slot, rel)  # still bumps the count
            return None
        fault = fault_check(SHM_EXPORT)
        if fault is not None:
            raise OSError(f"injected shm export failure ({fault.detail})"
                          if fault.detail else "injected shm export failure")
        generation, _ = self._generations.generation(slot, rel)
        shm = _shared_memory().SharedMemory(create=True, size=max(total, 1))
        _SEGMENT_REGISTRY.add(shm.name)
        try:
            write_column_buffers(shm.buf, specs, chunks)
        except BaseException:
            shm.close()
            shm.unlink()
            _SEGMENT_REGISTRY.discard(shm.name)
            raise
        manifest = ExportManifest(
            export_id=shm.name,
            schema=rel.schema,
            columns=specs,
            nrows=len(rel),
            nbytes=total,
            key=rel.key,
            rel_name=rel.name,
            generation=generation,
            checksum=zlib.adler32(shm.buf[:total]),
        )
        ex = _Export(rel, manifest, shm)
        self._exports[manifest.export_id] = ex
        self._by_rel[id(rel)] = ex
        self._assign_slot(slot, ex)
        self._seen_this_round.add(manifest.export_id)
        self._created_this_round.add(manifest.export_id)
        self._written += total
        self._segments_created += 1
        return manifest

    def _assign_slot(self, slot: tuple, ex: _Export) -> None:
        old_id = self._slot_exports.get(slot)
        if old_id == ex.manifest.export_id:
            return
        self._slot_exports[slot] = ex.manifest.export_id
        ex.slots.add(slot)
        if old_id is not None:
            self._drop_slot_ref(slot, old_id)

    def release_slot(self, slot: tuple) -> None:
        """Free one environment slot entirely.

        Drops the slot's export reference (retiring the segment once no
        other slot shares it) *and* its generation entry, whose strong
        relation reference would otherwise pin the slot's last occupant
        on the heap.  Used for shards the executor skipped this round:
        their delta/stale-view partitions are dead data — the next time
        the shard is touched, its leaves are new objects anyway.
        """
        self._release_slot(slot)
        self._generations.forget(slot)

    def _release_slot(self, slot: tuple) -> None:
        old_id = self._slot_exports.pop(slot, None)
        if old_id is not None:
            self._drop_slot_ref(slot, old_id)

    def _drop_slot_ref(self, slot: tuple, export_id: str) -> None:
        old = self._exports.get(export_id)
        if old is None:
            return
        old.slots.discard(slot)
        if not old.slots:
            self._retire(old)

    def _retire(self, ex: _Export) -> None:
        if ex.retired:
            # Idempotent under re-entry: shutdown paths overlap (a user
            # calling close_store after shutdown_shard_pool, atexit
            # firing after both), and a double-unlink of a name another
            # process may have reused would be destructive.
            return
        ex.retired = True
        self._exports.pop(ex.manifest.export_id, None)
        self._created_this_round.discard(ex.manifest.export_id)
        if self._by_rel.get(id(ex.relation)) is ex:
            del self._by_rel[id(ex.relation)]
        try:
            ex.shm.close()
            ex.shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        finally:
            _SEGMENT_REGISTRY.discard(ex.manifest.export_id)

    def retire_export(self, export_id: str) -> bool:
        """Retire one export by id, freeing every slot that references it.

        The corruption-recovery hook: when a worker reports a
        :class:`SegmentIntegrityError`, the coordinator retires the
        named export so the retry re-exports the relation into a fresh
        segment instead of re-attaching the corrupt one forever.
        """
        ex = self._exports.get(export_id)
        if ex is None:
            return False
        for slot in list(ex.slots):
            self._slot_exports.pop(slot, None)
            self._generations.forget(slot)
        ex.slots.clear()
        self._retire(ex)
        return True

    def corrupt_export(self, export_id: str) -> bool:
        """Flip one byte mid-segment (the ``shm.corrupt`` fault action).

        Exists for the chaos harness only: the manifest's checksum no
        longer matches, so the next fresh attach raises
        :class:`SegmentIntegrityError` exactly like real corruption.
        """
        ex = self._exports.get(export_id)
        if ex is None or ex.manifest.nbytes == 0:
            return False
        pos = ex.manifest.nbytes // 2
        ex.shm.buf[pos] ^= 0xFF
        return True

    # -- introspection ---------------------------------------------------
    def live_ids(self) -> FrozenSet[str]:
        """Ids of every live export (workers evict anything else)."""
        return frozenset(self._exports)

    def fresh_ids(self) -> FrozenSet[str]:
        """Ids of exports created since :meth:`begin_round`.

        The ``shm.corrupt`` fault targets these exclusively: a resident
        export may already sit in a worker's attach cache (cache hits
        skip checksum verification by design), so corrupting one would
        silently feed garbage rows to the evaluation instead of the
        detectable :class:`SegmentIntegrityError` the chaos harness is
        exercising.
        """
        return frozenset(self._created_this_round)

    def resident_bytes(self) -> int:
        """Total bytes currently held in shared-memory segments."""
        return sum(ex.manifest.nbytes for ex in self._exports.values())

    def close(self) -> None:
        """Unlink every segment and forget all residency state."""
        for ex in list(self._exports.values()):
            self._retire(ex)
        self._exports.clear()
        self._by_rel.clear()
        self._slot_exports.clear()
        self._generations.clear()


_STORE: List[Optional[ShardExportStore]] = [None]
_ATEXIT_REGISTERED: List[bool] = [False]


def get_store() -> ShardExportStore:
    """The process-wide export store (created on first use).

    The atexit hook is registered exactly once per process, no matter
    how many close/recreate cycles the store goes through — repeated
    registration would stack N shutdown callbacks whose interleaving
    with the pool's own exit handlers depended on creation order.
    """
    if _STORE[0] is None:
        _STORE[0] = ShardExportStore()
        if not _ATEXIT_REGISTERED[0]:
            _ATEXIT_REGISTERED[0] = True
            atexit.register(close_store)
    return _STORE[0]


def peek_store() -> Optional[ShardExportStore]:
    """The store if one exists — never creates it (slot maintenance)."""
    return _STORE[0]


def close_store() -> None:
    """Unlink every exported segment (end of a sharded session)."""
    if _STORE[0] is not None:
        _STORE[0].close()
        _STORE[0] = None


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------
#: export_id -> attached Relation.  Lives in pool workers; the
#: coordinator's copy stays empty (fork children inherit whatever the
#: parent had — they only ever consult it by export id, which is
#: globally unique, so inherited entries are simply never hit).
_ATTACHED: Dict[str, Relation] = {}


def attach_manifest(manifest: ExportManifest,
                    inject_failure: bool = False) -> Relation:
    """The relation for one manifest, attached zero-copy and cached.

    The ``SharedMemory`` handle is pinned on the relation's columnar
    batch (see :meth:`Relation.attach_buffer`), never closed by hand:
    numpy does not keep buffers exported, so an explicit ``close()``
    could unmap memory that live arrays still point into.  Ownership by
    the batch makes the mapping's lifetime exactly the data's —
    :func:`evict_stale` merely drops the cache reference and CPython
    refcounting closes the handle the moment the last reader is gone.

    A fresh attach verifies the manifest's adler32 checksum before any
    array views the buffer — a corrupted segment raises
    :class:`SegmentIntegrityError` (carrying the export id so the
    coordinator can retire it) instead of producing garbage rows.
    ``inject_failure`` is the ``shm.attach`` chaos directive: the
    coordinator decides it, the worker executes it here so the failure
    takes the exact path a real attach error would.
    """
    if inject_failure:
        raise SegmentAttachError(manifest.export_id,
                                 "injected segment attach failure")
    hit = _ATTACHED.get(manifest.export_id)
    if hit is not None:
        return hit
    try:
        shm = _attach_segment(manifest.export_id)
    except OSError as err:
        raise SegmentAttachError(manifest.export_id, repr(err)) from err
    if manifest.checksum:
        found = zlib.adler32(shm.buf[:manifest.nbytes])
        if found != manifest.checksum:
            shm.close()  # no array views yet: closing here is safe
            raise SegmentIntegrityError(
                manifest.export_id,
                f"adler32 {found:#010x} != manifest {manifest.checksum:#010x}",
            )
    rel = Relation.attach_buffer(
        manifest.schema,
        shm.buf,
        manifest.columns,
        manifest.nrows,
        key=manifest.key,
        name=manifest.rel_name,
        owner=shm,
    )
    # repro: ignore[REP006] -- per-process attachment cache: the shm transport only runs under the fork-based process backend, so each worker mutates its own copy; the coordinator never shares this dict with threads
    _ATTACHED[manifest.export_id] = rel
    return rel


def evict_stale(live_ids) -> None:
    """Drop cached attachments whose export the coordinator retired.

    Dropping the cache entry is all that happens here: the segment's
    handle closes via garbage collection once every relation, batch and
    derived provider chain referencing the mapping is gone — promptly,
    in the common case where the round's results have already been
    shipped back.
    """
    for export_id in [e for e in _ATTACHED if e not in live_ids]:
        del _ATTACHED[export_id]


def release_worker_cache() -> None:
    """Evict everything (tests; also safe to call in the coordinator)."""
    evict_stale(frozenset())
