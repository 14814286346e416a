"""Sharded parallel view maintenance — the partition-parallel executor.

Because every maintenance strategy M(S, D, ∂D) is an ordinary relational
expression over named leaves (paper §3.1), sharding needs no expression
rewriting at all: build one *leaf environment per shard* — partitioned
base relations, partitioned ∆R/∇R, the matching slice of the stale view,
and shared (replicated) copies of everything else — and evaluate the
same strategy expression against each.  Concatenating the per-shard
results yields exactly the single-shard answer.

Three pieces live here:

* :class:`ShardPlan` / :func:`plan_shards` — decides the maintenance key
  (group key for SPJA views, view key for SPJ) and which base relations
  can be hash-partitioned on it versus replicated to every shard.  The
  planner only shards the structures whose partition-correctness it can
  prove (SPJ cores of inner joins); everything else falls back to the
  single-shard reference path.
* :func:`evaluate_sharded` / :func:`_run_tasks` — run the per-shard
  evaluations serially, on a thread pool, or on a persistent fork-based
  process pool (``concurrent.futures``), and concatenate the results.
  Shard results travel as *columnar batches*: a worker returns its
  relation exactly as the batch-native evaluator produced it (the
  vectorized join/merge pipeline ends in a column batch, not rows), so
  process-backend payloads pickle as numpy buffers and the concatenated
  view stays columnar until something reads its rows.  Shards untouched
  by the pending delta are skipped structurally and their slice of the
  stale view is reused as-is.
* The **shard transport** — how a round's inputs reach the process
  pool.  The default ``"shm"`` transport
  (:mod:`repro.distributed.transport`) exports each distinct relation
  once into a shared-memory segment of numpy column buffers and keeps
  it resident in the workers across rounds; a task then ships only the
  expression, a small manifest, and whatever actually changed (delta
  partitions, the freshly maintained view).  ``"pickle"`` is the
  reference transport that serializes the full environment into every
  task payload.
* **Hardened failure domains.**  Shards run as individual futures with
  a per-round deadline (``shard_timeout_s``); infrastructure failures —
  a broken pool, a timed-out or killed worker, a segment attach/
  checksum error — are retried with jittered exponential backoff
  (``max_retries``), re-encoding only the failed shards (resident
  exports make the re-encode nearly free).  Shards that fail every
  retry fall back to in-process serial execution while the completed
  shards' results are kept — partial-round recovery with the exact
  single-shard answer.  A health-probed circuit breaker
  (:mod:`repro.reliability.breaker`) replaces the old *permanent*
  demotion: a round that abandons the process backend opens the
  breaker, later rounds take the thread fallback, and a half-open probe
  restores the fast path once the fault clears.  Deterministic task
  errors (the work's own exceptions) skip the retry machinery and
  surface from the serial reference path, exactly as before.  All of it
  is exercisable on demand through :mod:`repro.reliability.faults` and
  reported on :class:`ShardRunReport` as machine-readable telemetry.
* :func:`set_shard_count` — the global toggle.  ``set_shard_count(1)``
  (the default) is the reference single-shard path; every sharded result
  is row-for-row equal to it (property-tested in
  ``tests/db/test_sharded_maintenance.py``).
"""

from __future__ import annotations

import os
import pickle
import random
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as _futures_wait,
)
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.algebra.compiler import bump_plan_epoch, compiled_evaluate, plan_epoch
from repro.algebra.expressions import (
    Aggregate,
    BaseRel,
    Expr,
    Join,
    Project,
    Select,
)
from repro.algebra.keys import derive_key, derive_schema
from repro.algebra.relation import Relation
from repro.db.deltas import deletions_name, insertions_name
from repro.db.maintenance import is_spj
from repro.db.sharding import partition_leaves, partition_relation
from repro.distributed import transport as _transport
from repro.distributed.metrics import (
    RoundTelemetry,
    ShardRunReport,
    ShardTiming,
    TransportStats,
)
from repro.errors import KeyDerivationError, MaintenanceError
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.faults import (
    SHM_ATTACH,
    SHM_CORRUPT,
    WORKER_KILL,
    WORKER_RAISE,
    WORKER_STALL,
    InjectedFault,
    active_fault_plan,
    execute_worker_directive,
)
from repro.reliability.telemetry import FailureEvent, FailureReason

# ----------------------------------------------------------------------
# Global shard configuration (the set_shard_count toggle)
# ----------------------------------------------------------------------

#: Executor backends.  ``process`` keeps a persistent fork-based worker
#: pool and ships each shard's task over the configured transport; it
#: is the default on platforms with ``os.fork``.  ``thread`` is the
#: portable fallback (shares caches, contends on the GIL for row-path
#: operators); ``serial`` runs shards in a loop (tests, debugging).
BACKENDS = ("serial", "thread", "process")

#: Process-backend transports.  ``shm`` keeps shard environments
#: resident in shared-memory segments across rounds (delta-only
#: re-ship); ``pickle`` serializes the full environment into every task
#: payload (the reference transport, and the fallback where POSIX
#: shared memory is unavailable).
TRANSPORTS = ("shm", "pickle")


@dataclass
class ShardConfig:
    """How sharded maintenance executes.

    ``count == 1`` is the single-shard reference path.  ``max_workers``
    defaults to ``min(count, cpu_count)``.  ``transport`` only matters
    for the ``process`` backend.

    The reliability knobs: ``shard_timeout_s`` is the per-round deadline
    one attempt's shards must all meet (None = wait forever, the
    pre-hardening behavior); ``max_retries`` bounds how many times
    infrastructure failures are retried before the failed shards fall
    back to serial in-process execution (see :func:`_backoff_sleep` for
    the delay between attempts).
    """

    count: int = 1
    backend: str = "process" if hasattr(os, "fork") else "thread"
    max_workers: Optional[int] = None
    transport: str = "shm"
    shard_timeout_s: Optional[float] = None
    max_retries: int = 1

    def workers(self) -> int:
        cpus = os.cpu_count() or 1
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return max(1, min(self.count, cpus))


_CONFIG = ShardConfig()

#: Sentinel distinguishing "parameter not passed" from explicit None.
_UNSET = object()


def _is_int(value) -> bool:
    """A real integer: ``2.0`` and ``True`` would break partitioning."""
    return isinstance(value, int) and not isinstance(value, bool)


def set_shard_count(
    count: int,
    backend: Optional[str] = None,
    max_workers: Optional[int] = None,
    transport: Optional[str] = None,
    shard_timeout_s=_UNSET,
    max_retries: Optional[int] = None,
) -> int:
    """Set the global shard count (1 = reference single-shard path).

    ``backend``, ``max_workers``, ``transport``, ``shard_timeout_s``
    and ``max_retries`` are sticky: omitting them keeps the current
    setting, so a count-only override (e.g.
    ``Catalog.maintain_all(shards=n)``) never drops a worker cap the
    user configured.  Pass ``max_workers=0`` to clear the cap and
    ``shard_timeout_s=0`` to clear the per-round shard deadline.

    Shared-memory residency deliberately *survives* count changes:
    store slots are keyed by shard layout, so the per-period
    ``maintain_all(shards=n)`` toggle (4 → 1 → 4 …) keeps its exports
    warm across periods, which is where the transport's steady-state
    win comes from.  Exports for a layout that is never used again are
    freed by ``shutdown_shard_pool()`` (or interpreter exit).
    Explicitly leaving the ``shm`` transport *does* unlink everything —
    the user opted out, so keeping the segments would be pure waste —
    and explicitly requesting ``backend="process"`` resets the process
    backend's circuit breaker: the user is asking for another try right
    now, not after the cooldown.  Returns the
    previous count so callers can restore it::

        old = set_shard_count(4)
        try: ...
        finally: set_shard_count(old)
    """
    global _CONFIG
    if not _is_int(count) or count < 1:
        raise MaintenanceError(f"shard count must be an int >= 1: {count!r}")
    if backend is not None and backend not in BACKENDS:
        raise MaintenanceError(
            f"unknown shard backend {backend!r}; expected one of {BACKENDS}"
        )
    if transport is not None and transport not in TRANSPORTS:
        raise MaintenanceError(
            f"unknown shard transport {transport!r}; expected one of {TRANSPORTS}"
        )
    if max_workers is None:
        max_workers = _CONFIG.max_workers
    elif max_workers == 0:
        max_workers = None
    if shard_timeout_s is _UNSET:
        shard_timeout_s = _CONFIG.shard_timeout_s
    elif shard_timeout_s == 0:
        shard_timeout_s = None
    elif shard_timeout_s is not None and shard_timeout_s < 0:
        raise MaintenanceError(
            f"shard_timeout_s must be >= 0: {shard_timeout_s}"
        )
    if max_retries is None:
        max_retries = _CONFIG.max_retries
    elif not _is_int(max_retries) or max_retries < 0:
        raise MaintenanceError(
            f"max_retries must be an int >= 0: {max_retries!r}"
        )
    if backend == "process":
        clear_pool_demotion()
    old = _CONFIG.count
    new_transport = transport if transport is not None else _CONFIG.transport
    if _CONFIG.transport == "shm" and new_transport != "shm":
        _transport.close_store()
    _CONFIG = ShardConfig(
        count=count,
        backend=backend if backend is not None else _CONFIG.backend,
        max_workers=max_workers,
        transport=new_transport,
        shard_timeout_s=shard_timeout_s,
        max_retries=max_retries,
    )
    if count != old:
        # Shard layout is part of the environment a compiled plan (and
        # the per-view shard-plan memo) was built against.
        bump_plan_epoch()
    return old


def get_shard_count() -> int:
    """The active shard count (1 when sharding is off)."""
    return _CONFIG.count


def get_shard_config() -> ShardConfig:
    """The active shard configuration."""
    return _CONFIG


# ----------------------------------------------------------------------
# Planning: which leaves partition, which replicate
# ----------------------------------------------------------------------
@dataclass
class ShardPlan:
    """The partition decision for one view's maintenance.

    ``attrs`` are the maintenance-key columns *of the view schema*;
    ``partitioned`` maps leaf name -> columns of that leaf to hash on
    (delta leaves ``R__ins``/``R__del`` follow their base relation
    automatically; the stale view partitions on ``attrs``).  Leaves not
    listed are replicated to every shard.  ``reason`` documents why a
    view is not shardable.
    """

    view_name: str
    attrs: Tuple[str, ...] = ()
    partitioned: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    reason: str = ""
    #: Set when planning *failed* (rather than declined): the swallowed
    #: tracing error, machine-readable, so an unexpectedly serial view
    #: is diagnosable from the plan instead of from a debugger.
    failure: Optional[FailureEvent] = None

    @property
    def shardable(self) -> bool:
        return bool(self.partitioned)

    def leaf_partitions(self) -> Dict[str, Tuple[str, ...]]:
        """Partition columns for every leaf name, deltas and view included."""
        out = {self.view_name: self.attrs}
        for name, cols in self.partitioned.items():
            out[name] = cols
            out[insertions_name(name)] = cols
            out[deletions_name(name)] = cols
        return out


def _leaf_attr_maps(
    expr: Expr, attr_map: Dict[str, str], leaves: Mapping
) -> Dict[str, Dict[str, str]]:
    """Per-leaf resolution of shard attributes to leaf column names.

    ``attr_map`` maps each shard attribute to its column name at this
    level of the tree.  Attributes propagate down through selections,
    pass-through projection outputs, and join sides; crucially they cross
    a join onto the *other* side only along an equality pair, which is
    what makes co-partitioning two joined relations safe (rows that join
    agree on the equated columns, hence on the shard route).

    Relations that appear more than once keep only occurrence-consistent
    resolutions (a self-join role conflict drops the leaf).
    """
    if isinstance(expr, BaseRel):
        schema = derive_schema(expr, leaves)
        resolved = {a: c for a, c in attr_map.items() if c in schema}
        return {expr.name: resolved} if resolved else {}
    if isinstance(expr, Select):
        return _leaf_attr_maps(expr.child, attr_map, leaves)
    if isinstance(expr, Project):
        passthrough = {}  # output name -> source column (first wins)
        for out in expr.outputs:
            src = out.source_column()
            if src is not None and out.name not in passthrough:
                passthrough[out.name] = src
        child_map = {
            a: passthrough[c] for a, c in attr_map.items() if c in passthrough
        }
        if not child_map:
            return {}
        return _leaf_attr_maps(expr.child, child_map, leaves)
    if isinstance(expr, Join):
        left_schema = derive_schema(expr.left, leaves)
        right_schema = derive_schema(expr.right, leaves)
        pairs = dict(expr.on)  # left col -> right col
        rpairs = {rc: lc for lc, rc in expr.on}
        left_map, right_map = {}, {}
        for a, c in attr_map.items():
            if c in left_schema:
                left_map[a] = c
                # Equality transfer: the attribute also resolves on the
                # right side when the join equates it (and vice versa).
                if c in pairs and pairs[c] in right_schema:
                    right_map[a] = pairs[c]
            elif c in right_schema:
                right_map[a] = c
                if c in rpairs and rpairs[c] in left_schema:
                    left_map[a] = rpairs[c]
        out: Dict[str, Dict[str, str]] = {}
        for side, side_map in ((expr.left, left_map), (expr.right, right_map)):
            if not side_map:
                continue
            for name, m in _leaf_attr_maps(side, side_map, leaves).items():
                if name in out:
                    # Same relation in both roles: keep only entries the
                    # occurrences agree on.
                    out[name] = {
                        a: c for a, c in out[name].items() if m.get(a) == c
                    }
                else:
                    out[name] = m
        return {n: m for n, m in out.items() if m}
    # Any other operator (set ops, nested aggregates, η, merge): no
    # partition-safety proof — everything below replicates.
    return {}


def _has_non_inner_join(expr: Expr) -> bool:
    """Outer joins preserve unmatched rows of a side; replicating that
    side would emit the padding row once per shard, so the planner
    refuses the whole view (conservative, and unused by the repo's
    views, which are all FK inner joins)."""
    if isinstance(expr, Join) and expr.how != "inner":
        return True
    return any(_has_non_inner_join(c) for c in expr.children())


def _plan_score(partitioned: Dict[str, Tuple[str, ...]], database) -> int:
    """Rows covered by a candidate plan: base + pending delta sizes.

    Partitioning the relations that carry the data (and the deltas that
    drive the maintenance cost) is what buys parallel speedup; a plan
    that only partitions a small dimension table scores low.
    """
    score = 0
    for name in partitioned:
        try:
            score += len(database.relation(name))
        except MaintenanceError:
            continue
        delta = database.deltas.get(name)
        if delta is not None:
            score += len(delta.inserted) + len(delta.deleted)
    return score


def plan_shards(view) -> ShardPlan:
    """Decide the maintenance key and partitionable leaves for a view.

    SPJA views shard on (a traceable subset of) the group key; SPJ views
    on (a traceable subset of) the view key — any non-empty subset keeps
    whole merge groups co-located because the view key determines every
    routing value.  Among the candidate subsets the planner picks the
    one covering the most base/delta rows with partitioned relations.

    The decision is memoized on the view, keyed by the plan epoch and
    the database's relation inventory: the partition proof depends only
    on the view structure and leaf schemas, so per-round replanning is
    pure overhead — but the memo must not survive ``set_hash_family`` /
    ``set_shard_count`` / ``set_columnar_enabled`` (all bump the epoch)
    or a relation being added/dropped.  Any candidate plan is *correct*
    (scores only steer performance), so memoizing across delta changes
    is sound.
    """
    token = (plan_epoch(), tuple(sorted(view.database.relation_names())))
    memo = getattr(view, "_shard_plan_memo", None)
    if memo is not None and memo[0] == token:
        return memo[1]
    plan = _plan_shards_fresh(view)
    view._shard_plan_memo = (token, plan)
    return plan


def _plan_shards_fresh(view) -> ShardPlan:
    """The unmemoized planning pass behind :func:`plan_shards`."""
    definition = view.definition
    database = view.database
    leaves = database.leaves()

    if isinstance(definition, Aggregate):
        core = definition.child
        attrs = tuple(definition.group_by)
        if not attrs:
            return ShardPlan(view.name, reason="global aggregate (no group key)")
        if not is_spj(core):
            return ShardPlan(view.name, reason="aggregate core is not SPJ")
    elif is_spj(definition):
        core = definition
        attrs = tuple(view.key or ())
        if not attrs:
            return ShardPlan(view.name, reason="view has no key to shard on")
    else:
        return ShardPlan(view.name, reason="definition is not SPJ/SPJA")
    if _has_non_inner_join(core):
        return ShardPlan(view.name, reason="outer join in view core")

    try:
        maps = _leaf_attr_maps(core, {a: a for a in attrs}, leaves)
    except Exception as err:
        return ShardPlan(
            view.name,
            reason=f"attribute tracing failed: {err!r}",
            failure=FailureEvent(
                reason=FailureReason.PLAN_TRACE_FAILED, detail=repr(err)
            ),
        )
    base_names = set(database.relation_names())
    maps = {n: m for n, m in maps.items() if n in base_names}
    if not maps:
        return ShardPlan(view.name, reason="no leaf resolves the shard key")

    # Candidate shard-key subsets: the full key, each leaf's resolvable
    # subset, and pairwise intersections of leaf subsets (a join view
    # often co-partitions both sides only on the shared join key).  Kept
    # in attrs order for determinism.
    leaf_subsets = [
        tuple(a for a in attrs if a in m) for m in maps.values()
    ]
    candidates = [attrs]
    for i, sub in enumerate(leaf_subsets):
        if sub and sub not in candidates:
            candidates.append(sub)
        for other in leaf_subsets[i + 1:]:
            both = tuple(a for a in sub if a in other)
            if both and both not in candidates:
                candidates.append(both)

    best: Optional[ShardPlan] = None
    best_score = -1
    for cand in candidates:
        partitioned = {
            name: tuple(m[a] for a in cand)
            for name, m in maps.items()
            if all(a in m for a in cand)
        }
        if not partitioned:
            continue
        score = _plan_score(partitioned, database)
        if score > best_score:
            best_score = score
            best = ShardPlan(view.name, attrs=cand, partitioned=partitioned)
    if best is None:
        return ShardPlan(view.name, reason="no partitionable leaf")
    return best


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Report of the most recent sharded evaluation (None before the first).
_LAST_REPORT: List[Optional[ShardRunReport]] = [None]


def last_shard_report() -> Optional[ShardRunReport]:
    """Metrics of the most recent sharded evaluation in this process."""
    return _LAST_REPORT[0]


def _run_local_task(task):
    """Evaluate one shard's task; returns ``(relation, seconds)``.

    Evaluation goes through :func:`repro.algebra.compiler.
    compiled_evaluate`: the expression ships as a tree (closures do not
    pickle), but the worker-side plan cache is keyed by structural
    fingerprint, so the per-round strategy trees — rebuilt objects,
    identical shapes — hit one plan compiled per pool lifetime.

    The relation is returned *as evaluated* — columnar-backed results
    (vectorized joins, the columnar merge) stay columnar.  On the
    process backend they therefore pickle as numpy column buffers
    instead of per-row tuples, which is both smaller and skips the
    worker-side row materialization entirely.

    When a fault plan is installed and the task carries its shard id
    (thread/serial execution — process workers get their faults as
    payload directives instead), the ``worker.raise`` / ``worker.stall``
    sites fire here, inside the shard evaluation.
    """
    expr, leaves = task[0], task[1]
    shard = task[2] if len(task) > 2 else None
    if shard is not None:
        plan = active_fault_plan()
        if plan is not None:
            spec = plan.check(WORKER_RAISE, shard)
            if spec is not None:
                raise InjectedFault(
                    WORKER_RAISE, shard,
                    spec.detail or "injected worker failure",
                )
            spec = plan.check(WORKER_STALL, shard)
            if spec is not None:
                time.sleep(max(spec.stall_s, 0.0))
    t0 = time.perf_counter()
    rel = compiled_evaluate(expr, leaves)
    return rel, time.perf_counter() - t0


def _apply_worker_toggles(family, columnar: bool) -> None:
    """Install the coordinator's evaluator toggles in a pool worker.

    Worker processes are long-lived (the pool persists across
    maintenance rounds), so the parent's current hash family and
    columnar flag ride along with every task instead of being frozen at
    fork time.
    """
    from repro.algebra.evaluator import columnar_enabled, set_columnar_enabled
    from repro.stats import hashing as _hashing

    if _hashing._active_family[0] is not family:
        # Installed directly (bypassing set_hash_family, which only
        # accepts registered names), so the plan-epoch bump that hook
        # performs must happen here too — a worker's cached plans must
        # not survive the coordinator switching families.
        _hashing._active_family[0] = family
        bump_plan_epoch()
    if columnar_enabled() != columnar:
        # repro: ignore[REP003] -- worker-side install, not a scoped flip: each pool worker mirrors the coordinator's toggles onto its own forked/threaded copy before running tasks, and the coordinator re-asserts them per round
        set_columnar_enabled(columnar)


def _run_worker_blob(blob: bytes):
    """Process-pool entry point: decode one task payload and evaluate.

    Payloads are pre-pickled by the coordinator (so shipped bytes can be
    accounted exactly, and so both transports share one worker).  Two
    shapes exist:

    * ``("pickle", expr, env, family, columnar, shard, directive)`` —
      the environment relations ride inside the payload.
    * ``("shm", expr, entries, live_ids, family, columnar, shard,
      directive)`` — each entry is either an
      :class:`~repro.distributed.transport.ExportManifest` to attach
      (cached across rounds, zero-copy) or an inlined small relation.
      ``live_ids`` evicts attachments whose export the coordinator
      retired.

    ``directive`` is the coordinator-decided chaos fault for this shard
    (None outside fault-injection runs): a ``(site, param)`` pair
    executed here so worker-side faults take exactly the paths real
    failures would — the fork child never consults the fault plan
    itself.
    """
    task = pickle.loads(blob)
    if task[0] == "shm":
        _, expr, entries, live_ids, family, columnar, shard, directive = task
        inject_attach = False
        if directive is not None:
            if directive[0] == SHM_ATTACH:
                inject_attach = True
            else:
                execute_worker_directive(directive[0], shard,
                                         directive[1] or 0.0)
        _transport.evict_stale(live_ids)
        env = {}
        for name, entry in entries.items():
            if isinstance(entry, _transport.ExportManifest):
                env[name] = _transport.attach_manifest(
                    entry, inject_failure=inject_attach
                )
                inject_attach = False  # one failure per directive
            else:
                env[name] = entry
        if inject_attach:
            # All-inline environment: fire the directive anyway so the
            # injected fault is always observable.
            raise _transport.SegmentAttachError(
                "<inline>", "injected segment attach failure"
            )
    else:
        _, expr, env, family, columnar, shard, directive = task
        if directive is not None:
            if directive[0] == SHM_ATTACH:
                raise _transport.SegmentAttachError(
                    "<pickle>", "injected segment attach failure"
                )
            execute_worker_directive(directive[0], shard, directive[1] or 0.0)
        # A pickle task means no export is live (either the transport
        # was never shm, or it fell back mid-session and the store was
        # closed) — drop any attachments left from earlier shm rounds
        # rather than holding the whole retired environment until the
        # pool dies.
        _transport.release_worker_cache()
    _apply_worker_toggles(family, columnar)
    return _run_local_task((expr, env))


# Persistent worker pool, keyed by (kind, max_workers).  Keeping the pool
# alive across maintenance rounds matters on CPython: tearing a forked
# pool down every round makes each short-lived child fault-copy the
# parent's heap during interpreter shutdown (refcount/GC writes on
# copy-on-write pages), which costs more than the evaluation itself.
_POOL: List = [None]
_POOL_KEY: List[Optional[tuple]] = [None]
_POOL_ATEXIT: List[bool] = [False]

#: Circuit breaker guarding the process backend.  One round-level
#: failure (the pool was unusable through every retry and the round had
#: to finish on the serial fallback) opens it; while open, rounds take
#: the thread backend; a half-open probe after the cooldown restores
#: the process fast path once the fault clears.  Replaces the old
#: *permanent* ``_PROCESS_DEMOTED`` flag.
_PROCESS_BREAKER = CircuitBreaker(
    "process-backend", failure_threshold=1, cooldown_s=30.0
)


def process_breaker() -> CircuitBreaker:
    """The breaker guarding the process backend (tests, introspection)."""
    return _PROCESS_BREAKER


def _get_pool(kind: str, workers: int):
    key = (kind, workers)
    if _POOL_KEY[0] != key and _POOL[0] is not None:
        _POOL[0].shutdown(wait=False, cancel_futures=True)
        _POOL[0] = None
    if _POOL[0] is None:
        if kind == "process":
            import multiprocessing

            try:
                # Start the resource tracker *before* forking workers so
                # every child inherits the parent's tracker.  A worker
                # that first touches shared memory with no inherited
                # tracker would lazily spawn its own, whose shutdown
                # then "cleans up" segments the coordinator still owns
                # (spurious unlink attempts and leak warnings).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            # repro: ignore[REP004] -- best-effort warm-up of a stdlib-private helper, not a recovery path: failure here only re-creates the lazy-spawn behavior the call tries to avoid, and the pool itself still reports faults through FailureEvent
            except Exception:  # pragma: no cover - tracker internals moved
                pass
            _POOL[0] = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        else:
            _POOL[0] = ThreadPoolExecutor(max_workers=workers)
        _POOL_KEY[0] = key
        if not _POOL_ATEXIT[0]:
            # Registered exactly once per process: shutdown is fully
            # idempotent, so the user calling it and atexit re-entering
            # it (in either order relative to the transport's own
            # close_store hook) is safe.
            _POOL_ATEXIT[0] = True
            import atexit

            atexit.register(shutdown_shard_pool)
    return _POOL[0]


def _teardown_pool() -> None:
    """Drop the persistent pool (recovery path — residency survives)."""
    pool, _POOL[0], _POOL_KEY[0] = _POOL[0], None, None
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        # repro: ignore[REP004] -- teardown of an already-broken executor: the breaking fault was recorded as a FailureEvent by the round that tripped it; a second event for the corpse's shutdown would double-count
        except Exception:  # pragma: no cover - broken executor internals
            pass


def shutdown_shard_pool() -> None:
    """End the sharded session: tear down the worker pool *and* unlink
    every shared-memory export (tests; end of benchmarks).

    Idempotent and order-independent: safe to call any number of times,
    before or after the transport's ``close_store`` atexit hook — the
    pool slot is cleared before the (possibly failing) shutdown call,
    and segment retirement guards against double-unlink.
    """
    pool, _POOL[0], _POOL_KEY[0] = _POOL[0], None, None
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        # repro: ignore[REP004] -- idempotent atexit/session teardown: there is no round in flight to attach a FailureEvent to, and the only goal is releasing OS resources on a possibly-broken executor
        except Exception:  # pragma: no cover - broken executor internals
            pass
    _transport.close_store()
    _transport.release_worker_cache()


def pool_demotion() -> Optional[str]:
    """Why the process backend is currently demoted (None while healthy).

    Backed by the circuit breaker: non-None while the breaker is open
    or probing (half-open); clears automatically once a probe round
    succeeds — demotion is no longer permanent.
    """
    return _PROCESS_BREAKER.describe() or None


def clear_pool_demotion() -> None:
    """Reset the process-backend breaker (tests; explicit opt-in)."""
    _PROCESS_BREAKER.reset()


def _encode_process_tasks(tasks, config: ShardConfig,
                          telemetry: Optional[RoundTelemetry] = None,
                          attempt: int = 0):
    """Pre-pickle per-shard payloads; returns ``(payloads, stats)``.

    Tasks are ``(expr, env, shard_id)`` triples.  Under the ``shm``
    transport every environment relation is exported through the
    resident store (identity-memoized — unchanged leaves cost zero
    bytes) and the payload carries manifests; under ``pickle`` the whole
    environment serializes into the payload.  ``stats.input_bytes``
    counts exactly what crosses the process boundary this round: payload
    pickles plus newly written shared-memory bytes.

    Fault-plan integration: worker-side faults (kill/raise/stall/attach)
    are decided here, one decision per shard, and shipped as payload
    directives; the ``shm.corrupt`` site flips bytes in one of the
    shard's freshly created segments.  A shared-memory *export* failure
    (real or injected at ``shm.export``) no longer disables shm for
    good: it records a failure on the transport's circuit breaker and
    falls back to pickle for this round — the breaker's half-open probe
    restores residency once the fault clears.
    """
    from repro.algebra.evaluator import columnar_enabled
    from repro.stats.hashing import get_hash_family

    if telemetry is None:
        telemetry = RoundTelemetry()
    family = get_hash_family()
    columnar = columnar_enabled()
    plan = active_fault_plan()
    directives: Dict[int, tuple] = {}
    if plan is not None:
        for _, _, shard in tasks:
            for site in (WORKER_KILL, WORKER_RAISE, WORKER_STALL, SHM_ATTACH):
                spec = plan.check(site, shard)
                if spec is not None:
                    directives[shard] = (site, spec.stall_s)
                    break
    breaker = _transport.shm_breaker()
    use_shm = config.transport == "shm" and _transport.shm_available()
    if use_shm and not breaker.allow():
        telemetry.demote("transport", "shm", "pickle",
                         FailureReason.BREAKER_OPEN, breaker.describe())
        use_shm = False
    if use_shm:
        store = _transport.get_store()
        store.begin_round()
        try:
            per_task = []
            for expr, env, shard in tasks:
                entries = {}
                exported = []
                for name, rel in env.items():
                    manifest = store.export((name, shard, config.count), rel)
                    entries[name] = manifest if manifest is not None else rel
                    if manifest is not None:
                        exported.append(manifest.export_id)
                if plan is not None:
                    # Corrupt only segments created *this* round: a
                    # resident segment may already be attached (cache
                    # hit skips verification), so corrupting it would
                    # produce garbage instead of a detected fault.
                    fresh = [e for e in exported if e in store.fresh_ids()]
                    if fresh and plan.check(SHM_CORRUPT, shard) is not None:
                        store.corrupt_export(fresh[0])
                per_task.append((expr, entries, shard))
            live = store.live_ids()
            payloads = [
                pickle.dumps(
                    ("shm", expr, entries, live, family, columnar, shard,
                     directives.get(shard)),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for expr, entries, shard in per_task
            ]
        except OSError as err:
            # /dev/shm full or missing mid-session: fall back to the
            # pickle transport for this round and open the transport
            # breaker — its half-open probe re-exports after the
            # cooldown instead of demoting for the rest of the session.
            store.rollback_round()
            breaker.record_failure(str(FailureReason.SHM_EXPORT_FAILED),
                                   repr(err))
            telemetry.record(FailureReason.SHM_EXPORT_FAILED,
                             attempt=attempt, detail=repr(err))
            telemetry.demote("transport", "shm", "pickle",
                             FailureReason.SHM_EXPORT_FAILED, repr(err))
            use_shm = False
        except BaseException:
            # Any other mid-encode failure (an unpicklable expression,
            # say) aborts the round before a single payload ships.  The
            # segments exported so far belong to a round that will never
            # run — retire them now, or a follow-up demotion to the
            # thread backend would orphan them in /dev/shm for the rest
            # of the session.
            store.rollback_round()
            raise
        else:
            breaker.record_success()
            written, resident, segments = store.round_stats()
            stats = TransportStats(
                transport="shm",
                input_bytes=sum(len(p) for p in payloads) + written,
                shm_written_bytes=written,
                shm_resident_bytes=resident,
                segments_created=segments,
            )
            return payloads, stats
    payloads = [
        pickle.dumps(
            ("pickle", expr, env, family, columnar, shard,
             directives.get(shard)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for expr, env, shard in tasks
    ]
    stats = TransportStats(
        transport="pickle", input_bytes=sum(len(p) for p in payloads)
    )
    return payloads, stats


#: Failure reasons worth retrying: infrastructure faults that a fresh
#: pool / re-attach / re-export can clear.  Everything else is the
#: work's own error — retrying cannot help, the serial reference path
#: should surface it.
_RETRYABLE = frozenset({
    FailureReason.POOL_BROKEN,
    FailureReason.POOL_UNAVAILABLE,
    FailureReason.SHARD_TIMEOUT,
    FailureReason.WORKER_FAULT,
    FailureReason.SEGMENT_ATTACH,
    FailureReason.SEGMENT_CORRUPT,
})


def _classify_failure(err: BaseException) -> FailureReason:
    """Map one shard failure to its machine-readable reason."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(err, _transport.SegmentIntegrityError):
        return FailureReason.SEGMENT_CORRUPT
    if isinstance(err, _transport.SegmentAttachError):
        return FailureReason.SEGMENT_ATTACH
    if isinstance(err, InjectedFault):
        return FailureReason.WORKER_FAULT
    if isinstance(err, (BrokenProcessPool, OSError)):
        return FailureReason.POOL_BROKEN
    return FailureReason.TASK_ERROR


#: Retry backoff: exponential from ``BACKOFF_BASE_S``, capped at
#: ``BACKOFF_CAP_S``, times a jitter in [0.5, 1.5).
BACKOFF_BASE_S = 0.02
BACKOFF_CAP_S = 2.0


def _backoff_sleep(attempt: int) -> None:
    """Jittered exponential backoff before retry ``attempt`` (>= 1).

    Deterministic under an installed fault plan (the jitter derives
    from the plan's seed) so chaos runs reproduce exactly; otherwise
    the jitter is ordinary randomness in [0.5, 1.5) of the base delay.
    """
    base = min(BACKOFF_BASE_S * (2 ** (attempt - 1)), BACKOFF_CAP_S)
    plan = active_fault_plan()
    unit = plan.jitter("backoff", attempt) if plan is not None \
        else random.random()
    time.sleep(base * (0.5 + unit))


def _run_process_round(tasks, config: ShardConfig, workers: int,
                       telemetry: RoundTelemetry):
    """Run one round on the process pool with retries and recovery.

    Per-shard futures with a shared per-attempt deadline; infrastructure
    failures (broken pool, timeout, worker fault, segment attach/
    checksum errors) are retried with backoff — only the failed shards
    re-encode and re-submit, completed shard results are kept.  Shards
    that fail every retry run on the serial in-process fallback
    (partial-round recovery, exact result).  Deterministic task errors
    skip retries and go straight to the fallback so the real exception
    surfaces from the reference path.
    """
    attempts = max(1, config.max_retries + 1)
    pending = set(range(len(tasks)))
    task_fallback: set = set()
    infra_fallback: set = set()
    results: Dict[int, tuple] = {}
    agg_stats: Optional[TransportStats] = None
    pool_results = 0
    torn_down = False
    rebuilt = False
    last_infra: Optional[Tuple[FailureReason, str]] = None

    for attempt in range(attempts):
        if not pending:
            break
        if attempt:
            telemetry.retries += 1
            _backoff_sleep(attempt)
        order = sorted(pending)
        try:
            payloads, stats = _encode_process_tasks(
                [tasks[i] for i in order], config, telemetry, attempt
            )
        except Exception as err:
            # Encoding must never be able to break maintenance: an
            # unpicklable environment value degrades to the in-process
            # path.  The work's fault, not the pool's — no retry, no
            # breaker penalty.
            telemetry.record(FailureReason.ENCODE_FAILED, attempt=attempt,
                             detail=repr(err))
            task_fallback |= pending
            pending = set()
            break
        agg_stats = _merge_transport_stats(agg_stats, stats)
        recovered_attempt = torn_down
        try:
            pool = _get_pool("process", min(workers, len(order)))
            futures = {
                i: pool.submit(_run_worker_blob, payload)
                for i, payload in zip(order, payloads)
            }
        except Exception as err:
            _teardown_pool()
            torn_down = True
            last_infra = (FailureReason.POOL_UNAVAILABLE, repr(err))
            telemetry.record(FailureReason.POOL_UNAVAILABLE,
                             attempt=attempt, detail=repr(err))
            continue
        _futures_wait(futures.values(), timeout=config.shard_timeout_s)
        pool_broken = False
        for i in order:
            fut = futures[i]
            shard = tasks[i][2]
            if not fut.done():
                fut.cancel()
                telemetry.record(
                    FailureReason.SHARD_TIMEOUT, shard=shard,
                    attempt=attempt,
                    detail=f"no result within {config.shard_timeout_s}s",
                )
                last_infra = (FailureReason.SHARD_TIMEOUT,
                              f"shard {shard} missed its deadline")
                # A stalled worker still occupies a pool slot — recycle
                # the pool so the retry gets fresh workers.
                pool_broken = True
                continue
            err = fut.exception()
            if err is None:
                results[i] = fut.result()
                pending.discard(i)
                pool_results += 1
                if recovered_attempt:
                    rebuilt = True
                continue
            reason = _classify_failure(err)
            telemetry.record(reason, shard=shard, attempt=attempt,
                             detail=repr(err))
            if reason not in _RETRYABLE:
                # The shard's own evaluation raised: hand it to the
                # serial reference path, which will surface the real
                # exception (or, for a transient miracle, the result).
                pending.discard(i)
                task_fallback.add(i)
                continue
            last_infra = (reason, repr(err))
            if reason is FailureReason.SEGMENT_CORRUPT:
                # Retire the corrupt export so the retry re-exports a
                # clean segment instead of re-attaching the bad one.
                store = _transport.peek_store()
                export_id = getattr(err, "export_id", "")
                if store is not None and export_id:
                    store.retire_export(export_id)
            if reason is FailureReason.POOL_BROKEN:
                pool_broken = True
        if pool_broken:
            _teardown_pool()
            torn_down = True

    if pending:
        # Infrastructure failures survived every retry: partial-round
        # recovery — the completed shards' results are kept, only the
        # failed ones run on the serial in-process fallback.
        infra_fallback = set(pending)
        pending = set()

    # Breaker bookkeeping *before* the fallback executes: the process
    # backend's health is decided by whether the pool did its job, not
    # by whether the work itself raises on the fallback path.
    if infra_fallback:
        reason, detail = last_infra or (FailureReason.POOL_BROKEN, "")
        _PROCESS_BREAKER.record_failure(str(reason), detail)
        telemetry.demote("backend", "process", "serial", reason, detail)
    elif pool_results:
        _PROCESS_BREAKER.record_success()

    for i in sorted(task_fallback | infra_fallback):
        results[i] = _run_local_task(tasks[i])
        if i in infra_fallback:
            telemetry.recovered.append(tasks[i][2])

    backend_used = "process" if pool_results else "serial"
    stats = agg_stats if (agg_stats is not None and pool_results) \
        else TransportStats(transport="local")
    stats.pool_rebuilt = rebuilt
    stats.demoted = _PROCESS_BREAKER.describe()
    ordered = [results[i] for i in range(len(tasks))]
    return ordered, backend_used, stats


def _run_thread_round(tasks, config: ShardConfig, workers: int,
                      telemetry: RoundTelemetry):
    """Run one round on the thread pool with the same hardening.

    Thread workers cannot be killed, but they can stall past the
    deadline (the pool is replaced — the stalled thread finishes into
    a discarded executor) and their evaluation can raise; both recover
    exactly like the process backend: retry infrastructure failures,
    fall back serially for whatever remains, keep completed results.
    """
    attempts = max(1, config.max_retries + 1)
    pending = set(range(len(tasks)))
    task_fallback: set = set()
    results: Dict[int, tuple] = {}
    pool_results = 0

    for attempt in range(attempts):
        if not pending:
            break
        if attempt:
            telemetry.retries += 1
            _backoff_sleep(attempt)
        order = sorted(pending)
        pool = _get_pool("thread", min(workers, len(order)))
        futures = {i: pool.submit(_run_local_task, tasks[i]) for i in order}
        _futures_wait(futures.values(), timeout=config.shard_timeout_s)
        stalled = False
        for i in order:
            fut = futures[i]
            shard = tasks[i][2]
            if not fut.done():
                fut.cancel()
                telemetry.record(
                    FailureReason.SHARD_TIMEOUT, shard=shard,
                    attempt=attempt,
                    detail=f"no result within {config.shard_timeout_s}s",
                )
                stalled = True
                continue
            err = fut.exception()
            if err is None:
                results[i] = fut.result()
                pending.discard(i)
                pool_results += 1
                continue
            reason = _classify_failure(err)
            telemetry.record(reason, shard=shard, attempt=attempt,
                             detail=repr(err))
            if reason not in _RETRYABLE:
                pending.discard(i)
                task_fallback.add(i)
        if stalled:
            _teardown_pool()

    infra_fallback = set(pending)
    for i in sorted(task_fallback | infra_fallback):
        results[i] = _run_local_task(tasks[i])
        if i in infra_fallback:
            telemetry.recovered.append(tasks[i][2])

    backend_used = "thread" if pool_results else "serial"
    stats = TransportStats(transport="local",
                           demoted=_PROCESS_BREAKER.describe())
    ordered = [results[i] for i in range(len(tasks))]
    return ordered, backend_used, stats


def _merge_transport_stats(
    agg: Optional[TransportStats], stats: TransportStats
) -> TransportStats:
    """Accumulate per-attempt transport stats into one round total."""
    if agg is None:
        return stats
    agg.transport = stats.transport
    agg.input_bytes += stats.input_bytes
    agg.shm_written_bytes += stats.shm_written_bytes
    agg.shm_resident_bytes = max(agg.shm_resident_bytes,
                                 stats.shm_resident_bytes)
    agg.segments_created += stats.segments_created
    return agg


def _run_tasks(tasks, config: ShardConfig):
    """Evaluate ``(expr, leaves, shard_id)`` tasks on the configured backend.

    Returns ``(results, backend_used, transport_stats, telemetry)``.
    Dispatches to the hardened process/thread round runners; while the
    process backend's circuit breaker is open (a recent round had to
    abandon the pool), rounds take the thread backend — the breaker's
    half-open probe sends one round back to the pool after the cooldown
    and a success restores the fast path.
    """
    telemetry = RoundTelemetry()
    backend = config.backend
    workers = min(config.workers(), max(1, len(tasks)))
    if backend == "process" and not hasattr(os, "fork"):
        backend = "thread"
    if backend == "process" and not _PROCESS_BREAKER.allow():
        telemetry.demote("backend", "process", "thread",
                         FailureReason.BREAKER_OPEN,
                         _PROCESS_BREAKER.describe())
        backend = "thread"
    if backend == "serial" or workers == 1 or len(tasks) <= 1:
        stats = TransportStats(transport="local",
                               demoted=_PROCESS_BREAKER.describe())
        return [_run_local_task(t) for t in tasks], "serial", stats, telemetry
    if backend == "process":
        results, used, stats = _run_process_round(
            tasks, config, workers, telemetry
        )
        return results, used, stats, telemetry
    results, used, stats = _run_thread_round(tasks, config, workers, telemetry)
    return results, used, stats, telemetry


def _concat_shard_parts(schema, parts: List[Relation]) -> Relation:
    """Concatenate per-shard results into one relation.

    When every non-empty part is still columnar-backed the result stays
    columnar: each output column is a lazy, value-faithful concatenation
    of the shard columns, so a maintenance round whose shards all
    produced batches (vectorized joins ending in the columnar merge)
    never builds row tuples at the coordinator — the maintained view
    materializes rows only if something reads them.  As soon as one part
    is row-backed (identity slices of the stale view, row-path
    fallbacks) the row lists are concatenated directly instead.
    """
    from repro.algebra.columnar import ColumnarRelation, concat_column_parts

    filled = [p for p in parts if len(p)]
    if not filled:
        return Relation(schema, [])
    if len(filled) == 1:
        only = filled[0]
        if only.is_materialized:
            return Relation.trusted(schema, only.rows)
        return Relation.from_columnar(only.columnar())
    if any(p.is_materialized for p in filled):
        rows: List[tuple] = []
        for p in filled:
            rows.extend(p.rows)
        return Relation.trusted(schema, rows)
    batches = [p.columnar() for p in filled]
    nrows = sum(b.nrows for b in batches)

    def concat(name):
        def build():
            # One multi-way pass: pairwise concatenation would re-copy
            # the growing prefix once per shard.
            return concat_column_parts([b.array(name) for b in batches])

        return build

    batch = ColumnarRelation.from_providers(
        schema, {c: concat(c) for c in schema.columns}, nrows
    )
    return Relation.from_columnar(batch)


def evaluate_sharded(
    expr: Expr,
    leaves: Mapping,
    plan: ShardPlan,
    config: Optional[ShardConfig] = None,
    skip_shards: Optional[List[int]] = None,
    identity_rows: Optional[List[List[tuple]]] = None,
) -> Relation:
    """Evaluate one expression per shard and concatenate the results.

    ``skip_shards`` marks shards whose evaluation is known to be the
    identity on the stale view (no pending delta rows route to them
    under a change-table strategy); their rows are taken directly from
    ``identity_rows`` without evaluating anything.
    """
    config = config or _CONFIG
    n = config.count
    # Only partition leaves the expression references: a change-table
    # strategy reads the delta leaves and the stale view but never the
    # (large) stale base relations — partitioning those would cost a full
    # pass for nothing.
    referenced = {leaf.name for leaf in expr.leaves()}
    partitions = {
        name: cols
        for name, cols in plan.leaf_partitions().items()
        if name in referenced
    }
    shard_envs = partition_leaves(dict(leaves), partitions, n)
    skip = set(skip_shards or ())
    if skip:
        # Skipped shards evaluate nothing, so their transport slots for
        # the *per-round* leaves — delta slices and the stale-view
        # partition, new objects every round by construction — pin dead
        # data.  Free those so a permanently cold shard does not keep
        # retired rounds resident in shared memory for the session.
        # Static leaves are deliberately left alone: their memoized
        # partitions are identity-stable, so the resident export is live
        # data this shard (or another view sharing the leaf) will reuse.
        # Replicated per-round leaves are unaffected either way: their
        # export stays alive through the active shards' slots.
        store = _transport.peek_store()
        if store is not None:
            per_round = {plan.view_name}
            for name in plan.partitioned:
                per_round.add(insertions_name(name))
                per_round.add(deletions_name(name))
            for s in skip:
                for name in referenced & per_round:
                    store.release_slot((name, s, n))

    tasks = []
    task_shards = []
    for s, env in enumerate(shard_envs):
        if s in skip:
            continue
        # Ship only the leaves the expression reads: smaller task
        # payloads for the process backend, same result everywhere.
        tasks.append(
            (expr, {k: v for k, v in env.items() if k in referenced}, s)
        )
        task_shards.append(s)

    results, backend_used, transport_stats, telemetry = _run_tasks(
        tasks, config
    )

    schema = None
    parts: List = []
    timings: List[ShardTiming] = []
    by_shard = dict(zip(task_shards, results))
    for s in range(n):
        if s in by_shard:
            rel, seconds = by_shard[s]
            if schema is None:
                schema = rel.schema
            parts.append(rel)
            timings.append(
                ShardTiming(shard=s, rows=len(rel), seconds=seconds,
                            skipped=False)
            )
        else:
            shard_rows = identity_rows[s] if identity_rows else []
            parts.append(shard_rows)
            timings.append(
                ShardTiming(shard=s, rows=len(shard_rows), seconds=0.0,
                            skipped=True)
            )
    if schema is None:
        # Every shard was skipped: the result is the reassembled input.
        schema = derive_schema(expr, leaves)
    # Identity slices arrive as raw (already-validated) row lists; wrap
    # them once the schema is known.
    parts = [
        p if isinstance(p, Relation) else Relation.trusted(schema, p)
        for p in parts
    ]
    out = _concat_shard_parts(schema, parts)
    try:
        out.key = derive_key(expr, leaves)
    except KeyDerivationError:
        out.key = None
    _LAST_REPORT[0] = ShardRunReport(
        view=plan.view_name,
        attrs=plan.attrs,
        backend=backend_used,
        shards=timings,
        partitioned=tuple(sorted(plan.partitioned)),
        transport=transport_stats,
        retries=telemetry.retries,
        timeouts=telemetry.timeouts,
        failures=tuple(telemetry.failures),
        demotions=tuple(telemetry.demotions),
        recovered=tuple(telemetry.recovered),
        breaker=_PROCESS_BREAKER.state,
    )
    return out


def _skippable_shards(view, plan: ShardPlan, n: int) -> Optional[List[int]]:
    """Shards guaranteed untouched by the pending deltas, or None.

    Only valid for change-table strategies (their merge with an empty
    change table is structurally the identity on the stale view).  A
    shard is skippable when every dirty relation of the view is
    partitioned and routes zero delta rows to it; one dirty *replicated*
    relation makes every shard non-skippable.
    """
    database = view.database
    view_leaves = {leaf.name for leaf in view.definition.leaves()}
    dirty = [name for name in database.deltas.dirty_relations()
             if name in view_leaves]
    if not dirty:
        return list(range(n))
    touched = set()
    for name in dirty:
        cols = plan.partitioned.get(name)
        if cols is None:
            return None
        delta = database.deltas.get(name)
        for rel in (delta.insertions_relation(), delta.deletions_relation()):
            for part_id, part in enumerate(partition_relation(rel, cols, n)):
                if part.rows:
                    touched.add(part_id)
    return [s for s in range(n) if s not in touched]


def run_sharded(
    view, expr: Expr, strategy, identity_source: Optional[Relation] = None,
    config: Optional[ShardConfig] = None,
) -> Optional[Relation]:
    """Shared sharded-evaluation flow for maintenance *and* cleaning.

    Evaluates ``expr`` (the strategy expression, or a cleaning
    expression built from it) per shard.  Under a change-table strategy
    the shards no delta row routes to are skipped and their rows are
    taken from ``identity_source`` — the stale view for maintenance, the
    dirty sample for cleaning (η of an untouched stale slice *is* the
    dirty sample's slice).  Returns ``None`` when sharding is off or the
    view is not shardable; the caller falls back to the single-shard
    reference path.
    """
    from repro.db.maintenance import CHANGE_TABLE

    config = config or _CONFIG
    if config.count <= 1:
        return None
    plan = plan_shards(view)
    if not plan.shardable:
        return None

    skip = None
    identity_rows = None
    if strategy.kind == CHANGE_TABLE and identity_source is not None:
        skip = _skippable_shards(view, plan, config.count)
        if skip:
            identity_rows = [
                part.rows
                for part in partition_relation(
                    identity_source, plan.attrs, config.count
                )
            ]
    return evaluate_sharded(
        expr,
        view.database.leaves(),
        plan,
        config,
        skip_shards=skip,
        identity_rows=identity_rows,
    )


def maintain_sharded(view, strategy, config: Optional[ShardConfig] = None):
    """Run one maintenance strategy sharded; returns the new relation.

    Returns ``None`` when the view is not shardable (caller falls back
    to the single-shard reference path).
    """
    return run_sharded(
        view, strategy.expr, strategy,
        identity_source=view.require_data(), config=config,
    )
