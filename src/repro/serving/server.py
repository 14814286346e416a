"""The always-on SVC serving layer.

:class:`ViewServer` turns the repository's batch pipeline — ingest
deltas, maintain views, query — into a concurrent service:

* **Ingest** — producers enqueue delta batches into a bounded queue and
  return immediately; only the maintainer folds them into the database.
  Backpressure is the queue bound: when maintenance cannot keep up,
  producers block (or time out) instead of growing memory without
  limit.
* **Serve** — :meth:`query` answers SVC point estimates from the
  current :class:`~repro.serving.epochs.ViewSnapshot`, pinned for the
  duration of the read.  Reads never take the maintenance lock and
  never touch live mutable state, so a query in flight is unaffected by
  a concurrent maintenance round publishing the next epoch.
* **Maintain** — each tick drains the ingest queue, asks the
  :class:`~repro.serving.scheduler.FreshnessScheduler` which views to
  clean within the tick's time budget, runs the cleaning rounds through
  the normal engine (compiled plans, sharded execution — whatever the
  global toggles say), and publishes one new epoch per cleaned view.
  When pending updates outgrow sampled cleaning, the tick escalates to
  a full maintenance period: every catalog view is maintained, the
  global deltas are applied, and every served view re-anchors.
* **Degrade, never die** — a cleaning round that raises (an engine bug,
  an injected chaos fault) leaves the view's last published epoch in
  place: readers keep getting answers, the failure is surfaced as a
  ``kind="failed"`` round report and counted in :class:`ServerStats`,
  and the view's staleness keeps growing so the scheduler re-prioritizes
  it.  After ``FreshnessSLA.max_round_failures`` consecutive failures
  the scheduler escalates to a full re-anchoring maintenance period.
  A full period that fails mid-way rolls every view back to its
  pre-period state (deltas stay pending — nothing is half-applied), and
  a scheduler crash is absorbed as an empty tick.

The server can run its maintainer inline (call :meth:`run_tick` from
your own loop — deterministic, used by the tests) or in a background
thread (:meth:`start` / :meth:`stop`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.estimators import AggQuery
from repro.core.svc import StaleViewCleaner
from repro.db.catalog import Catalog
from repro.distributed.shard import last_shard_report
from repro.errors import EstimationError, MaintenanceError
from repro.serving.epochs import EpochManager, ViewSnapshot
from repro.serving.metrics import (
    LatencyRecorder,
    RoundLog,
    ServerStats,
    ServingRoundReport,
)
from repro.serving.scheduler import (
    FreshnessScheduler,
    FreshnessSLA,
    TickPlan,
    ViewLoad,
)
from repro.reliability.faults import SERVING_MAINTENANCE, fault_check
from repro.reliability.telemetry import FailureEvent, FailureReason

#: Smoothing weight of the newest round in :class:`CostEwma`.
COST_EWMA_ALPHA = 0.3
#: One round moves :class:`CostEwma` to at most this multiple of it.
COST_SPIKE_CLAMP = 3.0


@dataclass
class CostEwma:
    """Exponentially-weighted round-cost estimate with bounded spike uptake.

    The one addition over a plain EWMA is the **spike clamp**: a single
    pathological round (GC pause, fault-injection kill + serial
    recovery, cold cache) is absorbed at no more than
    ``COST_SPIKE_CLAMP``× the current estimate.  Without it, one 500×
    spike inflates the predicted cost so far past any scheduler budget
    that the view is skipped every tick — and because skipped views
    never run, the estimate never corrects: permanent starvation from one
    bad round.  With the clamp the estimate grows geometrically, so a
    *genuine* cost regime change is still learned within a few rounds
    while a one-off spike decays away.
    """

    _value: float = field(default=0.0, repr=False)
    count: int = 0

    @property
    def value(self) -> float:
        return self._value

    def update(self, seconds: float) -> float:
        """Fold one observed round cost in; returns the new estimate."""
        sample = max(float(seconds), 0.0)
        if self.count == 0 or self._value <= 0.0:
            self._value = sample
        else:
            sample = min(sample, COST_SPIKE_CLAMP * self._value)
            self._value = ((1.0 - COST_EWMA_ALPHA) * self._value
                           + COST_EWMA_ALPHA * sample)
        self.count += 1
        return self._value

    def reset(self, value: float = 0.0) -> None:
        """Overwrite the estimate (legacy direct-assignment path)."""
        self._value = max(float(value), 0.0)
        self.count = 1 if value > 0.0 else 0


@dataclass
class IngestBatch:
    """One producer-submitted delta batch."""

    relation: str
    inserts: Tuple[tuple, ...] = ()
    deletes: Tuple[tuple, ...] = ()

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes)


@dataclass
class _ServedView:
    """Maintainer-side state of one registered view."""

    view: object
    sla: FreshnessSLA
    seed: int
    epochs: EpochManager = field(default_factory=EpochManager)
    #: Cleaners cached per (quantized) sampling ratio: the degraded
    #: rounds reuse them so a repeat degradation costs no re-anchor.
    cleaners: Dict[float, StaleViewCleaner] = field(default_factory=dict)
    last_round_t: float = 0.0
    #: Spike-clamped smoothed seconds per cleaning round at the SLA's
    #: target ratio — the scheduler's ``predicted_cost_s``.  The clamp
    #: keeps one pathological round from inflating the prediction past
    #: every future budget (permanent starvation); see :class:`CostEwma`.
    cost_predictor: CostEwma = field(default_factory=CostEwma)
    traffic_ewma: float = 0.0
    reads_since_round: int = 0
    #: Consecutive failed rounds (reset by any successful publish).
    consecutive_failures: int = 0
    #: repr of the most recent round failure ("" while healthy).
    last_failure: str = ""

    @property
    def cost_ewma_s(self) -> float:
        """The predicted round cost (legacy name; reads the predictor)."""
        return self.cost_predictor.value

    @cost_ewma_s.setter
    def cost_ewma_s(self, value: float) -> None:
        self.cost_predictor.reset(value)

    def cleaner(self, ratio: float) -> StaleViewCleaner:
        ratio = max(round(ratio, 4), 1e-4)
        svc = self.cleaners.get(ratio)
        if svc is None:
            svc = StaleViewCleaner(self.view, ratio=ratio, seed=self.seed)
            self.cleaners[ratio] = svc
        return svc


class ViewServer:
    """Concurrent ingest + SVC query front end over a :class:`Catalog`.

    Parameters
    ----------
    catalog:
        The catalog whose views are served.  Full-maintenance rounds go
        through ``catalog.maintain_all`` so *every* catalog view stays
        maintainable (deltas are database-global).
    scheduler:
        Budget policy; defaults to ``FreshnessScheduler(budget_s=0.25)``.
    queue_capacity:
        Ingest queue bound (producer backpressure point).
    clock:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(
        self,
        catalog: Catalog,
        scheduler: Optional[FreshnessScheduler] = None,
        queue_capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.catalog = catalog
        self.db = catalog.database
        self.scheduler = scheduler or FreshnessScheduler()
        self._clock = clock
        self._queue: "queue.Queue[IngestBatch]" = queue.Queue(queue_capacity)
        self._served: Dict[str, _ServedView] = {}
        #: Guards the database, the catalog, and round execution.  The
        #: read path never takes it.
        self._maintenance_lock = threading.RLock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self.read_latency = LatencyRecorder()
        self.rounds = RoundLog()
        self._stats_lock = threading.Lock()
        self._reads = 0
        self._per_view_reads: Dict[str, int] = {}
        self._ingested_batches = 0
        self._ingested_rows = 0
        self._round_count = 0
        self._degraded_count = 0
        self._full_count = 0
        self._failed_count = 0
        self._scheduler_failures = 0
        #: Most recent failure events (bounded): every swallowed
        #: exception in the serving failure domain lands here with a
        #: machine-readable FailureReason, so degraded operation stays
        #: auditable after the fact.
        self._failures: Deque[FailureEvent] = deque(maxlen=64)
        self._watermark = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        view_name: str,
        ratio: float = 0.1,
        sla: Optional[FreshnessSLA] = None,
        seed: int = 0,
    ) -> ViewSnapshot:
        """Serve a catalog view; publishes its first epoch immediately.

        ``ratio`` becomes the SLA's target sampling ratio when ``sla``
        is not given.
        """
        if view_name in self._served:
            raise MaintenanceError(f"view {view_name!r} is already served")
        view = self.catalog.view(view_name)
        if sla is None:
            sla = FreshnessSLA(target_ratio=ratio,
                               min_ratio=min(0.01, ratio))
        served = _ServedView(view=view, sla=sla, seed=seed)
        served.last_round_t = self._clock()
        with self._maintenance_lock:
            svc = served.cleaner(sla.target_ratio)
            svc.refresh()
            self._served[view_name] = served
            self._publish(served, svc, "fresh")
        return served.epochs.current()

    def served_views(self) -> List[str]:
        return list(self._served)

    def epoch_manager(self, view_name: str) -> EpochManager:
        """The epoch manager of one served view (tests, introspection)."""
        return self._require(view_name).epochs

    def _require(self, view_name: str) -> _ServedView:
        try:
            return self._served[view_name]
        except KeyError:
            raise MaintenanceError(
                f"view {view_name!r} is not served; register() it first"
            ) from None

    # ------------------------------------------------------------------
    # Ingest (producer side)
    # ------------------------------------------------------------------
    def ingest(
        self,
        relation: str,
        inserts: Sequence[tuple] = (),
        deletes: Sequence[tuple] = (),
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Enqueue one delta batch against a base relation.

        Producers never touch the database — the maintainer folds the
        batch in at the start of its next tick, which is what makes
        concurrent ingest safe without a producer-side lock.  Raises
        ``queue.Full`` when the bounded queue stays full past
        ``timeout`` (backpressure).
        """
        self.db.relation(relation)  # validate the name eagerly
        batch = IngestBatch(
            relation=relation,
            inserts=tuple(tuple(r) for r in inserts),
            deletes=tuple(tuple(r) for r in deletes),
        )
        self._queue.put(batch, block=block, timeout=timeout)
        self._wake.set()

    def pending_batches(self) -> int:
        """Batches enqueued but not yet folded into the database."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Query (reader side)
    # ------------------------------------------------------------------
    def query(
        self,
        view_name: str,
        agg_query: AggQuery,
        method: str = "corr",
        confidence: float = 0.95,
    ):
        """SVC estimate against the view's current epoch.

        Lock-free with respect to maintenance: the epoch pin guarantees
        a complete, internally consistent snapshot for the whole
        evaluation, while any number of maintenance rounds publish new
        epochs concurrently.
        """
        served = self._require(view_name)
        start = time.perf_counter()
        with served.epochs.pin() as snap:
            est = snap.estimate(agg_query, method=method,
                                confidence=confidence)
        self.read_latency.record(time.perf_counter() - start)
        with self._stats_lock:
            self._reads += 1
            self._per_view_reads[view_name] = (
                self._per_view_reads.get(view_name, 0) + 1
            )
        served.reads_since_round += 1
        return est

    def snapshot(self, view_name: str) -> ViewSnapshot:
        """The current epoch's snapshot (no pin — for inspection)."""
        snap = self._require(view_name).epochs.current()
        if snap is None:  # pragma: no cover - register() always publishes
            raise EstimationError(f"view {view_name!r} has no epoch yet")
        return snap

    # ------------------------------------------------------------------
    # Maintenance (writer side)
    # ------------------------------------------------------------------
    def run_tick(self, budget_s: Optional[float] = None) -> List[ServingRoundReport]:
        """One synchronous maintainer tick.

        Drains the ingest queue, plans cleaning rounds within the time
        budget, executes them, and escalates to full maintenance when
        the scheduler requests it.  Returns the reports of the rounds
        that ran.

        A scheduler that raises does not take the server down: the tick
        degrades to an empty plan (no rounds, every view holds its
        epoch), the failure is counted, and the next tick replans from
        scratch.
        """
        with self._maintenance_lock:
            self._drain_queue()
            try:
                plan = self.scheduler.plan(self._loads(), budget_s)
            except Exception as err:
                with self._stats_lock:
                    self._scheduler_failures += 1
                    self._failures.append(FailureEvent(
                        reason=FailureReason.SCHEDULER_ERROR,
                        detail=repr(err),
                    ))
                plan = TickPlan()
            reports: List[ServingRoundReport] = []
            if plan.full_maintenance:
                reports.extend(self.maintain_now())
                # The period closed: every served view is fresh, the
                # planned sampled rounds would clean empty deltas.
                return reports
            for planned in plan.rounds:
                served = self._served.get(planned.view)
                if served is None:  # pragma: no cover - dropped mid-plan
                    continue
                reports.append(self._clean_round(
                    served, planned.ratio, degraded=planned.degraded
                ))
            return reports

    def maintain_now(self) -> List[ServingRoundReport]:
        """Run a full maintenance period and republish every view.

        Every *catalog* view is maintained (deltas are global — applying
        them after maintaining only the served subset would strand the
        rest), deltas fold into the bases, and each served view's
        cleaners re-anchor on the fresh state.

        Failure domain: ``maintain_all`` maintains views one by one and
        folds the deltas only at the end, so an exception mid-period
        would leave some views maintained and the deltas still pending —
        the next successful period would then apply those views' changes
        *twice*.  The rollback prevents that: every catalog view's data
        is restored to its pre-period relation (a cheap reference swap —
        relations are immutable), the deltas stay pending, and each
        served view keeps answering from its held epoch with a
        ``kind="failed"`` report.
        """
        with self._maintenance_lock:
            self._drain_queue()
            start = time.perf_counter()
            shard_report = last_shard_report()
            saved = {v.name: v.data for v in self.catalog}
            try:
                fault = fault_check(SERVING_MAINTENANCE)
                if fault is not None:
                    raise MaintenanceError(
                        fault.detail or "injected maintenance failure"
                    )
                self.catalog.maintain_all()
            except Exception as err:
                for view in self.catalog:
                    prev = saved.get(view.name)
                    if prev is not None and view.data is not prev:
                        view.data = prev
                        self.db.register_view_data(view.name, prev)
                seconds = time.perf_counter() - start
                return [
                    self._failed_round(served, err, served.sla.target_ratio,
                                       seconds)
                    for served in self._served.values()
                ]
            reports = []
            for served in self._served.values():
                try:
                    for svc in served.cleaners.values():
                        svc.advance()
                    svc = served.cleaner(served.sla.target_ratio)
                    # No deltas pending: re-samples the fresh view.
                    svc.refresh()
                except Exception as err:
                    # This view's re-anchor failed; the others proceed.
                    # Its cleaners' sample state is suspect — drop them
                    # so the next round rebuilds from scratch.
                    served.cleaners.clear()
                    reports.append(self._failed_round(
                        served, err, served.sla.target_ratio,
                        time.perf_counter() - start,
                    ))
                    continue
                snap = self._publish(served, svc, "fresh")
                report = ServingRoundReport(
                    view=served.view.name,
                    kind="maintained",
                    ratio=svc.ratio,
                    seconds=time.perf_counter() - start,
                    epoch=snap.epoch,
                    pending_rows=0,
                    queries_since_last=served.reads_since_round,
                    shard_backend=self._round_backend(shard_report),
                )
                self._finish_round(served, report, degraded=False,
                                   update_cost=False)
                reports.append(report)
            with self._stats_lock:
                self._full_count += 1
            return reports

    def _clean_round(
        self, served: _ServedView, ratio: float, degraded: bool
    ) -> ServingRoundReport:
        """One sampled-cleaning round: refresh Ŝ' and publish an epoch.

        A refresh that raises publishes nothing: the last epoch stays
        current (readers are untouched), the cleaner whose mid-refresh
        state is now suspect is dropped, and the failure is surfaced as
        a ``kind="failed"`` report.
        """
        pending = self._pending_rows(served.view)
        svc = served.cleaner(ratio)
        start = time.perf_counter()
        shard_report = last_shard_report()
        try:
            fault = fault_check(SERVING_MAINTENANCE)
            if fault is not None:
                raise MaintenanceError(
                    fault.detail or "injected maintenance failure"
                )
            svc.refresh()
        except Exception as err:
            # Drop the (possibly half-refreshed) cleaner so the retry
            # builds clean sample state instead of compounding the
            # damage.
            served.cleaners = {
                r: c for r, c in served.cleaners.items() if c is not svc
            }
            return self._failed_round(served, err, ratio,
                                      time.perf_counter() - start,
                                      pending=pending)
        seconds = time.perf_counter() - start
        snap = self._publish(
            served, svc, "degraded" if degraded else "cleaned"
        )
        report = ServingRoundReport(
            view=served.view.name,
            kind="degraded" if degraded else "cleaned",
            ratio=svc.ratio,
            seconds=seconds,
            epoch=snap.epoch,
            pending_rows=pending,
            queries_since_last=served.reads_since_round,
            shard_backend=self._round_backend(shard_report),
        )
        # Predict future full-ratio rounds from this one: cleaning cost
        # is ~linear in the ratio, so normalize before smoothing.
        target = served.sla.target_ratio
        normalized = seconds * (target / max(svc.ratio, 1e-9))
        self._finish_round(served, report, degraded=degraded,
                           update_cost=True, normalized_cost=normalized)
        return report

    def _failed_round(
        self,
        served: _ServedView,
        err: Exception,
        ratio: float,
        seconds: float,
        pending: Optional[int] = None,
    ) -> ServingRoundReport:
        """Record one failed round; the view keeps its current epoch.

        Deliberately does *not* touch ``last_round_t``: the view's
        staleness keeps growing through failures, which is what makes
        the scheduler re-prioritize it (and, past the SLA's
        ``max_round_failures``, escalate to full maintenance).
        """
        served.consecutive_failures += 1
        served.last_failure = repr(err)
        current = served.epochs.current()
        report = ServingRoundReport(
            view=served.view.name,
            kind="failed",
            ratio=ratio,
            seconds=seconds,
            epoch=current.epoch if current is not None else -1,
            pending_rows=(pending if pending is not None
                          else self._pending_rows(served.view)),
            queries_since_last=served.reads_since_round,
            failure=f"{FailureReason.MAINTENANCE_FAILED}: {err!r}",
        )
        self.rounds.append(report)
        with self._stats_lock:
            self._failed_count += 1
            self._failures.append(FailureEvent(
                reason=FailureReason.MAINTENANCE_FAILED,
                detail=f"{served.view.name}: {err!r}",
            ))
        return report

    def recent_failures(self) -> List[FailureEvent]:
        """The last failure events (newest last), machine-readable.

        Covers every swallowed exception in the serving domain: failed
        maintenance/cleaning rounds and scheduler planning errors.
        Bounded (the deque drops the oldest), so polling it is cheap.
        """
        with self._stats_lock:
            return list(self._failures)

    def view_health(self, view_name: str) -> Tuple[int, str]:
        """``(consecutive_failures, last_failure)`` of one served view."""
        served = self._require(view_name)
        return served.consecutive_failures, served.last_failure

    def _finish_round(
        self,
        served: _ServedView,
        report: ServingRoundReport,
        degraded: bool,
        update_cost: bool,
        normalized_cost: float = 0.0,
    ) -> None:
        if update_cost:
            served.cost_predictor.update(normalized_cost)
        served.traffic_ewma = (
            0.5 * served.traffic_ewma + 0.5 * served.reads_since_round
        )
        served.reads_since_round = 0
        served.last_round_t = self._clock()
        served.consecutive_failures = 0
        served.last_failure = ""
        self.rounds.append(report)
        with self._stats_lock:
            self._round_count += 1
            if degraded:
                self._degraded_count += 1

    def _publish(
        self, served: _ServedView, svc: StaleViewCleaner, mode: str
    ) -> ViewSnapshot:
        view = served.view
        snap = ViewSnapshot(
            view_name=view.name,
            stale=view.require_data(),
            dirty_sample=svc.dirty_sample,
            clean_sample=svc.clean_sample,
            ratio=svc.ratio,
            key=view.key,
            mode=mode,
            watermark=self._watermark,
        )
        return served.epochs.publish(snap)

    def _drain_queue(self) -> None:
        """Fold every enqueued batch into the database (maintainer only)."""
        while True:
            try:
                batch = self._queue.get_nowait()
            except queue.Empty:
                return
            if batch.inserts:
                self.db.insert(batch.relation, batch.inserts)
            if batch.deletes:
                self.db.delete(batch.relation, batch.deletes)
            self._watermark += 1
            with self._stats_lock:
                self._ingested_batches += 1
                self._ingested_rows += len(batch)

    def _loads(self) -> List[ViewLoad]:
        now = self._clock()
        loads = []
        for served in self._served.values():
            view = served.view
            pending, base = self._pending_counts(view)
            loads.append(ViewLoad(
                name=view.name,
                sla=served.sla,
                staleness_s=max(now - served.last_round_t, 0.0),
                pending_fraction=pending / max(base, 1),
                traffic=served.traffic_ewma,
                predicted_cost_s=served.cost_ewma_s,
                failures=served.consecutive_failures,
            ))
        return loads

    def _pending_counts(self, view) -> Tuple[int, int]:
        """(pending delta rows, base rows) over the view's base leaves.

        The escalation threshold compares against the *base* data volume
        — the paper's pending-update fraction — not the (much smaller)
        aggregated view, which would trip full maintenance on every
        batch.
        """
        names = {leaf.name for leaf in view.definition.leaves()}
        pending = base = 0
        for name in names:
            try:
                rel = self.db.relation(name)
            except MaintenanceError:
                continue  # a view-over-view leaf: not delta-bearing
            base += len(rel)
            delta = self.db.deltas.get(name)
            if delta is not None:
                pending += len(delta.inserted) + len(delta.deleted)
        return pending, base

    def _pending_rows(self, view) -> int:
        """Pending delta rows touching any base leaf of ``view``."""
        return self._pending_counts(view)[0]

    @staticmethod
    def _round_backend(before) -> str:
        """The shard backend of this round ("" if it ran single-shard).

        ``before`` is the shard report seen at round start: the report
        is module-global, so one left over from an earlier round (or
        another view) must not label this one.
        """
        report = last_shard_report()
        if report is None or report is before:
            return ""
        return report.backend

    # ------------------------------------------------------------------
    # Background maintainer
    # ------------------------------------------------------------------
    def start(self, tick_interval: float = 0.05) -> None:
        """Run the maintainer loop in a background thread."""
        if self._thread is not None:
            raise MaintenanceError("server already started")
        self._stopping.clear()

        def loop():
            while not self._stopping.is_set():
                self._wake.wait(timeout=tick_interval)
                self._wake.clear()
                if self._stopping.is_set():
                    return
                self.run_tick()

        self._thread = threading.Thread(
            target=loop, name="svc-view-server", daemon=True
        )
        self._thread.start()

    def stop(self, final_tick: bool = True) -> None:
        """Stop the maintainer thread (drains the queue once by default)."""
        if self._thread is None:
            return
        self._stopping.set()
        self._wake.set()
        self._thread.join(timeout=30.0)
        self._thread = None
        if final_tick:
            self.run_tick()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        with self._stats_lock:
            return ServerStats(
                reads=self._reads,
                ingested_batches=self._ingested_batches,
                ingested_rows=self._ingested_rows,
                rounds=self._round_count,
                degraded_rounds=self._degraded_count,
                full_maintenance_rounds=self._full_count,
                maintenance_failures=self._failed_count,
                scheduler_failures=self._scheduler_failures,
                read_p50_s=self.read_latency.percentile(50),
                read_p99_s=self.read_latency.percentile(99),
                per_view_reads=dict(self._per_view_reads),
            )

    def __repr__(self):
        return (
            f"<ViewServer views={sorted(self._served)} "
            f"pending={self.pending_batches()} rounds={self._round_count}>"
        )
