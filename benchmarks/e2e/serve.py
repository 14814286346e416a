"""The ``serve_mixed`` workload: a ViewServer under writes and reads.

Each replica is a server of its own and goes through three phases, all
from this one thread (the server's maintainer is the only other busy
thread):

A. *Background maintainer running.*  Ingest is **open loop**: one batch
   per fixed period, stamped with its due time; lateness of the
   generator is reported.  Reads are **closed loop** (one client) in the
   gaps between due times (one period = one read segment).  After every
   read the published watermark is polled, which gives each batch its
   visible lag: due time → first epoch of every served view that covers
   it.
B. *Maintainer stopped, idle reads* on a cleaned epoch — the same reads
   without GIL contention.
C. *Foreground periods*, deterministic: ingest → ``run_tick()`` →
   battery (the SVC span), then ingest → ``maintain_now()`` → exact
   battery (the IVM span over a fixed two-batch backlog).

A serial ``Catalog`` fed the same batches is the oracle for the served
views and supplies the exact answers the estimates are scored against.
Timings follow ``harness.fastest``: every batch, period and foreground
span counts, at the fastest of the replicas' runs of it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import List

import harness
from batch import RATIO, Accuracy, battery_for, scaled, supported
from harness import Replica, RunRecord, now, quiesce

from repro import Catalog, FreshnessSLA, StaleViewCleaner, ViewServer
from repro.algebra.compiler import compile_count
from repro.core import svc_aqp, svc_corr
from repro.db import choose_strategy
from repro.serving import FreshnessScheduler
from repro.workloads import (
    ConvivaGenerator,
    conviva_query_attrs,
    create_conviva_views,
)
from repro.workloads.conviva import LOG

#: A count-only view and a sum/avg view — the two merge shapes.
VIEWS = ("V1", "V8")

#: Per replica.  ``batches`` scale with ``--seconds``.
SIZES = {
    "full": dict(records=20_000, batch_rows=400, period_s=0.1, batches=20,
                 queries_per_view=6, idle_reads=120, fg_periods=8),
    "smoke": dict(records=800, batch_rows=20, period_s=0.03, batches=4,
                  queries_per_view=2, idle_reads=12, fg_periods=2),
}
#: The maintainer wakes on ingest; this only bounds an idle wait.
TICK_INTERVAL_S = 5.0
#: A view is due for a round as soon as anything was ingested.
SLA = FreshnessSLA(max_staleness_s=1e-3, target_ratio=RATIO, min_ratio=0.01)
TICK_BUDGET_S = 1.0
#: Foreground periods run before the measured ones.
FG_WARMUP = 2


@dataclass
class ServeState:
    gen: ConvivaGenerator
    catalog: Catalog
    server: ViewServer


def build(seed: int, size: dict) -> ServeState:
    """Generate the log, materialise the views, start the server."""
    gen = ConvivaGenerator(seed=seed)
    db = gen.build(size["records"])
    catalog = Catalog(db)
    create_conviva_views(db, names=list(VIEWS), catalog=catalog)
    server = ViewServer(catalog, scheduler=FreshnessScheduler(TICK_BUDGET_S))
    for name in VIEWS:
        server.register(name, sla=SLA, seed=seed)
    server.start(tick_interval=TICK_INTERVAL_S)
    return ServeState(gen, catalog, server)


def battery(state: ServeState, seed: int, per_view: int) -> List[tuple]:
    """(view name, query, accuracy pooled) in a fixed order."""
    plan = []
    for name in VIEWS:
        snap = state.server.snapshot(name)
        queries = battery_for(snap.stale, *conviva_query_attrs(name),
                              per_view, seed)
        plan += [(name, query, pooled) for query, pooled in zip(
            queries, supported(queries, snap.dirty_sample))]
    return plan


def published_watermark(server: ViewServer) -> int:
    """Batches covered by the current epoch of *every* served view."""
    return min(server.snapshot(name).watermark for name in VIEWS)


def phase_background(run: RunRecord, rep: Replica, plan, batches,
                     period_s: float) -> int:
    """Phase A; lags, lateness, ingest calls and read segments go to
    ``rep``.  Returns the deepest ingest queue seen."""
    server = rep.state.server
    base = published_watermark(server)
    estimates = []
    waiting: deque = deque()
    depth_max = 0
    quiesce()
    origin = now() + 0.02
    sent = reads = 0
    deadline = origin + len(batches) * period_s + 60.0
    while sent < len(batches) or waiting:
        due = origin + sent * period_s
        if sent < len(batches) and now() >= due:
            start = now()
            rep.times["late"].append(start - due)
            run.op("serve.ingest", server.ingest, LOG, batches[sent])
            rep.times["ingest_call"].append(now() - start)
            depth_max = max(depth_max, server.pending_batches())
            sent += 1
            waiting.append((base + sent, due))
            rep.reads.append({"seconds": 0.0, "latencies": []})
            continue
        if not rep.reads:  # before the first due time
            continue
        name, query, _ = plan[reads % len(plan)]
        start = now()
        estimates.append(run.op("serve.query", server.query, name, query))
        rep.reads[-1]["latencies"].append(now() - start)
        reads += 1
        covered = published_watermark(server)
        seen = now()
        rep.reads[-1]["seconds"] += seen - start
        while waiting and waiting[0][0] <= covered:
            rep.times["lag"].append(seen - waiting.popleft()[1])
        if seen > deadline:
            run.check(False, f"{len(waiting)} batches never became visible")
            break
    for est in estimates:
        run.check_estimate(est, "served read")
    return depth_max


class Oracle:
    """A serial Catalog over an identical database, fed the same batches.

    On the replay replica its steps are timed as the per-layer children
    of the server's facade calls (same data, same code path, no server —
    and no relation shared with the server, so nothing is warmed).
    """

    def __init__(self, seed: int, size: dict, replay: bool):
        self.replay = replay
        self.db = ConvivaGenerator(seed=seed).build(size["records"])
        self.catalog = Catalog(self.db)
        create_conviva_views(self.db, names=list(VIEWS), catalog=self.catalog)
        #: Stand-ins for the server's cleaners (replay replica only).
        self.cleaners = {
            name: StaleViewCleaner(self.catalog.view(name), ratio=RATIO, seed=seed)
            for name in VIEWS
        } if replay else {}

    def feed(self, run: RunRecord, rows, parent=None) -> None:
        if self.replay:
            run.child("db.ingest_s", parent, self.db.insert, LOG, rows)
            run.counts["db.ingest_rows"] += len(rows) if run.measuring else 0
        else:
            self.db.insert(LOG, rows)

    def clean(self, run: RunRecord, parent) -> None:
        """Replay: the cleaning rounds ``run_tick()`` is about to run."""
        for name, cleaner in self.cleaners.items():
            run.child("db.maintenance.strategy_s", None, choose_strategy,
                      self.catalog.view(name))
            run.child("core.cleaning.refresh_s", parent, cleaner.refresh)
            if run.measuring:
                run.counts["core.cleaning.sample_rows"] += len(cleaner.clean_sample)

    def maintain(self, run: RunRecord, parent=None) -> None:
        if self.replay:
            run.child("db.maintenance.maintain_s", parent,
                      self.catalog.maintain_all, apply_deltas=False)
            run.child("db.apply_deltas_s", parent, self.db.apply_deltas)
            if run.measuring:
                run.counts["db.maintenance.view_rows"] += sum(
                    len(view.require_data()) for view in self.catalog)
        else:
            self.catalog.maintain_all()
        for cleaner in self.cleaners.values():
            cleaner.advance()

    def exact(self, plan) -> List[float]:
        return [query.evaluate(self.catalog.view(name).require_data())
                for name, query, _ in plan]

    def check_views(self, run: RunRecord, state: ServeState) -> None:
        for name in VIEWS:
            served = state.catalog.view(name).require_data()
            serial = self.catalog.view(name)
            run.check(
                harness.rows_match(served, serial.require_data(), serial.key),
                f"{name}: served view differs from the serial catalog",
            )


def foreground_period(run: RunRecord, rep: Replica, oracle: Oracle,
                      plan, batch_a, batch_b, acc) -> None:
    """Phase C, one period (see the module docstring)."""
    state: ServeState = rep.state
    server = state.server
    before = oracle.exact(plan)

    tick_span = run.new_span() if oracle.replay else None
    oracle.feed(run, batch_a, tick_span)
    if oracle.replay:
        oracle.clean(run, tick_span)
    quiesce()
    start = now()
    run.op("serve.ingest", server.ingest, LOG, batch_a)
    tick_start = now()
    run.op("serve.run_tick", server.run_tick, span=tick_span)
    tick_s = now() - tick_start
    estimates = [run.op("serve.query", server.query, name, query)
                 for name, query, _ in plan]
    svc_s = now() - start
    if oracle.replay:
        for name, query, _ in plan:
            snap = server.snapshot(name)
            run.child("core.estimators.corr_s", None, svc_corr, snap.stale,
                      snap.dirty_sample, snap.clean_sample, query, snap.ratio,
                      key=snap.key)
            run.child("core.estimators.aqp_s", None, svc_aqp,
                      snap.clean_sample, query, snap.ratio)

    oracle.maintain(run)
    truths = oracle.exact(plan)
    for (_, _, pooled), est, truth, stale in zip(plan, estimates, truths,
                                                 before):
        run.check_estimate(est, "foreground estimate")
        if acc is not None and pooled:
            acc.add(est, truth, stale)

    now_span = run.new_span() if oracle.replay else None
    oracle.feed(run, batch_b, now_span)
    quiesce()
    start = now()
    run.op("serve.ingest", server.ingest, LOG, batch_b)
    maintain_start = now()
    run.op("serve.maintain_now", server.maintain_now, span=now_span)
    maintain_s = now() - maintain_start
    served_exact = [
        query.evaluate(state.catalog.view(name).require_data())
        for name, query, _ in plan
    ]
    ivm_s = now() - start
    oracle.maintain(run, now_span)
    oracle.check_views(run, state)
    run.check(served_exact == oracle.exact(plan),
              "exact battery on the served views differs from the oracle")

    if run.measuring:
        rep.times["svc"].append(svc_s)
        rep.times["ivm"].append(ivm_s)
        rep.times["run_tick"].append(tick_s)
        rep.times["maintain_now"].append(maintain_s)


def run_replica(run: RunRecord, rep: Replica, seed: int, size: dict,
                n_batches: int) -> dict:
    """All three phases on one server; returns counts of this replica."""
    state: ServeState = rep.state
    server = state.server
    plan = battery(state, seed, size["queries_per_view"])
    oracle = Oracle(seed, size, replay=rep.role == "replay")

    def draft():
        return state.gen.records(size["batch_rows"], start_date=100,
                                 date_span=30)

    # Two untimed batches through the running maintainer, so the
    # cleaning plans are compiled before phase A is measured.
    warm = [draft(), draft()]
    for rows in warm:
        server.ingest(LOG, rows)
        oracle.feed(run, rows)
    give_up = now() + 60.0
    while published_watermark(server) < len(warm) and now() < give_up:
        time.sleep(0.005)

    compiles, drained = compile_count(), harness.cache_drains()
    cpu_s, wall_s = time.process_time(), now()
    run.measuring = True
    batches = [draft() for _ in range(n_batches)]
    depth_max = phase_background(run, rep, plan, batches, size["period_s"])
    rep.times["tick"] = [r.seconds for r in server.rounds.all()
                         if r.kind != "maintained"]
    run.op("serve.stop", server.stop)
    cpu_wall = (time.process_time() - cpu_s) / (now() - wall_s)
    for rows in batches:
        oracle.feed(run, rows)
    run.measuring = False
    run.check(len(rep.times["lag"]) == n_batches,
              f"{n_batches - len(rep.times['lag'])} batches have no visible lag")

    # Phase B: one cleaned epoch, then reads with nothing else running.
    rows = draft()
    server.ingest(LOG, rows)
    oracle.feed(run, rows)
    run.op("serve.run_tick", server.run_tick)
    for i in range(size["idle_reads"]):
        name, query, _ = plan[i % len(plan)]
        start = now()
        run.op("serve.query", server.query, name, query)
        rep.times["idle_read"].append(now() - start)
    run.op("serve.maintain_now", server.maintain_now)
    oracle.maintain(run)
    oracle.check_views(run, state)

    # Phase C.
    acc = Accuracy()
    for i in range(FG_WARMUP + size["fg_periods"]):
        run.round = i
        run.measuring = i >= FG_WARMUP
        foreground_period(run, rep, oracle, plan, draft(), draft(),
                          acc if run.measuring else None)
    run.measuring = False
    stats = server.stats()
    run.check(stats.maintenance_failures == 0 and stats.scheduler_failures == 0,
              f"server reported failed rounds: {stats.summary()}")
    return {
        "acc": acc, "stats": stats, "depth_max": depth_max,
        "cpu_wall": cpu_wall,
        "compiles": compile_count() - compiles,
        "drained": harness.cache_drains() - drained,
        "epochs": sum(server.snapshot(name).epoch for name in VIEWS),
    }


def run_workload(seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    n_batches = size["batches"] if smoke else scaled(size["batches"], seconds)
    gauge_before = harness.gauge_ms()
    run = RunRecord()

    replicas: List[Replica] = []
    seen = []
    for run.replica, role in enumerate(harness.roles(trace, smoke)):
        quiesce()
        start = now()
        state = build(seed, size)
        rep = Replica(state, role, now() - start)
        replicas.append(rep)
        run.recording = role != "plain"
        try:
            seen.append(run_replica(run, rep, seed, size, n_batches))
        finally:
            state.server.stop(final_tick=False)

    acc = seen[0]["acc"]
    run.check(all(other["acc"].err == acc.err for other in seen[1:]),
              "replicas at one seed gave different estimates")
    if not smoke:  # too few estimates at smoke size
        acc.gate(run, "serve_mixed")

    lags = harness.fastest(replicas, "lag")
    reading = harness.read_metrics(replicas)
    every_read = [x for rep in replicas for seg in rep.reads
                  for x in seg["latencies"]]
    stats = seen[0]["stats"]
    metrics = {
        "setup_s": statistics.median(rep.setup_s for rep in replicas),
        "svc_fresh_s": harness.mean(harness.fastest(replicas, "svc")),
        "ivm_fresh_s": harness.mean(harness.fastest(replicas, "ivm")),
        "read_p50_ms": reading.pop("read_p50_ms"),
        "reads_per_s": reading.pop("reads_per_s"),
        **acc.metrics(),
        **reading,
        "serving.ingest_call_ms":
            harness.mean(harness.fastest(replicas, "ingest_call")) * 1e3,
        "serving.visible_lag_mean_s": harness.mean(lags),
        "serving.visible_lag_p50_s": harness.percentile(lags, 50),
        "serving.visible_lag_p95_s": harness.percentile(lags, 95),
        "serving.tick_s":
            harness.mean([x for rep in replicas for x in rep.times["tick"]]),
        "serving.run_tick_s":
            harness.mean(harness.fastest(replicas, "run_tick")),
        # Counts are those of the first replica's server.
        "serving.rounds": stats.rounds,
        "serving.degraded_rounds": stats.degraded_rounds,
        "serving.full_rounds": stats.full_maintenance_rounds,
        "serving.failed_rounds": stats.maintenance_failures,
        "serving.epochs": seen[0]["epochs"],
        "serving.queue_depth_max": max(s["depth_max"] for s in seen),
        "serving.generator_late_p95_ms": harness.percentile(
            [x for rep in replicas for x in rep.times["late"]], 95) * 1e3,
        "serving.read_p95_ms": harness.percentile(every_read, 95) * 1e3,
        "serving.read_p99_ms": harness.percentile(every_read, 99) * 1e3,
        "serving.read_idle_p50_ms": statistics.median(
            harness.fastest(replicas, "idle_read")) * 1e3,
        "algebra.compiler.compiles": sum(s["compiles"] for s in seen),
        "caches.drains": sum(s["drained"] for s in seen),
        "host.cpu_wall_ratio": harness.mean([s["cpu_wall"] for s in seen]),
        "host.gauge_ms_before": gauge_before,
        "host.svc_fresh_plain_s": harness.plain_mean(replicas, "svc"),
        "host.ivm_fresh_plain_s": harness.plain_mean(replicas, "ivm"),
    }
    nulls = {}
    diag = {
        "replicas": [rep.role for rep in replicas],
        "batches_per_replica": n_batches, "reads": len(every_read),
        "foreground_periods_per_replica": len(replicas[0].times["svc"]),
        "accuracy_samples": len(acc.err), "untouched": acc.untouched,
        "setups_s": [rep.setup_s for rep in replicas],
    }
    if trace:
        traced_metrics(run, replicas, metrics, nulls)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    metrics["host.gauge_ms_after"] = harness.gauge_ms()
    return {"metrics": metrics, "nulls": nulls, "diag": diag, "run": run}


def traced_metrics(run: RunRecord, replicas, metrics: dict, nulls: dict) -> None:
    """Per-layer numbers from the replay replica's oracle children, the
    reasons for the layers this workload cannot split, and the trace."""
    by_role = {rep.role: rep for rep in replicas}
    spans, plain = by_role["spans"], by_role["plain"]
    periods = len(spans.times["svc"])

    def facades(rep: Replica) -> float:
        return sum(rep.times["run_tick"]) + sum(rep.times["maintain_now"])

    refresh_s = run.sums["core.cleaning.refresh_s"] / periods
    # One foreground period maintains twice (oracle catch-up + IVM span).
    maintain_s = run.mean("db.maintenance.maintain_s")
    metrics.update({
        "db.ingest_s": run.mean("db.ingest_s"),
        "db.ingest_rows": run.counts["db.ingest_rows"],
        "db.apply_deltas_s": run.mean("db.apply_deltas_s"),
        "db.maintenance.strategy_s":
            run.sums["db.maintenance.strategy_s"] / periods,
        "db.maintenance.maintain_s": maintain_s,
        "db.maintenance.view_rows": run.counts["db.maintenance.view_rows"],
        "core.cleaning.refresh_s": refresh_s,
        "core.cleaning.sample_rows": run.counts["core.cleaning.sample_rows"],
        "core.cleaning.vs_maintain": refresh_s / maintain_s,
        "core.estimators.corr_ms": run.mean("core.estimators.corr_s") * 1e3,
        "core.estimators.aqp_ms": run.mean("core.estimators.aqp_s") * 1e3,
        "trace.overhead_share": facades(spans) / facades(plain) - 1.0,
        "trace.residual_share":
            1.0 - run.sums["trace.explained_s"] / facades(spans),
    })
    served = "the server runs its plans itself; this workload's children " \
             "are whole refresh() / maintain_all() calls on the serial oracle"
    for key in harness.PER_LAYER:
        if key.startswith(("core.pushdown.", "algebra.compiler.compile_cold",
                           "algebra.compiler.stages", "algebra.compiler.execute",
                           "algebra.evaluator.", "core.cleaning.refresh_m05",
                           "db.maintenance.recompute_views")):
            nulls[key] = served
        elif key.startswith("core.outlier_index."):
            nulls[key] = "no cleaner of this workload has an outlier index"
        elif key.startswith("distributed."):
            nulls[key] = ("the sharded probe runs at full size on tpcd_join "
                          "and complex_outlier only")
    nulls["core.estimators.groups_ms"] = "the battery has no group-by query"
    run.write_trace("serve_mixed")
