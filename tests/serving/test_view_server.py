"""Functional tests of :class:`repro.serving.ViewServer`.

These run the maintainer inline (``run_tick``) with an injected clock,
so every scheduling decision is deterministic; the threaded paths live
in ``test_serving_concurrency.py``.
"""

import queue

import numpy as np
import pytest

from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Join,
    Relation,
    Schema,
    col,
)
from repro.core import AggQuery, StaleViewCleaner
from repro.db import Catalog, Database
from repro.distributed import get_shard_config, set_shard_count
from repro.errors import MaintenanceError
from repro.serving import FreshnessScheduler, FreshnessSLA, ViewServer


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def build_catalog(n_log=5000, n_videos=300, seed=7):
    """Log ⋈ Video grouped per (vid, owner) — the paper's running shape."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.add_relation(Relation(
        Schema(["sid", "vid"]),
        [(i, int(rng.integers(0, n_videos))) for i in range(n_log)],
        key=("sid",), name="Log",
    ))
    db.add_relation(Relation(
        Schema(["vid", "owner"]),
        [(v, v % 7) for v in range(n_videos)],
        key=("vid",), name="Video",
    ))
    catalog = Catalog(db)
    catalog.create_view("visits", Aggregate(
        Join(BaseRel("Log"), BaseRel("Video"),
             on=[("vid", "vid")], foreign_key=True),
        ["vid", "owner"], [AggSpec("n", "count")],
    ))
    return db, catalog


QUERY = AggQuery("sum", "n", col("owner") == 3)


@pytest.fixture
def served():
    db, catalog = build_catalog()
    clock = FakeClock()
    server = ViewServer(catalog, scheduler=FreshnessScheduler(budget_s=0.5),
                        clock=clock)
    server.register("visits", ratio=0.3,
                    sla=FreshnessSLA(max_staleness_s=1.0, target_ratio=0.3,
                                     min_ratio=0.05))
    return db, catalog, server, clock


class TestRegistrationAndReads:
    def test_register_publishes_a_fresh_first_epoch(self, served):
        _, _, server, _ = served
        snap = server.snapshot("visits")
        assert (snap.epoch, snap.mode) == (0, "fresh")
        assert server.served_views() == ["visits"]
        # A fresh epoch has no pending correction: estimate == stale.
        est = server.query("visits", QUERY)
        assert est.value == pytest.approx(snap.stale_answer(QUERY))

    def test_register_twice_and_unknown_names_rejected(self, served):
        _, catalog, server, _ = served
        with pytest.raises(MaintenanceError, match="already served"):
            server.register("visits")
        with pytest.raises(MaintenanceError, match="not served"):
            server.query("nope", QUERY)
        with pytest.raises(MaintenanceError):
            server.register("missing_view")

    def test_reads_are_counted_per_view(self, served):
        _, _, server, _ = served
        for _ in range(3):
            server.query("visits", QUERY)
        stats = server.stats()
        assert stats.reads == 3
        assert stats.per_view_reads == {"visits": 3}
        assert server.read_latency.count == 3


class TestIngestAndCleaning:
    def test_ingest_validates_relation_and_queues(self, served):
        db, _, server, _ = served
        with pytest.raises(MaintenanceError):
            server.ingest("NoSuchRelation", inserts=[(1, 2)])
        server.ingest("Log", inserts=[(10_000, 1)])
        assert server.pending_batches() == 1
        # Producers never touch the database directly.
        assert db.deltas.get("Log") is None

    def test_backpressure_raises_queue_full(self):
        db, catalog = build_catalog(n_log=50, n_videos=10)
        server = ViewServer(catalog, queue_capacity=1)
        server.ingest("Log", inserts=[(900, 1)], block=False)
        with pytest.raises(queue.Full):
            server.ingest("Log", inserts=[(901, 1)], block=False)

    def test_tick_before_sla_deadline_does_nothing(self, served):
        _, _, server, clock = served
        server.ingest("Log", inserts=[(10_000, 1)])
        clock.advance(0.5)  # within the 1 s freshness SLA
        assert server.run_tick() == []
        # The queue drained regardless: ticks always fold pending batches.
        assert server.pending_batches() == 0

    def test_cleaned_round_matches_serial_svc_baseline(self, served):
        db, _, server, clock = served
        inserts = [(10_000 + i, i % 300) for i in range(500)]
        server.ingest("Log", inserts=inserts)
        clock.advance(2.0)
        reports = server.run_tick()
        assert [r.kind for r in reports] == ["cleaned"]
        snap = server.snapshot("visits")
        assert (snap.epoch, snap.mode) == (1, "cleaned")
        assert snap.watermark == 1

        # Serial reference: same deltas, same ratio and seed, no server.
        db2, catalog2 = build_catalog()
        db2.insert("Log", inserts)
        svc = StaleViewCleaner(catalog2.view("visits"), ratio=0.3, seed=0)
        svc.refresh()
        base = svc.query(QUERY, method="corr")
        est = server.query("visits", QUERY)
        assert est.value == pytest.approx(base.value)
        assert est.se == pytest.approx(base.se)
        aqp = server.query("visits", QUERY, method="aqp")
        assert aqp.value == pytest.approx(
            svc.query(QUERY, method="aqp").value
        )

    def test_rounds_report_pending_rows_and_traffic(self, served):
        _, _, server, clock = served
        for _ in range(4):
            server.query("visits", QUERY)
        server.ingest("Log", inserts=[(10_000 + i, i % 300)
                                      for i in range(40)])
        clock.advance(2.0)
        (report,) = server.run_tick()
        assert report.pending_rows == 40
        assert report.queries_since_last == 4
        assert report.ratio == pytest.approx(0.3)
        assert server.rounds.last() is not None
        assert "cleaned round" in report.summary()


class TestDegradationAndEscalation:
    def test_budget_pressure_degrades_the_ratio(self, served):
        db, _, server, clock = served
        server.ingest("Log", inserts=[(10_000 + i, i % 300)
                                      for i in range(200)])
        clock.advance(2.0)
        # Pretend a target-ratio round costs 1 s; give the tick half of
        # that: the scheduler halves the ratio instead of skipping.
        server._served["visits"].cost_ewma_s = 1.0
        (report,) = server.run_tick(budget_s=0.5)
        assert report.kind == "degraded"
        assert report.ratio == pytest.approx(0.15)
        snap = server.snapshot("visits")
        assert snap.mode == "degraded"
        assert snap.ratio == pytest.approx(0.15)
        assert server.stats().degraded_rounds == 1
        # The degraded epoch still answers (wider CI, same machinery).
        est = server.query("visits", QUERY)
        assert est.se > 0

    def test_budget_too_small_even_for_min_ratio_skips(self, served):
        _, _, server, clock = served
        server.ingest("Log", inserts=[(10_000, 1)])
        clock.advance(2.0)
        server._served["visits"].cost_ewma_s = 1.0
        # ratio would be 0.3 * 0.01 = 0.003 < min_ratio 0.05.
        assert server.run_tick(budget_s=0.01) == []
        assert server.snapshot("visits").epoch == 0

    def test_pending_flood_escalates_to_full_maintenance(self, served):
        db, _, server, clock = served
        n_base = len(db.relation("Log")) + len(db.relation("Video"))
        flood = [(20_000 + i, i % 300) for i in range(int(n_base * 0.3))]
        server.ingest("Log", inserts=flood)
        clock.advance(2.0)
        reports = server.run_tick()
        assert [r.kind for r in reports] == ["maintained"]
        assert server.stats().full_maintenance_rounds == 1
        # The period closed: deltas folded into the base relations.
        delta = db.deltas.get("Log")
        assert delta is None or not (delta.inserted or delta.deleted)
        view = server.catalog.view("visits")
        est = server.query("visits", QUERY)
        truth = QUERY.evaluate(view.fresh_data())
        assert est.value == pytest.approx(truth)
        assert server.snapshot("visits").mode == "fresh"

    def test_full_maintenance_keeps_unserved_catalog_views_fresh(self):
        db, catalog = build_catalog()
        catalog.create_view("perOwner", Aggregate(
            Join(BaseRel("Log"), BaseRel("Video"),
                 on=[("vid", "vid")], foreign_key=True),
            ["owner"], [AggSpec("n", "count")],
        ))
        server = ViewServer(catalog)
        server.register("visits", ratio=0.3)
        server.ingest("Log", inserts=[(30_000 + i, i % 300)
                                      for i in range(100)])
        server.maintain_now()
        # Deltas are database-global: the unserved view must have been
        # maintained too, or applying them would have stranded it.
        unserved = catalog.view("perOwner")
        assert sorted(unserved.require_data().rows) == sorted(
            unserved.fresh_data().rows
        )

    def test_advance_reanchors_cleaners_after_maintenance(self, served):
        db, _, server, clock = served
        server.ingest("Log", inserts=[(10_000 + i, i % 300)
                                      for i in range(300)])
        clock.advance(2.0)
        server.run_tick()
        server.maintain_now()
        # Post-maintenance: new deltas land and the next cleaned round
        # must correct relative to the *new* anchor, exactly like a
        # freshly built cleaner over the maintained database.
        inserts = [(40_000 + i, i % 300) for i in range(500)]
        server.ingest("Log", inserts=inserts)
        clock.advance(2.0)
        (report,) = server.run_tick()
        assert report.kind == "cleaned"

        db2, catalog2 = build_catalog()
        db2.insert("Log", [(10_000 + i, i % 300) for i in range(300)])
        catalog2.maintain_all()
        svc = StaleViewCleaner(catalog2.view("visits"), ratio=0.3, seed=0)
        db2.insert("Log", inserts)
        svc.refresh()
        est = server.query("visits", QUERY)
        base = svc.query(QUERY, method="corr")
        assert est.value == pytest.approx(base.value)
        assert est.se == pytest.approx(base.se)


class TestStatsAndWatermarks:
    def test_watermark_tracks_folded_batches(self, served):
        _, _, server, clock = served
        for i in range(3):
            server.ingest("Log", inserts=[(50_000 + i, 1)])
        clock.advance(2.0)
        server.run_tick()
        assert server.snapshot("visits").watermark == 3
        stats = server.stats()
        assert stats.ingested_batches == 3
        assert stats.ingested_rows == 3

    def test_stats_summary_and_repr_render(self, served):
        _, _, server, _ = served
        server.query("visits", QUERY)
        assert "reads" in server.stats().summary()
        assert "visits" in repr(server)

    def test_cost_ewma_smooths_round_costs(self, served):
        _, _, server, clock = served
        view = server._served["visits"]
        assert view.cost_ewma_s == 0.0
        server.ingest("Log", inserts=[(60_000, 1)])
        clock.advance(2.0)
        server.run_tick()
        first = view.cost_ewma_s
        assert first > 0.0
        clock.advance(2.0)
        server.run_tick()
        # Second observation blends 0.7/0.3 — stays the same order.
        assert view.cost_ewma_s > 0.0


class TestShardBackendLabel:
    def test_single_shard_rounds_after_a_sharded_one_report_none(
        self, served
    ):
        # The shard report is module-global: a round that ran single-
        # shard must not inherit the backend an earlier round left there.
        _, _, server, clock = served

        def clean_round(sid):
            server.ingest("Log", inserts=[(sid, 1)])
            clock.advance(2.0)
            (report,) = server.run_tick()
            return report

        cfg = get_shard_config()
        set_shard_count(2, backend="serial")
        try:
            assert clean_round(70_000).shard_backend == "serial"
        finally:
            set_shard_count(cfg.count, backend=cfg.backend)
        assert clean_round(70_001).shard_backend == ""
        (maintained,) = server.maintain_now()
        assert maintained.shard_backend == ""
