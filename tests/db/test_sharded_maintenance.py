"""Sharded maintenance must be row-for-row equal to the single-shard path.

Property tests randomize SPJ/SPJA views over the Log/Video running
example, mix insertions, deletions and updates (including all-delete
batches and shard counts that leave shards empty), and check that
``maintain`` under ``set_shard_count(n)`` produces exactly the relation
the reference single-shard path produces — for n ∈ {1, 2, 3, 7} and for
every executor backend, transport and engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Join,
    Relation,
    Schema,
    Select,
    col,
    set_columnar_enabled,
)
from repro.core import AggQuery, StaleViewCleaner
from repro.db import Catalog, Database, classify, maintain
from repro.distributed import last_shard_report, plan_shards, set_shard_count
from repro.distributed.shard import (
    get_shard_config,
    get_shard_count,
    process_breaker,
)
from repro.errors import MaintenanceError

SHARD_COUNTS = (1, 2, 3, 7)

#: Every shard count × backend × transport point of the execution space
#: (the transport only matters to the ``process`` backend).
CONFIGURATIONS = [
    (1, "serial", "shm"),
    (2, "serial", "shm"),
    (2, "thread", "shm"),
    (2, "process", "shm"),
    (2, "process", "pickle"),
]


@pytest.fixture(autouse=True)
def _reset_shard_count():
    """Never leak a shard configuration into other tests."""
    yield
    set_shard_count(1, max_workers=0)


def build_db(rows):
    db = Database()
    db.add_relation(Relation(Schema(["sessionId", "videoId"]), rows,
                             key=("sessionId",), name="Log"))
    db.add_relation(Relation(
        Schema(["videoId", "ownerId"]),
        [(v, v % 2) for v in range(8)], key=("videoId",), name="Video",
    ))
    return db


def reference_and_sharded(db_builder, view_builder, mutate, shards,
                          backend="serial"):
    """Rows from the single-shard reference vs. the sharded run."""
    results = []
    for count in (1, shards):
        db = db_builder()
        view = view_builder(db)
        mutate(db)
        set_shard_count(count, backend=backend)
        try:
            maintained = maintain(view)
        finally:
            set_shard_count(1)
        results.append(sorted(maintained.rows, key=repr))
    return results


log_rows = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 6)),
    min_size=0, max_size=30, unique_by=lambda r: r[0],
)
inserts = st.lists(
    st.tuples(st.integers(300, 500), st.integers(0, 7)),
    min_size=0, max_size=12, unique_by=lambda r: r[0],
)
delete_picks = st.lists(st.integers(0, 29), min_size=0, max_size=8,
                        unique=True)
shard_counts = st.sampled_from(SHARD_COUNTS)


def spja_view(db):
    join = Join(BaseRel("Log"), BaseRel("Video"),
                on=[("videoId", "videoId")], foreign_key=True)
    return Catalog(db).create_view(
        "v", Aggregate(join, ["videoId", "ownerId"],
                       [AggSpec("visits", "count"),
                        AggSpec("ssum", "sum", col("sessionId")),
                        AggSpec("smean", "avg", col("sessionId"))]),
    )


def spj_view(db):
    return Catalog(db).create_view(
        "v", Select(
            Join(BaseRel("Log"), BaseRel("Video"),
                 on=[("videoId", "videoId")], foreign_key=True),
            col("videoId") < 7,
        ),
    )


def make_mutation(new_rows, delete_idx):
    def mutate(db):
        base = db.relation("Log")
        if new_rows:
            db.insert("Log", new_rows)
        picks = [base.rows[i] for i in delete_idx if i < len(base.rows)]
        if picks:
            db.delete("Log", list(dict.fromkeys(picks)))
    return mutate


def maintain_under(view, count, backend, transport, columnar):
    """``maintain(view)``'s sorted rows under one execution configuration;
    the previous configuration is restored afterwards.

    Workers are pinned to the shard count: the default caps them at the
    CPU count, and one worker runs every backend serially.
    """
    cfg = get_shard_config()
    old_columnar = set_columnar_enabled(columnar)
    set_shard_count(count, backend=backend, transport=transport,
                    max_workers=count)
    try:
        return sorted(maintain(view).rows, key=repr)
    finally:
        set_columnar_enabled(old_columnar)
        set_shard_count(cfg.count, backend=cfg.backend,
                        max_workers=cfg.max_workers or 0,
                        transport=cfg.transport)


class TestShardedEquivalenceProperties:
    @given(log_rows, inserts, delete_picks, shard_counts)
    @settings(max_examples=25, deadline=None)
    def test_spja_sharded_equals_reference(self, rows, new_rows, delete_idx,
                                           shards):
        ref, sharded = reference_and_sharded(
            lambda: build_db(rows), spja_view,
            make_mutation(new_rows, delete_idx), shards,
        )
        assert ref == sharded

    @given(log_rows, inserts, delete_picks, shard_counts)
    @settings(max_examples=25, deadline=None)
    def test_spj_sharded_equals_reference(self, rows, new_rows, delete_idx,
                                          shards):
        ref, sharded = reference_and_sharded(
            lambda: build_db(rows), spj_view,
            make_mutation(new_rows, delete_idx), shards,
        )
        assert ref == sharded

    @given(log_rows, delete_picks, shard_counts)
    @settings(max_examples=15, deadline=None)
    def test_all_delete_delta(self, rows, delete_idx, shards):
        """Deltas of pure deletions (including emptied groups)."""
        ref, sharded = reference_and_sharded(
            lambda: build_db(rows), spja_view,
            make_mutation([], delete_idx or [0]), shards,
        )
        assert ref == sharded

    @given(log_rows, shard_counts)
    @settings(max_examples=10, deadline=None)
    def test_empty_delta_identity(self, rows, shards):
        """No pending changes: sharded maintenance is still the identity."""
        ref, sharded = reference_and_sharded(
            lambda: build_db(rows), spja_view, lambda db: None, shards,
        )
        assert ref == sharded

    @given(log_rows, inserts, shard_counts)
    @settings(max_examples=15, deadline=None)
    def test_minmax_with_deletions_recompute_path(self, rows, new_rows,
                                                  shards):
        """min/max + deletions forces recomputation; sharding must agree."""
        def view_builder(db):
            join = Join(BaseRel("Log"), BaseRel("Video"),
                        on=[("videoId", "videoId")], foreign_key=True)
            return Catalog(db).create_view(
                "v", Aggregate(join, ["ownerId"],
                               [AggSpec("smin", "min", col("sessionId")),
                                AggSpec("smax", "max", col("sessionId"))]),
            )

        def mutate(db):
            base = db.relation("Log")
            if new_rows:
                db.insert("Log", new_rows)
            if base.rows:
                db.delete("Log", [base.rows[0]])

        ref, sharded = reference_and_sharded(
            lambda: build_db(rows), view_builder, mutate, shards,
        )
        assert ref == sharded


class TestShardPlanner:
    def test_visit_view_copartitions_join(self, visit_view):
        plan = plan_shards(visit_view)
        assert plan.shardable
        assert plan.attrs == ("videoId",)
        assert plan.partitioned == {"Log": ("videoId",),
                                    "Video": ("videoId",)}
        # Delta leaves and the stale view follow automatically.
        parts = plan.leaf_partitions()
        assert parts["Log__ins"] == ("videoId",)
        assert parts["Log__del"] == ("videoId",)
        assert parts["visitView"] == ("videoId",)

    def test_global_aggregate_not_shardable(self, log_video_db):
        view = Catalog(log_video_db).create_view(
            "tot", Aggregate(BaseRel("Log"), [],
                             [AggSpec("n", "count")]),
        )
        plan = plan_shards(view)
        assert not plan.shardable
        assert "group key" in plan.reason

    def test_unshardable_view_falls_back_to_reference(self, log_video_db):
        view = Catalog(log_video_db).create_view(
            "tot", Aggregate(BaseRel("Log"), [],
                             [AggSpec("n", "count")]),
        )
        log_video_db.insert("Log", [(900, 1)])
        fresh = view.fresh_data()
        set_shard_count(4)
        maintained = maintain(view)
        assert sorted(maintained.rows) == sorted(fresh.rows)

    def test_set_shard_count_validates(self):
        with pytest.raises(MaintenanceError):
            set_shard_count(0)
        with pytest.raises(MaintenanceError):
            set_shard_count(2, backend="gpu")
        assert get_shard_count() == 1

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2", "auto"])
    def test_set_shard_count_rejects_non_int_counts(self, count):
        # Stored as given, these used to fail only at the next
        # maintain(), deep in partitioning.
        with pytest.raises(MaintenanceError):
            set_shard_count(count)
        assert get_shard_count() == 1

    @pytest.mark.parametrize("retries", [1.5, True, -1])
    def test_set_shard_count_rejects_non_int_retries(self, retries):
        with pytest.raises(MaintenanceError):
            set_shard_count(2, max_retries=retries)
        assert get_shard_count() == 1

    def test_set_shard_count_returns_previous(self):
        assert set_shard_count(3) == 1
        assert set_shard_count(1) == 3

    @pytest.mark.parametrize("setting,value", [
        ("backend", "thread"),
        ("max_workers", 3),
        ("transport", "pickle"),
        ("shard_timeout_s", 5.0),
        ("max_retries", 4),
    ])
    def test_count_only_call_keeps_every_other_setting(self, setting, value):
        cfg = get_shard_config()
        try:
            set_shard_count(2, **{setting: value})
            set_shard_count(3)
            assert getattr(get_shard_config(), setting) == value
        finally:
            set_shard_count(cfg.count, backend=cfg.backend,
                            max_workers=cfg.max_workers or 0,
                            transport=cfg.transport,
                            shard_timeout_s=cfg.shard_timeout_s or 0,
                            max_retries=cfg.max_retries)

    @pytest.mark.parametrize("call", [
        {"count": 2, "backend": "thread"},
        {"count": 1, "backend": "serial"},
        {"count": 3},
    ], ids=["thread", "serial", "count-only"])
    def test_only_asking_for_process_resets_its_breaker(self, call):
        # An open breaker stays open through every other configuration
        # change; only an explicit backend="process" asks for a retry now.
        breaker = process_breaker()
        try:
            breaker.record_failure("pool_broken", "test")
            assert breaker.state == "open"
            set_shard_count(**call)
            assert breaker.state == "open"
            set_shard_count(2, backend="process")
            assert breaker.state == "closed"
        finally:
            breaker.reset()


class TestShardedExecutionModes:
    def _stale_view(self):
        db = build_db([(i, i % 7) for i in range(120)])
        view = spja_view(db)
        db.insert("Log", [(1000 + i, i % 8) for i in range(40)])
        db.delete("Log", [db.relation("Log").rows[i] for i in range(5)])
        return db, view

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_agree(self, backend):
        db, view = self._stale_view()
        fresh = view.fresh_data()
        set_shard_count(4, backend=backend, max_workers=2)
        maintained = maintain(view)
        assert classify(maintained, fresh).is_fresh()
        report = last_shard_report()
        assert report is not None
        assert report.count == 4
        assert report.total_rows == len(maintained)

    def test_skipped_shards_reported(self):
        db = build_db([(i, i % 7) for i in range(80)])
        view = spja_view(db)
        # Touch exactly one group: most shards must be skipped, and the
        # skipped shards' rows come straight from the stale partition.
        db.insert("Log", [(2000 + i, 3) for i in range(6)])
        fresh = view.fresh_data()
        set_shard_count(7, backend="serial")
        maintained = maintain(view)
        assert classify(maintained, fresh).is_fresh()
        report = last_shard_report()
        assert report.skipped_count >= 5

    def test_catalog_maintain_all_shards_override(self):
        db, view = self._stale_view()
        catalog = Catalog(db)
        catalog._views[view.name] = view  # adopt the existing view
        fresh = view.fresh_data()
        catalog.maintain_all(shards=3)
        assert get_shard_count() == 1  # restored
        assert classify(view.require_data(), fresh).is_fresh()
        assert not db.is_stale()

    @pytest.mark.parametrize("view_builder", [spj_view, spja_view],
                             ids=["spj", "spja"])
    @pytest.mark.parametrize("columnar", [True, False],
                             ids=["columnar", "row"])
    @pytest.mark.parametrize("count,backend,transport", CONFIGURATIONS)
    def test_every_configuration_maintains_like_recompute(
        self, count, backend, transport, columnar, view_builder
    ):
        """Shard count × backend × transport × engine change speed only."""
        rows = [(s, s % 7) for s in range(60)]
        db = build_db(rows)
        view = view_builder(db)
        db.insert("Log", [(300 + i, i % 7) for i in range(25)])
        db.delete("Log", [rows[i] for i in range(0, 12, 3)])
        maintained = maintain_under(view, count, backend, transport, columnar)
        if count > 1:
            assert last_shard_report().backend == backend
        db.apply_deltas()
        assert maintained == sorted(view.materialize().rows, key=repr)

    @pytest.mark.parametrize("view_builder", [spj_view, spja_view],
                             ids=["spj", "spja"])
    @pytest.mark.parametrize("columnar", [True, False],
                             ids=["columnar", "row"])
    @pytest.mark.parametrize("count,backend,transport", CONFIGURATIONS)
    @given(log_rows, inserts, delete_picks)
    @settings(max_examples=8, deadline=None)
    def test_random_workloads_maintain_like_recompute(
        self, count, backend, transport, columnar, view_builder,
        rows, new_rows, delete_idx
    ):
        """The same, over random base data, insertions and deletions
        (including empty relations and all-delete deltas)."""
        db = build_db(rows)
        view = view_builder(db)
        make_mutation(new_rows, delete_idx)(db)
        maintained = maintain_under(view, count, backend, transport, columnar)
        db.apply_deltas()
        assert maintained == sorted(view.materialize().rows, key=repr)


class TestShardedCleaning:
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_sharded_sample_cleaning_equals_reference(self, shards):
        db = build_db([(i, i % 7) for i in range(150)])
        view = spja_view(db)
        db.insert("Log", [(3000 + i, i % 8) for i in range(50)])
        db.delete("Log", [db.relation("Log").rows[i] for i in range(8)])

        svc_ref = StaleViewCleaner(view, ratio=0.4, seed=5)
        set_shard_count(1)
        ref_rows = sorted(svc_ref.refresh().rows, key=repr)

        svc_sharded = StaleViewCleaner(view, ratio=0.4, seed=5)
        set_shard_count(shards, backend="serial")
        sharded_rows = sorted(svc_sharded.refresh().rows, key=repr)
        set_shard_count(1)

        assert ref_rows == sharded_rows
        # The cleaned sample still corresponds to the dirty one.
        fresh = view.fresh_data()
        assert svc_sharded.sample_view.check_correspondence(fresh).holds()

    def test_process_backend_cleaning_tracks_hash_family(self):
        """Long-lived workers must use the parent's *current* hash family.

        The family is shipped with every task (workers may have been
        forked under a different one), so sharded cleaning under the
        linear family equals the single-shard linear reference.
        """
        from repro.stats.hashing import set_hash_family

        db = build_db([(i, i % 7) for i in range(150)])
        view = spja_view(db)
        db.insert("Log", [(5000 + i, i % 8) for i in range(40)])
        set_hash_family("linear")
        try:
            set_shard_count(1)
            ref = StaleViewCleaner(view, ratio=0.4, seed=3)
            ref_rows = sorted(ref.refresh().rows, key=repr)

            set_shard_count(4, backend="process", max_workers=2)
            sharded = StaleViewCleaner(view, ratio=0.4, seed=3)
            sharded_rows = sorted(sharded.refresh().rows, key=repr)
            assert sharded_rows == ref_rows
        finally:
            set_hash_family("sha1")
            set_shard_count(1)

    def test_sharded_estimates_match_reference(self):
        db = build_db([(i, i % 7) for i in range(150)])
        view = spja_view(db)
        db.insert("Log", [(4000 + i, i % 8) for i in range(60)])
        query = AggQuery("sum", "visits")

        set_shard_count(1)
        svc_ref = StaleViewCleaner(view, ratio=0.5, seed=9)
        svc_ref.refresh()
        ref = svc_ref.query(query, method="corr")

        set_shard_count(3, backend="serial")
        svc_sharded = StaleViewCleaner(view, ratio=0.5, seed=9)
        svc_sharded.refresh()
        sharded = svc_sharded.query(query, method="corr")
        set_shard_count(1)

        assert sharded.value == pytest.approx(ref.value)
        assert sharded.se == pytest.approx(ref.se)
