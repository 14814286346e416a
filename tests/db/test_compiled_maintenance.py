"""Compiled maintenance: per-view plan caching and its invalidation.

The compiler's own semantics are covered in
``tests/algebra/test_compiler.py``; this file checks the maintenance
wiring — :func:`repro.db.maintenance.compiled_strategy` caches one plan
per round signature on the view, :func:`maintain` executes it, and every
documented invalidation trigger (hash family, engine toggle, shard
count, schema change) recompiles instead of serving a stale pipeline —
plus the ``plan_shards`` memo regression (it previously survived
``set_hash_family``) and the no-op contract of re-asserting a toggle.
"""

import pytest

from repro.algebra import AggSpec, Aggregate, BaseRel, col, set_columnar_enabled
from repro.algebra.compiler import compile_count
from repro.algebra.evaluator import columnar_enabled
from repro.db import Catalog
from repro.db.maintenance import (
    build_strategy,
    compiled_strategy,
    maintain,
    plan_signature,
)
from repro.distributed import (
    engine_fingerprint,
    get_shard_config,
    plan_shards,
    set_shard_count,
)
from repro.stats.hashing import set_hash_family

from tests.conftest import make_log_video_db, visit_view_definition


def _mutate(db, offset):
    db.insert("Log", [(900 + offset * 10 + i, i % 4) for i in range(6)])
    db.delete("Log", [db.relation("Log").rows[offset]])


class TestCompiledStrategyCache:
    def test_identical_rounds_compile_once(self, visit_view):
        view = visit_view
        db = view.database
        _mutate(db, 0)
        strategy, plan = compiled_strategy(view)
        n = compile_count()
        # Same dirty set, new round objects: signature hit, no compile.
        strategy2, plan2 = compiled_strategy(view)
        assert plan2 is plan
        assert strategy2 is strategy
        assert compile_count() == n

    def test_maintained_rounds_reuse_the_plan(self, visit_view):
        view = visit_view
        db = view.database
        baseline = None
        for period in range(3):
            _mutate(db, period)
            before = compile_count()
            maintained = maintain(view)
            assert sorted(maintained.rows) == sorted(view.fresh_data().rows)
            db.apply_deltas()
            compiles = compile_count() - before
            if baseline is None:
                baseline = compiles  # first round pays the compilation
            else:
                assert compiles == 0, "steady-state round recompiled"
        assert baseline >= 1

    def test_signature_tracks_dirty_set_and_minmax(self, log_video_db):
        db = log_video_db
        view = Catalog(db).create_view(
            "mm",
            Aggregate(
                BaseRel("Log"), ["videoId"],
                [AggSpec("smin", "min", col("sessionId"))],
            ),
        )
        assert plan_signature(view) == (frozenset(), False)
        db.insert("Log", [(900, 1)])
        assert plan_signature(view) == (frozenset({"Log"}), False)
        db.delete("Log", [db.relation("Log").rows[0]])
        # Deletions under min/max force recomputation — a distinct shape.
        assert plan_signature(view) == (frozenset({"Log"}), True)

    def test_explicit_strategy_still_maintains(self, visit_view):
        view = visit_view
        _mutate(view.database, 0)
        fresh = view.fresh_data()
        maintained = maintain(view, build_strategy(view))
        assert sorted(maintained.rows) == sorted(fresh.rows)

    def test_invalidate_plans_clears_caches(self, visit_view):
        view = visit_view
        _mutate(view.database, 0)
        compiled_strategy(view)
        plan_shards(view)
        assert view.plan_cache
        assert hasattr(view, "_shard_plan_memo")
        view.invalidate_plans()
        assert not view.plan_cache
        assert not hasattr(view, "_shard_plan_memo")


class TestPlanInvalidationTriggers:
    def test_hash_family_change_recompiles(self, visit_view):
        view = visit_view
        _mutate(view.database, 0)
        _, plan = compiled_strategy(view)
        set_hash_family("linear")
        try:
            _, plan2 = compiled_strategy(view)
            assert plan2 is not plan
        finally:
            set_hash_family("sha1")

    def test_columnar_toggle_recompiles_and_stays_correct(self, visit_view):
        view = visit_view
        db = view.database
        _mutate(db, 0)
        _, plan = compiled_strategy(view)
        old = set_columnar_enabled(False)
        try:
            _, plan2 = compiled_strategy(view)
            assert plan2 is not plan
            maintained = maintain(view)
            assert sorted(maintained.rows) == sorted(view.fresh_data().rows)
        finally:
            set_columnar_enabled(old)

    def test_shard_count_change_recompiles(self, visit_view):
        view = visit_view
        _mutate(view.database, 0)
        _, plan = compiled_strategy(view)
        set_shard_count(2)
        try:
            _, plan2 = compiled_strategy(view)
            assert plan2 is not plan
        finally:
            set_shard_count(1)

    def test_relation_schema_change_recompiles(self, visit_view):
        view = visit_view
        db = view.database
        _mutate(db, 0)
        _, plan = compiled_strategy(view)
        assert plan.valid_for(db.leaves())
        # Same signature, doctored environment: a referenced leaf whose
        # schema no longer matches must fail validation.  (The change
        # table reads Video and the Log deltas, not the Log base.)
        from repro.algebra import Relation, Schema

        doctored = dict(db.leaves())
        video = doctored["Video"]
        doctored["Video"] = Relation(
            Schema(["videoId", "ownerId", "duration", "extra"]),
            [r + (0,) for r in video.rows],
            key=("videoId",),
            name="Video",
        )
        assert not plan.valid_for(doctored)


class TestShardPlanMemo:
    def test_memo_returns_same_plan_object(self, visit_view):
        plan = plan_shards(visit_view)
        assert plan_shards(visit_view) is plan

    def test_memo_invalidated_by_set_hash_family(self, visit_view):
        # Regression: η-leaf caches are keyed by family, but the shard
        # plan memo used to survive set_hash_family unrefreshed.
        plan = plan_shards(visit_view)
        set_hash_family("linear")
        try:
            replanned = plan_shards(visit_view)
            assert replanned is not plan
            assert replanned.partitioned == plan.partitioned
        finally:
            set_hash_family("sha1")

    def test_memo_invalidated_by_new_relation(self, visit_view):
        from repro.algebra import Relation, Schema

        plan = plan_shards(visit_view)
        visit_view.database.add_relation(
            Relation(Schema(["k"]), [(1,)], key=("k",), name="Extra")
        )
        assert plan_shards(visit_view) is not plan

    def test_memoized_plan_still_correct_after_deltas(self, visit_view):
        view = visit_view
        plan = plan_shards(view)
        _mutate(view.database, 0)
        assert plan_shards(view) is plan  # deltas alone keep the memo
        fresh = view.fresh_data()
        set_shard_count(2, backend="serial")
        try:
            maintained = maintain(view)
        finally:
            set_shard_count(1)
        assert sorted(maintained.rows) == sorted(fresh.rows)


#: Each engine toggle, moved off its default.
NON_DEFAULT = {
    "shard_count": lambda: set_shard_count(2, backend="serial"),
    "columnar": lambda: set_columnar_enabled(False),
}


class TestEngineToggleCaches:
    """A toggle flip invalidates every epoch-keyed cache — the compiled
    plan, the ``plan_shards`` memo, the calibration fingerprint — and a
    same-value re-assert invalidates none of them (a gratuitous bump
    would recompile and re-partition every round)."""

    @pytest.fixture(autouse=True)
    def _restore_toggles(self):
        cfg = get_shard_config()
        old = columnar_enabled()
        yield
        set_shard_count(cfg.count, backend=cfg.backend)
        set_columnar_enabled(old)

    @staticmethod
    def _caches(view):
        _, plan = compiled_strategy(view)
        return plan, plan_shards(view), engine_fingerprint()

    @pytest.mark.parametrize("toggle", sorted(NON_DEFAULT))
    def test_flip_invalidates_every_cache(self, visit_view, toggle):
        _mutate(visit_view.database, 0)
        plan, shards, fingerprint = self._caches(visit_view)
        NON_DEFAULT[toggle]()
        assert not plan.valid_for(visit_view.database.leaves())
        replanned = plan_shards(visit_view)
        assert replanned is not shards
        assert replanned.partitioned == shards.partitioned
        assert engine_fingerprint() != fingerprint

    @pytest.mark.parametrize("toggle", sorted(NON_DEFAULT))
    def test_same_value_reassert_invalidates_nothing(self, visit_view,
                                                     toggle):
        _mutate(visit_view.database, 0)
        NON_DEFAULT[toggle]()
        plan, shards, fingerprint = self._caches(visit_view)
        NON_DEFAULT[toggle]()
        assert plan.valid_for(visit_view.database.leaves())
        assert plan_shards(visit_view) is shards
        assert engine_fingerprint() == fingerprint


class TestSanity:
    def test_make_helpers_importable(self):
        # The module-level helpers (not fixtures) stay usable for ad-hoc
        # workloads in other suites.
        db = make_log_video_db()
        view = Catalog(db).create_view("v", visit_view_definition())
        assert view.data is not None or view.materialize() is not None
