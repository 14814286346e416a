"""Tests for the workload views (join view, complex, cube, Conviva) and
the random query generator."""

import numpy as np
import pytest

from repro.algebra import Relation, Schema
from repro.algebra.predicates import Between, IsIn
from repro.core.estimators import AggQuery
from repro.db import CHANGE_TABLE, Catalog, RECOMPUTE, classify_view, maintain
from repro.db.staleness import classify
from repro.workloads import (
    QueryGenerator,
    build_conviva_workload,
    build_tpcd,
    complex_query_attrs,
    conviva_query_attrs,
    create_cube_view,
    create_join_view,
    max_relative_error,
    median_relative_error,
    relative_error,
    rollup_queries,
    tpcd_queries,
)
from repro.workloads.complex_views import (
    COMPLEX_VIEW_BUILDERS,
    build_complex_workload,
    generate_denorm_updates,
)
from repro.workloads.cube import CUBE_DIMENSIONS


class TestJoinView:
    @pytest.fixture(scope="class")
    def setup(self):
        db, gen = build_tpcd(scale=0.2, z=2.0, seed=5)
        view = create_join_view(db, Catalog(db))
        return db, gen, view

    def test_view_size_matches_lineitem(self, setup):
        db, _, view = setup
        assert len(view.data) == len(db.relation("lineitem"))

    def test_revenue_column_computed(self, setup):
        _, _, view = setup
        i_rev = view.data.schema.index("revenue")
        i_price = view.data.schema.index("l_extendedprice")
        i_disc = view.data.schema.index("l_discount")
        for row in view.data.rows[:20]:
            assert row[i_rev] == pytest.approx(row[i_price] * (1 - row[i_disc]))

    def test_twelve_queries_evaluate(self, setup):
        _, _, view = setup
        assert len(tpcd_queries()) == 12
        for name, q, group_by in tpcd_queries():
            for g in group_by:
                view.data.schema.index(g)
            value = q.evaluate(view.data)
            assert value == value  # not NaN

    def test_maintenance_after_updates(self, setup):
        db, gen, view = setup
        gen.generate_updates(db, 0.05)
        fresh = view.fresh_data()
        maintained = maintain(view)
        assert classify(maintained, fresh).is_fresh()
        db.apply_deltas()


class TestComplexViews:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_complex_workload(scale=0.15, seed=6)

    def test_all_ten_views_materialize(self, workload):
        _, _, views = workload
        assert set(views) == set(COMPLEX_VIEW_BUILDERS)
        for view in views.values():
            assert len(view.data) > 0

    def test_v21_v22_classified_as_expected(self, workload):
        _, _, views = workload
        assert classify_view(views["V21"].definition) == RECOMPUTE
        assert classify_view(views["V3"].definition) == CHANGE_TABLE

    def test_query_attrs_exist(self, workload):
        _, _, views = workload
        for name, view in views.items():
            pred, agg = complex_query_attrs(name)
            for a in pred + agg:
                view.data.schema.index(a)

    def test_updates_and_maintenance(self, workload):
        db, _, views = workload
        generate_denorm_updates(db, 0.05, seed=1)
        for name in ("V3", "V21", "V22"):
            view = views[name]
            fresh = view.fresh_data()
            maintained = maintain(view)
            assert classify(maintained, fresh).is_fresh(), name
        db.apply_deltas()


class TestCube:
    def test_cube_and_rollups(self):
        db, gen = build_tpcd(scale=0.15, z=1.0, seed=7)
        view = create_cube_view(db, Catalog(db))
        assert view.key == CUBE_DIMENSIONS
        assert len(rollup_queries()) == 13
        total = AggQuery("sum", "revenue").evaluate(view.data)
        assert total > 0
        # Grand-total consistency: the cube's revenue equals lineitem's.
        lineitem = db.relation("lineitem")
        i_p = lineitem.schema.index("l_extendedprice")
        i_d = lineitem.schema.index("l_discount")
        expected = sum(r[i_p] * (1 - r[i_d]) for r in lineitem.rows)
        assert total == pytest.approx(expected, rel=1e-9)

    def test_median_variant(self):
        queries = rollup_queries("median")
        assert all(q.func == "median" for _, q, _ in queries)


class TestConviva:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_conviva_workload(n_records=3000, seed=8)

    def test_eight_views(self, workload):
        _, _, views, _ = workload
        assert len(views) == 8

    def test_views_keyed(self, workload):
        _, _, views, _ = workload
        for name, view in views.items():
            assert view.data.validate_key(), name

    def test_nested_views_recompute(self, workload):
        _, _, views, _ = workload
        assert classify_view(views["V4"].definition) == RECOMPUTE
        assert classify_view(views["V6"].definition) == RECOMPUTE
        assert classify_view(views["V2"].definition) == CHANGE_TABLE

    def test_updates_maintained(self, workload):
        db, catalog, views, gen = workload
        gen.append_updates(db, 500)
        for name in ("V2", "V4", "V6"):
            view = views[name]
            fresh = view.fresh_data()
            assert classify(maintain(view), fresh).is_fresh(), name
        db.apply_deltas()

    def test_query_attrs_resolve(self, workload):
        _, _, views, _ = workload
        for name, view in views.items():
            pred, agg = conviva_query_attrs(name)
            for a in pred + agg:
                view.data.schema.index(a)


class TestQueryGenerator:
    @pytest.fixture(scope="class")
    def view_data(self):
        db, _ = build_tpcd(scale=0.2, z=2.0, seed=9)
        return create_join_view(db, Catalog(db)).data

    def test_batch_size(self, view_data):
        qgen = QueryGenerator(view_data, ["o_orderpriority"], ["revenue"],
                              seed=0)
        assert len(qgen.batch(100)) == 100

    def test_queries_are_selective_but_nonempty(self, view_data):
        qgen = QueryGenerator(view_data, ["o_orderdate"], ["revenue"], seed=1)
        sels = [q.selectivity(view_data) for q in qgen.batch(30)]
        assert all(0.0 <= s <= 1.0 for s in sels)
        assert np.mean(sels) > 0.02

    def test_count_queries_have_no_attr(self, view_data):
        qgen = QueryGenerator(view_data, ["l_shipmode"], ["revenue"], seed=2)
        q = qgen.draw(func="count")
        assert q.attr is None

    def test_deterministic_with_seed(self, view_data):
        a = QueryGenerator(view_data, ["l_shipmode"], ["revenue"], seed=3)
        b = QueryGenerator(view_data, ["l_shipmode"], ["revenue"], seed=3)
        assert [q.name for q in a.batch(10)] == [q.name for q in b.batch(10)]

    def test_numeric_ranges_follow_value_order(self):
        # Sorted by repr, 1000 < 117 < 200 < 34 < 5, and a range such as
        # Between(117, 34) matched nothing.
        domain = [5, 34, 117, 200, 1000]
        data = Relation(Schema(["k", "v"]),
                        [(i, float(i)) for i in domain * 3], key=None)
        for seed in range(40):
            pred = QueryGenerator(data, ["k"], ["v"], seed=seed)._predicate("k")
            assert isinstance(pred, Between)
            assert pred.lo < pred.hi
            inside = [v for v in domain if pred.lo <= v <= pred.hi]
            assert inside == domain[domain.index(pred.lo):
                                    domain.index(pred.hi) + 1]

    def test_unorderable_domains_draw_key_sets(self):
        # int / str / None do not compare: no range, but the same stretch
        # of the (repr-ordered) domain as a key set, which always matches.
        domain = [3, "a", None, 7.5, "b", 12]
        data = Relation(Schema(["k", "v"]),
                        [(k, 1.0) for k in domain * 2], key=None)
        for seed in range(20):
            q = QueryGenerator(data, ["k"], ["v"], funcs=("count",),
                               seed=seed).draw()
            assert isinstance(q.predicate, IsIn)
            assert len(q.predicate.values) >= 2
            assert q.evaluate(data) >= 4


class TestErrorMetrics:
    def test_relative_error_basics(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(0, 0) == 0.0
        assert relative_error(5, 0) == 1.0
        assert relative_error(float("nan"), 10) == 1.0

    def test_relative_error_capped(self):
        assert relative_error(1000, 10) == 1.0

    def test_median_and_max(self):
        pairs = [(1, 1), (2, 1), (1.5, 1)]
        assert median_relative_error(pairs) == pytest.approx(0.5)
        assert max_relative_error(pairs) == pytest.approx(1.0)
        assert median_relative_error([]) == 0.0
