"""Tests for the StaleViewCleaner facade (the §3.2 workflow)."""

import pytest

from repro.algebra import col
from repro.core.estimators import AggQuery
from repro.core.outlier_index import OutlierIndex
from repro.core.svc import StaleViewCleaner
from repro.db import maintain
from repro.errors import EstimationError
from repro.workloads.queries import relative_error


@pytest.fixture
def svc(stale_visit_view):
    cleaner = StaleViewCleaner(stale_visit_view, ratio=0.5, seed=4)
    cleaner.refresh()
    return cleaner


class TestWorkflow:
    def test_refresh_creates_corresponding_samples(self, svc):
        assert len(svc.clean_sample) > 0
        check = svc.sample_view.check_correspondence(svc.view.fresh_data())
        assert check.holds()

    def test_query_corr_beats_stale(self, svc):
        q = AggQuery("sum", "visitCount")
        truth = q.evaluate(svc.view.fresh_data())
        stale = svc.stale_answer(q)
        corr = svc.query(q, method="corr").value
        assert relative_error(corr, truth) <= relative_error(stale, truth)

    def test_query_methods_exist(self, svc):
        q = AggQuery("count", predicate=col("visitCount") > 0)
        for method in ("corr", "aqp", "auto"):
            est = svc.query(q, method=method)
            assert est.value >= 0

    def test_median_uses_bootstrap(self, svc):
        est = svc.query(AggQuery("median", "visitCount"))
        assert est.ci_low <= est.value <= est.ci_high

    def test_extreme_queries_rejected_from_query(self, svc):
        with pytest.raises(EstimationError):
            svc.query(AggQuery("max", "visitCount"))

    def test_query_extreme(self, svc):
        est = svc.query_extreme(AggQuery("max", "visitCount"))
        assert est.exceedance_probability <= 1.0

    def test_group_queries(self, svc):
        ests = svc.query_groups(AggQuery("sum", "visitCount"), ("ownerId",))
        assert len(ests) >= 1

    def test_select(self, svc):
        result = svc.select(col("visitCount") > 1)
        assert result.rows.schema == svc.view.require_data().schema

    def test_unknown_method_raises(self, svc):
        with pytest.raises(EstimationError):
            svc.query(AggQuery("count"), method="bogus")

    @pytest.mark.parametrize("method", ["bogus"])
    @pytest.mark.parametrize("func", ["sum", "count", "median"])
    def test_group_queries_reject_unknown_methods(self, svc, func, method):
        with pytest.raises(EstimationError, match=f"unknown method '{method}'"):
            svc.query_groups(AggQuery(func, "visitCount"), ("ownerId",),
                             method=method)

    @pytest.mark.parametrize("func", ["sum", "count", "avg"])
    def test_group_queries_accept_auto(self, svc, func):
        query = AggQuery(func, None if func == "count" else "visitCount")
        auto = svc.query_groups(query, ("ownerId",), method="auto")
        corr = svc.query_groups(query, ("ownerId",), method="corr")
        assert auto and set(auto) == set(corr)
        assert {e.method for e in auto.values()} <= {"SVC+AQP", "SVC+CORR"}

    @pytest.mark.parametrize("func", ["sum", "count", "avg", "median"])
    def test_query_extreme_rejects_non_extreme_funcs(self, svc, func):
        with pytest.raises(EstimationError, match="min/max"):
            svc.query_extreme(AggQuery(func, "visitCount"))

    def test_advance_after_maintenance(self, svc):
        maintain(svc.view)
        svc.view.database.apply_deltas()
        svc.advance()
        q = AggQuery("sum", "visitCount")
        svc.refresh()
        est = svc.query(q)
        assert est.value == pytest.approx(q.evaluate(svc.view.require_data()))


class TestWithOutlierIndex:
    def test_outlier_cleaner_workflow(self, stale_visit_view):
        db = stale_visit_view.database
        index = OutlierIndex.from_top_k(db.relation("Log"), "sessionId", 10)
        cleaner = StaleViewCleaner(stale_visit_view, ratio=0.5, seed=4,
                                   outlier_index=index)
        cleaner.refresh()
        q = AggQuery("sum", "visitCount")
        truth = q.evaluate(stale_visit_view.fresh_data())
        est = cleaner.query(q, method="corr")
        assert relative_error(est.value, truth) < 0.5

    @pytest.mark.parametrize("func", ["sum", "median"])
    @pytest.mark.parametrize("indexed", [False, True], ids=["plain", "outlier"])
    def test_unknown_method_raises_on_every_path(
        self, stale_visit_view, indexed, func
    ):
        index = None
        if indexed:
            log = stale_visit_view.database.relation("Log")
            index = OutlierIndex.from_top_k(log, "sessionId", 10)
        cleaner = StaleViewCleaner(stale_visit_view, ratio=0.5, seed=4,
                                   outlier_index=index)
        cleaner.refresh()
        with pytest.raises(EstimationError, match="unknown method 'bogus'"):
            cleaner.query(AggQuery(func, "visitCount"), method="bogus")

    def test_repr_mentions_outliers(self, stale_visit_view):
        db = stale_visit_view.database
        index = OutlierIndex.from_top_k(db.relation("Log"), "sessionId", 5)
        cleaner = StaleViewCleaner(stale_visit_view, outlier_index=index)
        assert "outliers=on" in repr(cleaner)
