"""Unit tests for the confidence machinery (trans/diff tables, SEs)."""

import math

import numpy as np
import pytest

from repro.algebra import Relation, Schema, col
from repro.core.confidence import (
    Estimate,
    correspondence_subtract,
    mean_se,
    sum_se,
    trans_values,
)
from repro.core.estimators import AggQuery, svc_aqp, svc_corr
from repro.errors import EstimationError

SCHEMA = Schema(["k", "v"])
REL = Relation(SCHEMA, [(1, 10.0), (2, 20.0), (3, 30.0)], key=("k",))


class TestTransTables:
    def test_sum_trans_scales_and_folds_predicate(self):
        q = AggQuery("sum", "v", col("v") > 15)
        values = trans_values(REL, q, 0.5)
        assert list(values) == [0.0, 40.0, 60.0]

    def test_count_trans(self):
        q = AggQuery("count", predicate=col("v") > 15)
        values = trans_values(REL, q, 0.25)
        assert list(values) == [0.0, 4.0, 4.0]

    def test_avg_trans_restricts_rows(self):
        q = AggQuery("avg", "v", col("v") > 15)
        values = trans_values(REL, q, 0.25)
        assert list(values) == [20.0, 30.0]

    def test_unsupported_func(self):
        with pytest.raises(EstimationError):
            trans_values(REL, AggQuery("median", "v"), 0.5)

    def test_keyed_trans_against_an_empty_sample(self):
        q = AggQuery("sum", "v")
        empty = Relation(SCHEMA, [], key=("k",))
        diffs = correspondence_subtract(REL, empty, q, 0.5, ("k",))
        assert list(diffs) == [20.0, 40.0, 60.0]


class TestCorrespondenceSubtract:
    def test_null_as_zero_semantics(self):
        clean = Relation(SCHEMA, [(1, 10.0), (4, 40.0)], key=("k",))
        dirty = Relation(SCHEMA, [(1, 10.0), (2, 20.0)], key=("k",))
        q = AggQuery("sum", "v")
        diffs = correspondence_subtract(clean, dirty, q, 1.0, ("k",))
        # key 1: 0; key 2: -20 (deleted); key 4: +40 (new).
        assert sorted(diffs) == [-20.0, 0.0, 40.0]

    def test_identical_relations_zero_diff(self):
        q = AggQuery("count")
        diffs = correspondence_subtract(REL, REL, q, 0.5, ("k",))
        assert np.allclose(diffs, 0.0)


class TestStandardErrors:
    def test_ht_se_constant_values(self):
        """HT handles the random sample size: nonzero on constant data."""
        values = np.full(10, 5.0)
        assert sum_se(values, 0.5) > 0

    def test_ht_se_zero_at_full_ratio(self):
        values = np.array([1.0, 2.0])
        assert sum_se(values, 1.0) == pytest.approx(0.0)

    def test_empty_values(self):
        assert sum_se(np.array([]), 0.5) == 0.0
        assert mean_se(np.array([])) == float("inf")

    def test_mean_se_matches_formula(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        expected = values.std(ddof=1) / math.sqrt(4)
        assert mean_se(values) == pytest.approx(expected)

    @pytest.mark.parametrize("func", ["sum", "count", "avg"])
    def test_correction_se_by_func(self, func):
        """CORR's SE is HT over the diffs for sum/count, a mean's for avg."""
        clean = Relation(SCHEMA, [(1, 12.0), (2, 20.0), (4, 45.0), (5, 7.0)],
                         key=("k",))
        dirty = Relation(SCHEMA, [(1, 10.0), (2, 20.0), (3, 30.0), (5, 9.0)],
                         key=("k",))
        q = AggQuery(func, None if func == "count" else "v")
        diffs = correspondence_subtract(clean, dirty, q, 0.5, ("k",))
        est = svc_corr(REL, dirty, clean, q, 0.5, key=("k",))
        want = mean_se(diffs) if func == "avg" else sum_se(diffs, 0.5)
        assert est.se == pytest.approx(want, rel=1e-12)
        assert est.se > 0

    def test_correction_se_rejects_holistic_funcs(self):
        with pytest.raises(EstimationError):
            svc_corr(REL, REL, REL, AggQuery("median", "v"), 0.5, key=("k",))

    @pytest.mark.parametrize("call", [
        lambda: sum_se(np.array([1.0]), 0.5, se_method="ht"),
        lambda: svc_aqp(REL, AggQuery("sum", "v"), 0.5, se_method="ht"),
        lambda: svc_corr(REL, REL, REL, AggQuery("sum", "v"), 0.5,
                         key=("k",), se_method="ht"),
    ], ids=["sum_se", "svc_aqp", "svc_corr"])
    def test_se_method_option_is_gone(self, call):
        """Horvitz–Thompson is the only SE; there is no switch."""
        with pytest.raises(TypeError, match="se_method"):
            call()



class TestEstimateContainer:
    def test_interval_symmetry(self):
        est = Estimate(100.0, 10.0, confidence=0.95)
        lo, hi = est.interval
        assert lo == pytest.approx(100.0 - 1.96 * 10.0, abs=0.05)
        assert hi == pytest.approx(100.0 + 1.96 * 10.0, abs=0.05)

    def test_contains(self):
        est = Estimate(100.0, 10.0)
        assert est.contains(105.0)
        assert not est.contains(200.0)

    def test_confidence_validation(self):
        with pytest.raises(EstimationError):
            Estimate(0.0, 1.0, confidence=1.5).z

    def test_repr(self):
        assert "95%" in repr(Estimate(1.0, 0.1, method="SVC+AQP"))
