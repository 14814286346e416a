"""The estimators as reductions of one aligned diff table.

Every sample-mean estimate — scalar, per group, with the outlier
stratum, and the §5.2.2 choice — reduces the same table.  The oracles
here are composed independently of it: per-group estimates from the
scalar estimators on ``partition()``'s sub-relations, the outlier merge
from the closed forms of §6.3 over the rows themselves.
"""

import math

import numpy as np
import pytest

from repro.algebra import (
    ALWAYS,
    AggSpec,
    Aggregate,
    BaseRel,
    Relation,
    Schema,
    col,
    set_columnar_enabled,
)
from repro.core import AggQuery, OutlierIndex, StaleViewCleaner
from repro.core.estimators import (
    estimate_groups,
    partition,
    recommend_estimator,
    svc_aqp,
    svc_corr,
)
from repro.core.hashing import hash_sample
from repro.db import Catalog, Database

SCHEMA = Schema(["k", "grp", "v"])
RATIO = 0.3
QUERIES = [
    AggQuery("sum", "v"),
    AggQuery("count", predicate=col("v") > 20.0),
    AggQuery("avg", "v", col("v") < 40.0),
    AggQuery("sum", "v", col("v") > 1e9),  # matches nothing
]


def close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def same_estimate(a, b):
    assert close(a.value, b.value), (a, b)
    assert close(a.se, b.se), (a, b)
    assert (a.method, a.sample_rows) == (b.method, b.sample_rows)


def stale_and_fresh(seed):
    """A keyed view pair whose rows change value, move between groups,
    disappear and appear."""
    rng = np.random.default_rng(seed)
    stale = [(i, int(rng.integers(0, 6)), float(rng.gamma(2.0, 15.0)))
             for i in range(400)]
    fresh = []
    for k, g, v in stale:
        draw = rng.random()
        if draw < 0.05:
            continue                                   # deleted
        if draw < 0.15:
            v *= 1.5                                   # updated
        elif draw < 0.2:
            g = (g + 1) % 6                            # moved group
        fresh.append((k, g, v))
    fresh += [(1000 + j, int(rng.integers(0, 7)), float(rng.gamma(2.0, 15.0)))
              for j in range(40)]                      # inserted, one new group
    return (Relation(SCHEMA, stale, key=("k",), name="S"),
            Relation(SCHEMA, fresh, key=("k",), name="S'"))


def samples(seed):
    stale, fresh = stale_and_fresh(seed)
    return (stale, hash_sample(stale, RATIO, seed=seed),
            hash_sample(fresh, RATIO, seed=seed))


def per_partition(method, query, stale, dirty, clean):
    """The per-group oracle: the scalar estimators on each sub-relation."""
    clean_parts = partition(clean, ("grp",))
    if method == "aqp":
        return {g: svc_aqp(part, query, RATIO) for g, part in clean_parts.items()}
    dirty_parts = partition(dirty, ("grp",))
    stale_parts = partition(stale, ("grp",))
    empty = Relation(SCHEMA, [], key=("k",))
    out = {}
    for g in set(clean_parts) | set(dirty_parts) | set(stale_parts):
        stale_part = stale_parts.get(g, empty)
        out[g] = svc_corr(
            stale_part, dirty_parts.get(g, empty), clean_parts.get(g, empty),
            query, RATIO, key=("k",),
            stale_value=query.evaluate(stale_part) if g in stale_parts else 0.0,
        )
    return out


@pytest.mark.parametrize("columnar", [True, False], ids=["batch", "rows"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouped_estimates_are_the_per_partition_scalar_ones(seed, columnar):
    stale, dirty, clean = samples(seed)
    old = set_columnar_enabled(columnar)
    try:
        for query in QUERIES:
            for method in ("aqp", "corr"):
                got = estimate_groups(method, query, ("grp",), RATIO, clean,
                                      dirty_sample=dirty, stale_view=stale)
                want = per_partition(method, query, stale, dirty, clean)
                assert set(got) == set(want)
                for g in want:
                    same_estimate(got[g], want[g])
    finally:
        set_columnar_enabled(old)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_auto_groups_pick_the_break_even_choice_of_each_partition(seed):
    stale, dirty, clean = samples(seed)
    dirty_parts = partition(dirty, ("grp",))
    clean_parts = partition(clean, ("grp",))
    empty = Relation(SCHEMA, [], key=("k",))
    chosen = set()
    for query in QUERIES:
        auto = estimate_groups("auto", query, ("grp",), RATIO, clean,
                               dirty_sample=dirty, stale_view=stale)
        by_method = {
            m: estimate_groups(m, query, ("grp",), RATIO, clean,
                               dirty_sample=dirty, stale_view=stale)
            for m in ("aqp", "corr")
        }
        for g, est in auto.items():
            pick = recommend_estimator(
                dirty_parts.get(g, empty), clean_parts.get(g, empty), query,
                RATIO, key=("k",))
            assert est.method == {"aqp": "SVC+AQP", "corr": "SVC+CORR"}[pick]
            same_estimate(est, by_method[pick][g])
            chosen.add(pick)
    assert chosen == {"aqp", "corr"}


def test_query_groups_auto_through_the_facade(stale_visit_view):
    cleaner = StaleViewCleaner(stale_visit_view, ratio=0.5, seed=4)
    cleaner.refresh()
    query = AggQuery("sum", "visitCount")
    got = cleaner.query_groups(query, ("ownerId",), method="auto")
    dirty_parts = partition(cleaner.dirty_sample, ("ownerId",))
    clean_parts = partition(cleaner.clean_sample, ("ownerId",))
    empty = Relation(cleaner.clean_sample.schema, [])
    assert got
    for g, est in got.items():
        pick = recommend_estimator(dirty_parts.get(g, empty),
                                   clean_parts.get(g, empty), query, 0.5,
                                   key=stale_visit_view.key)
        assert est.method == {"aqp": "SVC+AQP", "corr": "SVC+CORR"}[pick]


# ----------------------------------------------------------------------
# The outlier stratum (§6.3) in closed form
# ----------------------------------------------------------------------
def outlier_cleaner(seed):
    rng = np.random.default_rng(seed)
    db = Database()
    prices = rng.lognormal(3.0, 1.5, size=400)
    db.add_relation(Relation(
        Schema(["id", "grp", "price"]),
        [(i, int(i % 40), float(p)) for i, p in enumerate(prices)],
        key=("id",), name="Sales",
    ))
    view = Catalog(db).create_view("totals", Aggregate(
        BaseRel("Sales"), ["grp"],
        [AggSpec("total", "sum", col("price")), AggSpec("n", "count")],
    ))
    index = OutlierIndex.from_top_k(db.relation("Sales"), "price", 8)
    cleaner = StaleViewCleaner(view, ratio=0.4, seed=3, outlier_index=index)
    db.insert("Sales", [(1000 + i, i % 45, float(50 + 900 * (i % 5 == 0)))
                        for i in range(60)])
    db.delete_by_key("Sales", [(3,), (4,)])
    cleaner.refresh()
    return cleaner


def matched(rel, query):
    """(attribute value or 1) of every row that satisfies the predicate."""
    pred = query.predicate.bind(rel.schema)
    idx = rel.schema.index(query.attr) if query.attr else None
    return [1.0 if idx is None else row[idx] for row in rel.rows if pred(row)]


@pytest.mark.parametrize("columnar", [True, False], ids=["batch", "rows"])
@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("pred", [ALWAYS, col("grp") < 25], ids=["all", "grp<25"])
def test_outlier_estimates_are_the_closed_forms(seed, pred, columnar):
    cleaner = outlier_cleaner(seed)
    sample = cleaner._sample
    m = sample.ratio
    stale = cleaner.view.require_data()

    def split(rel):
        idx = rel.schema.indexes(cleaner.view.key)
        rows = [(tuple(r[i] for i in idx) in sample.outlier_keys, r)
                for r in rel.rows]
        return (Relation(rel.schema, [r for out, r in rows if not out]),
                Relation(rel.schema, [r for out, r in rows if out]))

    reg_clean, _ = split(cleaner.clean_sample)
    reg_dirty, _ = split(cleaner.dirty_sample)
    _, stale_out = split(stale)
    outliers = sample.outlier_rows
    assert len(outliers) and len(stale_out)
    old = set_columnar_enabled(columnar)
    try:
        for fn, attr in (("sum", "total"), ("count", None)):
            query = AggQuery(fn, attr, pred)
            regular = (sum(matched(reg_clean, query)) / m
                       - sum(matched(reg_dirty, query)) / m)
            want = (query.evaluate(stale) + regular
                    + sum(matched(outliers, query))
                    - sum(matched(stale_out, query)))
            assert cleaner.query(query, "corr").value == pytest.approx(
                want, rel=1e-12)
            want = sum(matched(reg_clean, query)) / m + sum(
                matched(outliers, query))
            assert cleaner.query(query, "aqp").value == pytest.approx(
                want, rel=1e-12)
        query = AggQuery("avg", "total", pred)
        reg, out = matched(reg_clean, query), matched(outliers, query)
        want = (sum(reg) / m + sum(out)) / (len(reg) / m + len(out))
        assert cleaner.query(query, "aqp").value == pytest.approx(want, rel=1e-12)
    finally:
        set_columnar_enabled(old)
