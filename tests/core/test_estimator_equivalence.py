"""Batch kernel ≡ row oracle for the query and estimator layer.

Every estimator entry point evaluates a query as predicate → mask →
numpy reduction on the relation's cached columns, with the row loop as
its per-call fallback.  ``set_columnar_enabled(False)`` selects the row
loops, which makes them the oracle here: each property runs the same
call under both engines and demands the same value — to 1e-12 of the
data's scale for floats (numpy sums pairwise, Python left to right),
exactly for counts and for integer sums — or the same exception type.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.confidence as confidence_module
from repro.algebra import (
    ALWAYS,
    AggSpec,
    Aggregate,
    And,
    BaseRel,
    Between,
    IsIn,
    Join,
    Not,
    Or,
    Relation,
    Schema,
    col,
    evaluate,
    func,
    set_columnar_enabled,
)
from repro.algebra.aggregates import _pick
from repro.algebra.predicates import Tup
from repro.core import AggQuery, OutlierIndex, StaleViewCleaner
from repro.core.confidence import (
    _ALIGNMENT,
    _try_columns,
    correspondence_subtract,
    trans_values,
)
from repro.core.estimators import estimate_groups, svc_aqp, svc_corr
from repro.core.outlier_index import OutlierAugmentedSample
from repro.db import Catalog, Database
from repro.serving import FreshnessScheduler, FreshnessSLA, ViewServer

RATIO = 0.25
SCHEMA = Schema(["k", "k2", "g", "i", "f", "b", "s"])


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # the oracle's error type is the contract
        return "error", type(exc)


def both_engines(fn):
    """``fn()`` under the batch kernel and under the row loops."""
    old = set_columnar_enabled(True)
    try:
        fast = outcome(fn)
        set_columnar_enabled(False)
        slow = outcome(fn)
    finally:
        set_columnar_enabled(old)
    return fast, slow


def close(a, b, scale):
    if isinstance(a, float) or isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)
    return a == b


def same(fast, slow, scale):
    """Values of one call under both engines agree (see module doc)."""
    assert fast[0] == slow[0], (fast, slow)
    a, b = fast[1], slow[1]
    if fast[0] == "error":
        assert a is b, (a, b)
    elif isinstance(a, dict):
        assert set(a) == set(b)
        for g in a:
            same(("ok", a[g]), ("ok", b[g]), scale)
    elif isinstance(a, np.ndarray):
        # Diff/trans tables are bags: their order is unspecified.
        assert len(a) == len(b)
        for x, y in zip(np.sort(a).tolist(), np.sort(b).tolist()):
            assert close(x, y, scale), (x, y)
    elif hasattr(a, "se"):
        assert close(a.value, b.value, scale), (a, b)
        assert close(a.se, b.se, scale), (a, b)
        assert a.sample_rows == b.sample_rows
        assert a.method == b.method
    else:
        assert close(a, b, scale), (a, b)


def scale_of(*rels):
    total = 1.0
    for rel in rels:
        for row in rel.rows:
            total += sum(abs(v) for v in row[3:5]
                         if isinstance(v, (int, float)) and v == v
                         and abs(v) != math.inf)
    return total / RATIO


PREDICATES = [
    ALWAYS,
    Between(col("i"), -3, 4),
    Between(col("f"), -50.0, 25.5),
    IsIn(col("s"), ["a", "c"]),
    IsIn(col("i"), [0, 1, 2, 7]),
    And(col("i") > 0, col("b") == True),  # noqa: E712 — a term, not a test
    Or(col("f") < 0.0, col("s") == "b"),
    Not(col("i") >= 3),
    col("f") <= col("i"),
    col("s") != "a",
    (col("g") == 1) & ~(col("f") * 2 + 1 > 10.0),
    Between(col("i"), 5, -5),  # matches nothing
]
QUERIES = [
    AggQuery(fn, attr, pred)
    for pred in PREDICATES
    for fn, attr in (("sum", "i"), ("sum", "f"), ("sum", "b"), ("avg", "f"),
                     ("avg", "i"), ("count", None))
]

values = st.tuples(
    st.integers(0, 3),                                   # g
    st.integers(-10, 10),                                # i
    st.floats(-1000, 1000, allow_nan=False, width=32),   # f
    st.booleans(),                                       # b
    st.sampled_from(["a", "b", "c"]),                    # s
)
#: One view key per entry: where it lives (both samples, both but
#: updated, only the dirty one = superfluous, only the clean one =
#: missing) and its row versions.
entries = st.lists(
    st.tuples(
        st.integers(0, 60), st.integers(0, 1),
        st.sampled_from(["both", "updated", "dirty", "clean"]),
        values, values,
    ),
    max_size=30,
    unique_by=lambda e: e[:2],
)


def sample_pair(entry_list, key=("k", "k2")):
    dirty, clean = [], []
    for k, k2, where, old, new in entry_list:
        if where in ("both", "updated", "dirty"):
            dirty.append((k, k2) + old)
        if where in ("both", "clean"):
            clean.append((k, k2) + old)
        if where == "updated":
            clean.append((k, k2) + new)
    return (Relation(SCHEMA, dirty, key=key, name="dirty"),
            Relation(SCHEMA, clean, key=key, name="clean"))


def stale_view(entry_list, extra, key=("k", "k2")):
    """A stale view holding the dirty sample's rows and ``extra`` others."""
    rows = [(k, k2) + old for k, k2, where, old, _ in entry_list
            if where != "clean"]
    rows += [(100 + n, 0) + v for n, v in enumerate(extra)]
    return Relation(SCHEMA, rows, key=key, name="stale")


# ----------------------------------------------------------------------
# Point queries
# ----------------------------------------------------------------------
@given(entries)
@settings(max_examples=40, deadline=None)
def test_query_methods_match_the_row_oracle(entry_list):
    rel, _ = sample_pair(entry_list)
    scale = scale_of(rel)
    for query in QUERIES:
        for call in (query.evaluate, query.matching_values, query.selectivity):
            same(*both_engines(lambda: call(rel)), scale)
        same(*both_engines(lambda: trans_values(rel, query, RATIO)), scale)
        if len(rel):
            assert _try_columns(rel, query) is not None


@given(entries)
@settings(max_examples=25, deadline=None)
def test_counts_and_integer_sums_are_exact(entry_list):
    rel, _ = sample_pair(entry_list)
    for pred in PREDICATES:
        for query in (AggQuery("count", predicate=pred),
                      AggQuery("sum", "i", pred), AggQuery("sum", "b", pred),
                      AggQuery("max", "i", pred), AggQuery("median", "f", pred),
                      AggQuery("count_distinct", "i", pred)):
            fast, slow = both_engines(lambda: query.evaluate(rel))
            assert fast == slow or (math.isnan(fast[1]) and math.isnan(slow[1]))


@given(entries, st.booleans())
@settings(max_examples=40, deadline=None)
def test_sample_pair_estimators_match_the_row_oracle(entry_list, one_key):
    key = ("k", "k2")
    if one_key:  # single-column key: keep one entry per k
        seen, kept = set(), []
        for e in entry_list:
            if e[0] not in seen:
                seen.add(e[0])
                kept.append(e)
        entry_list, key = kept, ("k",)
    dirty, clean = sample_pair(entry_list, key)
    stale = stale_view(entry_list, [v for *_, v in entry_list[:5]], key)
    scale = scale_of(dirty, clean, stale)
    for query in QUERIES[::2] + QUERIES[1::7]:
        same(*both_engines(lambda: correspondence_subtract(
            clean, dirty, query, RATIO, key)), scale)
        same(*both_engines(lambda: svc_aqp(clean, query, RATIO)), scale)
        same(*both_engines(lambda: svc_corr(
            stale, dirty, clean, query, RATIO, key=key)), scale)


@given(entries)
@settings(max_examples=30, deadline=None)
def test_group_estimates_match_the_row_oracle(entry_list):
    dirty, clean = sample_pair(entry_list)
    stale = stale_view(entry_list, [v for *_, v in entry_list[:6]])
    scale = scale_of(dirty, clean, stale)
    for query in QUERIES[::5]:
        for group_by in (("g",), ("s", "b")):
            same(*both_engines(lambda: estimate_groups(
                "aqp", query, group_by, RATIO, clean)), scale)
            same(*both_engines(lambda: estimate_groups(
                "corr", query, group_by, RATIO, clean,
                dirty_sample=dirty, stale_view=stale)), scale)


# ----------------------------------------------------------------------
# Hostile columns: fallback, with the row path's value or error type
# ----------------------------------------------------------------------
HOSTILE = {
    "none": [1.5, None, 2.5, 4.0],
    "nan": [1.5, float("nan"), 2.5, 4.0],
    "zeros": [0.0, -0.0, -0.0, 0.0],
    "big": [2 ** 53, 1, -(2 ** 53) - 2, 3],
    "boolint": [True, 2, False, 7],
    "text": ["x", "y", "x", "z"],
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
@pytest.mark.parametrize("fn", ["sum", "avg", "count"])
@pytest.mark.parametrize("parity", [0, 1])  # 1 selects the hostile value
def test_hostile_value_columns(name, fn, parity):
    schema = Schema(["k", "v", "w"])
    column = HOSTILE[name]
    old = Relation(schema, [(i, v, i % 2) for i, v in enumerate(column)],
                   key=("k",))
    new = Relation(schema, [(i + 1, v, i % 2) for i, v in enumerate(column)],
                   key=("k",))
    query = AggQuery(fn, "v", col("w") == parity)
    takes_kernel = _try_columns(old, query) is not None
    assert takes_kernel == (name in ("nan", "zeros"))
    for call in (
        lambda: query.evaluate(old),
        lambda: query.matching_values(old),
        lambda: trans_values(old, query, RATIO),
        lambda: correspondence_subtract(new, old, query, RATIO, ("k",)),
        lambda: svc_aqp(new, query, RATIO),
        lambda: svc_corr(old, old, new, query, RATIO, key=("k",)),
        lambda: estimate_groups("corr", query, ("w",), RATIO, new,
                                dirty_sample=old, stale_view=old),
    ):
        fast, slow = both_engines(call)
        same(fast, slow, 2.0 ** 62)
    # The predicate, not the aggregated column, is hostile.
    query = AggQuery("count", predicate=col("v") > 1)
    same(*both_engines(lambda: query.evaluate(old)), 1.0)


@pytest.mark.parametrize("keys", [
    [None, 1, 2], [float("nan"), 1.0, 2.0], [1, 1, 2], [2 ** 53, 2 ** 53 + 1, 3],
    [True, 1, 0],
])
def test_hostile_keys_take_the_row_subtract(keys):
    schema = Schema(["k", "v"])
    dirty = Relation(schema, [(k, 1.0 + n) for n, k in enumerate(keys)],
                     key=("k",))
    clean = Relation(schema, [(k, 2.5 * n) for n, k in enumerate(keys)]
                     + [(99, 7.0)], key=("k",))
    for fn in ("sum", "avg", "count"):
        query = AggQuery(fn, "v", col("v") > 1.0)
        same(*both_engines(lambda: correspondence_subtract(
            clean, dirty, query, RATIO, ("k",))), 100.0)
        same(*both_engines(lambda: svc_corr(
            dirty, dirty, clean, query, RATIO, key=("k",))), 100.0)


def test_predicate_errors_surface_unchanged():
    rel = Relation(Schema(["k", "v", "d"]), [(1, 2.0, 0.0), (2, 3.0, 1.0)],
                   key=("k",))
    opaque = AggQuery("sum", "v", func("odd", lambda k: k % 2 == 1, col("k")) == True)  # noqa: E712,E501
    guarded = AggQuery("sum", "v", And(col("d") != 0.0, col("v") / col("d") > 1))
    raising = AggQuery("sum", "v", col("v") / col("d") > 1)
    unknown = AggQuery("sum", "nope", col("v") > 0)
    for query in (opaque, guarded, raising, unknown):
        fast, slow = both_engines(lambda: query.evaluate(rel))
        same(fast, slow, 10.0)
        same(*both_engines(lambda: svc_aqp(rel, query, RATIO)), 10.0)
    assert both_engines(lambda: raising.evaluate(rel))[0] == (
        "error", ZeroDivisionError)


# ----------------------------------------------------------------------
# Outlier-augmented estimates
# ----------------------------------------------------------------------
def outlier_cleaner():
    rng = np.random.default_rng(5)
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


def test_outlier_estimates_match_the_row_oracle():
    cleaner = outlier_cleaner()
    sample = cleaner._sample
    assert isinstance(sample, OutlierAugmentedSample) and sample.outlier_keys
    for pred in (ALWAYS, Between(col("grp"), 5, 30), col("n") > 10):
        for fn, attr in (("sum", "total"), ("count", None), ("avg", "total")):
            query = AggQuery(fn, attr, pred)
            for method in ("aqp", "corr"):
                same(*both_engines(lambda: cleaner.query(query, method=method)),
                     1e6)
    stale = cleaner.view.require_data()
    first = sample._split(stale)
    assert sample._split(stale) is first  # one split per (relation, O)
    old_keys = sample.outlier_keys
    cleaner.refresh()
    assert sample.outlier_keys is not old_keys
    assert sample._split(stale) is not first


# ----------------------------------------------------------------------
# The alignment lives and dies with its sample pair
# ----------------------------------------------------------------------
def count_factorizations(monkeypatch):
    calls = []
    real = confidence_module.pack

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(confidence_module, "pack", spy)
    return calls


def test_alignment_is_reused_per_pair_and_never_inherited(
        monkeypatch, stale_visit_view):
    calls = count_factorizations(monkeypatch)
    view = stale_visit_view
    cleaner = StaleViewCleaner(view, ratio=0.6, seed=1)
    first = cleaner.refresh()
    assert _ALIGNMENT not in first.sample_cache()
    for fn in ("sum", "count", "avg"):
        cleaner.query(AggQuery(fn, "visitCount", col("ownerId") == 1))
    assert len(calls) == 1
    assert first.sample_cache()[_ALIGNMENT][0] is cleaner.dirty_sample

    # A second refresh in the same period: new clean sample, same dirty.
    second = cleaner.refresh()
    assert second is not first and _ALIGNMENT not in second.sample_cache()
    cleaner.query(AggQuery("sum", "visitCount"))
    assert len(calls) == 2

    # Full maintenance + advance(): new dirty sample, no clean sample.
    from repro.db.maintenance import maintain

    maintain(view)
    view.database.apply_deltas()
    cleaner.advance()
    view.database.insert("Log", [(5000 + i, i % 3) for i in range(9)])
    third = cleaner.refresh()
    assert _ALIGNMENT not in third.sample_cache()
    est = cleaner.query(AggQuery("sum", "visitCount"))
    assert len(calls) == 3
    assert third.sample_cache()[_ALIGNMENT][0] is cleaner.dirty_sample
    assert est.value == pytest.approx(
        AggQuery("sum", "visitCount").evaluate(view.fresh_data()), rel=0.5)


def test_published_epochs_never_share_an_alignment(monkeypatch, log_video_db):
    catalog = Catalog(log_video_db)
    catalog.create_view("visitView", Aggregate(
        Join(BaseRel("Log"), BaseRel("Video"), on=[("videoId", "videoId")],
             foreign_key=True),
        ["videoId", "ownerId", "duration"], [AggSpec("visitCount", "count")],
    ))
    now = [100.0]
    server = ViewServer(catalog, scheduler=FreshnessScheduler(budget_s=0.5),
                        clock=lambda: now[0])
    server.register("visitView", ratio=0.5, sla=FreshnessSLA(
        max_staleness_s=1.0, target_ratio=0.5, min_ratio=0.05))
    query = AggQuery("sum", "visitCount", col("ownerId") == 1)
    calls = count_factorizations(monkeypatch)
    server.query("visitView", query)
    server.query("visitView", query)
    before = server.snapshot("visitView")
    assert len(calls) == 1
    server.ingest("Log", inserts=[(10_000 + i, i % 8) for i in range(40)])
    now[0] += 5.0
    server.run_tick()
    after = server.snapshot("visitView")
    assert after.epoch > before.epoch
    assert after.clean_sample is not before.clean_sample
    assert _ALIGNMENT not in after.clean_sample.sample_cache()
    server.query("visitView", query)
    assert len(calls) == 2
    for snap in (before, after):
        assert snap.clean_sample.sample_cache()[_ALIGNMENT][0] is snap.dirty_sample


# ----------------------------------------------------------------------
# The svc_corr avg defect (a group that enters the sample this period)
# ----------------------------------------------------------------------
def test_corr_avg_with_no_dirty_match_is_the_direct_estimate():
    schema = Schema(["k", "g", "v"])
    dirty = Relation(schema, [(1, "old", 4.0), (2, "old", 6.0)], key=("k",))
    clean = Relation(schema, [(1, "old", 4.0), (2, "new", 9.0),
                              (3, "new", 11.0)], key=("k",))
    query = AggQuery("avg", "v", col("g") == "new")
    for enabled in (True, False):
        old = set_columnar_enabled(enabled)
        try:
            est = svc_corr(dirty, dirty, clean, query, 0.5, key=("k",))
            direct = svc_aqp(clean, query, 0.5)
            groups = estimate_groups("corr", AggQuery("avg", "v"), ("g",), 0.5,
                                     clean, dirty_sample=dirty, stale_view=dirty)
        finally:
            set_columnar_enabled(old)
        assert est.value == direct.value == 10.0
        assert est.se == direct.se and math.isfinite(est.ci_low)
        assert groups[("new",)].value == 10.0
        assert math.isfinite(groups[("new",)].ci_high)
        assert groups[("old",)].value == pytest.approx(4.0)


# ----------------------------------------------------------------------
# pick, vectorized
# ----------------------------------------------------------------------
pick_rows = st.lists(
    st.tuples(st.integers(0, 6), st.integers(-3, 3),
              st.integers(0, 50), st.sampled_from(["p", "q", None])),
    max_size=40,
)


@given(pick_rows, st.sampled_from([1, 1.0]))  # a float priority falls back
@settings(max_examples=60, deadline=None)
def test_pick_vectorized_matches_pick(rows, unit):
    rel = Relation(Schema(["g", "prio", "x", "y"]), rows)
    priority = (col("prio") + 1) * unit
    expr = Aggregate(BaseRel("R"), ["g"], [
        AggSpec("x", "pick", Tup(priority, col("x"))),
        AggSpec("y", "pick", Tup(priority, col("y"))),
        AggSpec("n", "count"),
    ])
    old = set_columnar_enabled(True)
    try:
        fast = evaluate(expr, {"R": rel})
    finally:
        set_columnar_enabled(old)
    expected = {}
    for g, prio, x, y in rows:
        expected.setdefault(g, []).append((prio + 1, x, y))
    assert {r[0]: r[1:] for r in fast.rows} == {
        g: (_pick([(p, x) for p, x, _ in grp]),
            _pick([(p, y) for p, _, y in grp]), len(grp))
        for g, grp in expected.items()
    }


def test_pick_skips_compute_only_for_integer_priorities(monkeypatch):
    from repro.algebra.aggregates import PICK

    def unreachable(values):
        raise AssertionError("per-group compute ran")

    monkeypatch.setattr(PICK, "_compute", unreachable)
    rel = Relation(Schema(["g", "prio", "x"]), [(1, 0, 5), (1, 2, 6), (2, -1, 7)])

    def change_table(unit):
        return evaluate(Aggregate(BaseRel("R"), ["g"], [
            AggSpec("x", "pick", Tup(col("prio") * unit, col("x")))]), {"R": rel})

    assert sorted(change_table(1).rows) == [(1, 6), (2, None)]
    with pytest.raises(AssertionError):
        change_table(1.0)
