"""What a base relation has paid for survives ``apply_deltas()`` — exactly.

The next period's relation is patched from the previous one and inherits
its built column arrays, its η draws and its key index.  Every carried
piece must equal what a from-scratch rebuild gives (the three-line row
reference below is the oracle), no relation that already exists may
change, and a steady-state period may only hash and index its deltas —
and, where its plans read a fresh version ``(R − ∇R) ∪ ΔR``, convert
only the delta rows' numeric columns.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, StaleViewCleaner
from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Hash,
    Join,
    Relation,
    Schema,
    evaluate,
    set_columnar_enabled,
)
from repro.algebra import columnar, evaluator
from repro.algebra.columnar import column_to_array, patch_column
from repro.algebra.evaluator import clear_hash_memo, eta_draws
from repro.algebra.relation import PER_ROW, KeyIndex
from repro.core import hash_sample
from repro.db import (
    RECOMPUTE,
    Database,
    classify_view,
    deletions_name,
    fresh_expr,
    insertions_name,
    maintain,
)
from repro.errors import MaintenanceError
from repro.stats import hashing as stats_hashing
from repro.stats.hashing import set_hash_family
from repro.workloads import SAMPLE_ATTRS, build_tpcd, create_join_view

NAME = "R"
SEED = 5
RATIOS = (0.05, 0.1, 1.0)
BIG = 2 ** 53


# ----------------------------------------------------------------------
# The oracle: today's loop, kept here and nowhere in the library
# ----------------------------------------------------------------------
def reference_apply(rows, delta):
    deleted = set(delta.deleted)
    return [r for r in rows if r not in deleted] + list(delta.inserted)


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    """dtype and values; every element's Python type too."""
    a, b = got.tolist(), want.tolist()
    return got.dtype == want.dtype and a == b and (
        [type(v) for v in a] == [type(v) for v in b])


def freeze(rel: Relation) -> dict:
    """Everything reachable from ``rel`` that a patch could scribble on."""
    batch = rel._columnar
    return {
        "rows": list(rel.rows),
        "arrays": {} if batch is None else {
            name: (arr, arr.copy()) for name, arr in batch._arrays.items()},
        "cache": {
            key: (value, value.copy())
            for key, value in (rel._sample_cache or {}).items()
            if isinstance(value, np.ndarray)},
        "cache_keys": set(rel._sample_cache or ()),
    }


def assert_unchanged(rel: Relation, frozen: dict) -> None:
    assert rel.rows == frozen["rows"]
    for held, copy in list(frozen["arrays"].values()) + list(
            frozen["cache"].values()):
        assert held.dtype == copy.dtype and held.tolist() == copy.tolist()
    assert frozen["cache_keys"] <= set(rel._sample_cache or ())


def draws_by_row(rel: Relation, attrs, seed=SEED) -> list:
    idx = rel.schema.indexes(attrs)
    return [stats_hashing.unit_hash(tuple(r[i] for i in idx), seed)
            for r in rel.rows]


def warm(rel: Relation) -> None:
    """Ask for every column, the draws and the key index, as a period's
    maintenance plans would."""
    for name in rel.schema.columns:
        rel.columnar().array(name)
    eta_draws(rel, rel.key, SEED)
    rel.key_lookup()


# ----------------------------------------------------------------------
# Generated schemas and delta streams
# ----------------------------------------------------------------------
VALUE_KINDS = {
    "int": st.integers(-50, 50),
    "float": st.floats(-100, 100, allow_nan=False).map(lambda x: round(x, 2)),
    "bool": st.booleans(),
    "str": st.text("abc", max_size=4),
    "nullable": st.one_of(st.none(), st.integers(0, 9)),
}
#: What an insert may smuggle into a column to change its dtype.
PROMOTIONS = (1.5, None, "x", 2 ** 63, True, 7)
KEY_KINDS = {
    "int": st.integers(0, 30),
    "big": st.integers(BIG, BIG + 30),
    "str": st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]),
}


@st.composite
def scenarios(draw):
    key_kinds = draw(st.lists(st.sampled_from(sorted(KEY_KINDS)),
                              min_size=1, max_size=2))
    value_kinds = draw(st.lists(st.sampled_from(sorted(VALUE_KINDS)),
                                min_size=1, max_size=3))
    key_cols = [f"k{i}" for i in range(len(key_kinds))]
    cols = key_cols + [f"v{i}" for i in range(len(value_kinds))]

    def row_for(key):
        return key + tuple(draw(VALUE_KINDS[k]) for k in value_kinds)

    key_of = st.tuples(*(KEY_KINDS[k] for k in key_kinds))
    keys = draw(st.lists(key_of, max_size=10, unique=True))
    rows = [row_for(k) for k in keys]
    live = {k: r for k, r in zip(keys, rows)}
    periods = []
    for _ in range(draw(st.integers(1, 4))):
        ops = []
        kind = draw(st.sampled_from(
            ["mixed", "mixed", "empty", "delete_all", "insert_only",
             "delete_only", "promote"]))
        if kind == "delete_all" and live:
            ops.append(("delete_by_key", list(live)))
            live.clear()
        n_ops = 0 if kind in ("empty", "delete_all") else draw(
            st.integers(1, 4))
        for _ in range(n_ops):
            choice = draw(st.sampled_from(
                ["insert"] if kind in ("insert_only", "promote")
                else ["delete"] if kind == "delete_only"
                else ["insert", "update", "update", "delete"]))
            if choice == "insert":
                # May re-insert a key deleted earlier, even this period.
                key = draw(key_of)
                if key in live:
                    continue
                row = row_for(key)
                if kind == "promote":
                    row = row[:len(key_cols)] + tuple(
                        draw(st.sampled_from(PROMOTIONS)) for _ in value_kinds)
                live[key] = row
                ops.append(("insert", [row]))
            elif live:
                key = draw(st.sampled_from(sorted(live, key=repr)))
                if choice == "delete":
                    del live[key]
                    ops.append(("delete_by_key", [key]))
                else:
                    # Twice in one call and once more: telescoping.
                    first, second = row_for(key), row_for(key)
                    live[key] = row_for(key)
                    ops.append(("update", [first, second]))
                    ops.append(("update", [live[key]]))
        periods.append((ops, dict(live)))
    family = draw(st.sampled_from(["sha1", "linear"]))
    return cols, key_cols, rows, periods, family


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_patched_relation_equals_rebuilt(scenario):
    cols, key_cols, rows, periods, family = scenario
    other = "linear" if family == "sha1" else "sha1"
    set_hash_family(family)
    try:
        db = Database()
        db.add_relation(Relation(Schema(cols), rows, key=key_cols, name=NAME))
        for ops, live in periods:
            old = db.relation(NAME)
            warm(old)
            for op, payload in ops:
                getattr(db, op)(NAME, payload)
            frozen = freeze(old)
            delta = db.deltas.get(NAME)
            want = reference_apply(old.rows, delta) if delta else old.rows
            fresh = db.fresh_leaves()[NAME]
            db.apply_deltas()
            new = db.relation(NAME)

            # Same rows, same order; the keyed model agrees on content.
            assert new.rows == want == fresh.rows
            assert Counter(new.rows) == Counter(live.values())
            assert_unchanged(old, frozen)

            # Carried draws: the active family's, per row, before anything
            # asks for them again; never the other family's.
            cache = new._sample_cache or {}
            held = [k for k in cache if isinstance(k, tuple) and k[0] == PER_ROW]
            if new is not old:  # an empty delta leaves the relation alone
                assert [k[4] for k in held] == [stats_hashing.get_hash_family()]
                assert new.rows is not old.rows
            for key in held:
                if key[4] is stats_hashing.get_hash_family():
                    assert cache[key].tolist() == draws_by_row(
                        new, key[2], key[3])
            assert eta_draws(new, key_cols, SEED).tolist() == draws_by_row(
                new, key_cols)
            set_hash_family(other)
            assert eta_draws(new, key_cols, SEED).tolist() == draws_by_row(
                new, key_cols)
            set_hash_family(family)
            assert eta_draws(new, key_cols, SEED).tolist() == draws_by_row(
                new, key_cols)

            # Every column — carried or lazily rebuilt — is what a
            # conversion of the rebuilt column gives.
            for i, name in enumerate(cols):
                rebuilt = column_to_array([r[i] for r in want])
                assert same_array(new.columnar().array(name), rebuilt), name

            # The key index answers like key_index().
            index = new.key_lookup()
            by_key = new.key_index()
            for key, row in by_key.items():
                assert new.rows[index.last(key)] == row
                assert [new.rows[p] for p in index.positions(key)] == [
                    r for r in new.rows if new.key_of(r) == key]
            for key in set(live) | {tuple(r[:len(key_cols)]) for r in rows}:
                assert (index.last(key) >= 0) == (key in by_key)
            # No dict key outlives its rows; without a layout, the dict
            # holds every key.
            assert set(index._ids) <= set(by_key)
            if index._layout is None:
                assert set(index._ids) == set(by_key)

            # One η kernel: relation level, evaluator node, both engines.
            for ratio in RATIOS:
                expected = [r for r, d in zip(new.rows, draws_by_row(
                    new, key_cols)) if d < ratio]
                node = Hash(BaseRel(NAME), key_cols, ratio, SEED)
                assert hash_sample(new, ratio, seed=SEED).rows == expected
                assert evaluate(node, db.leaves()).rows == expected
                off = set_columnar_enabled(False)
                try:
                    assert hash_sample(new, ratio, seed=SEED).rows == expected
                    assert evaluate(node, db.leaves()).rows == expected
                finally:
                    set_columnar_enabled(off)
    finally:
        set_hash_family("sha1")


# ----------------------------------------------------------------------
# The dtype-change drop rule, case by case
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base, keep, tail", [
    ([1, 2, 3], None, [4]),                 # typed + same type: carried
    ([1, 2, 3], [0, 2], [4]),
    ([1.5, 2.5], [1], [0.25]),
    ([True, False], None, [True]),
    (["ab", "abcd", "a"], [0, 2], ["abc"]),  # re-narrowed after a delete
    (["ab", "abcd"], [0], None),
    (["", "x"], [0], None),
    ([1, 2, 3], [], None),                  # delete-all
    ([1, 2, 3], [], [2.5]),
    ([], None, ["s"]),                      # into an empty relation
    ([None, 1], None, [2]),                 # object stays object on append
    ([None, 1], None, [None]),
])
def test_patch_column_equals_rebuild(base, keep, tail):
    survivors = base if keep is None else [base[i] for i in keep]
    got = patch_column(
        column_to_array(base),
        None if keep is None else np.asarray(keep, dtype=np.intp),
        None if tail is None else column_to_array(tail),
    )
    assert same_array(got, column_to_array(survivors + (tail or [])))


@pytest.mark.parametrize("base, keep, tail", [
    ([1, 2], None, [2.5]),        # int column receiving a float
    ([1, 2], None, [None]),
    ([1, 2], None, ["x"]),
    ([1, 2], None, [2 ** 63]),    # would become object / uint64
    ([1, 2], None, [True]),       # bool-int mix
    ([True, False], None, [1]),
    ([1.5], None, [2]),
    ([None, 1], [1], None),       # deleting the None un-mixes the column
    ([2 ** 63, 1], [1], None),    # deleting the ≥ 2⁶³ value: uint64 → int64
])
def test_patch_column_drops_rather_than_coerces(base, keep, tail):
    got = patch_column(
        column_to_array(base),
        None if keep is None else np.asarray(keep, dtype=np.intp),
        None if tail is None else column_to_array(tail),
    )
    assert got is None


def test_only_columns_asked_for_are_carried_on():
    """The carried arrays are the working set of a period's plans: a
    column nobody reads during a period is not handed on again."""
    db = Database()
    db.add_relation(Relation(Schema(["k", "a", "b"]),
                             [(i, i * 2, float(i)) for i in range(20)],
                             key=("k",), name=NAME))
    for name in ("k", "a", "b"):
        db.relation(NAME).columnar().array(name)
    db.insert(NAME, [(100, 1, 1.0)])
    db.apply_deltas()
    second = db.relation(NAME).columnar()
    assert not second._arrays and set(second._providers) == {"k", "a", "b"}
    second.array("a")
    db.insert(NAME, [(101, 1, 1.0)])
    db.apply_deltas()
    third = db.relation(NAME).columnar()
    assert set(third._providers) == {"a"}
    assert third.array("a").tolist() == [r[1] for r in db.relation(NAME).rows]


@pytest.mark.parametrize("leaf_warm", [False, True])
def test_sample_columns_come_from_the_sampled_rows(leaf_warm):
    """η out of a row-backed leaf converts a column from the sample's own
    rows: its dtype does not depend on what the leaf has cached, and the
    sample never forces a full-column array onto the leaf."""
    rows = [(i, i) for i in range(200)]
    draws = draws_by_row(Relation(Schema(["k", "v"]), rows, key=("k",)), ("k",))
    outside = next(i for i, d in enumerate(draws) if d >= 0.1)
    rows[outside] = (outside, None)         # makes the leaf's column object
    rel = Relation(Schema(["k", "v"]), rows, key=("k",), name=NAME)
    if leaf_warm:
        assert rel.columnar().array("v").dtype == object
    sample = hash_sample(rel, 0.1, seed=SEED)
    assert sample.rows == [r for r, d in zip(rows, draws) if d < 0.1]
    got = sample.columnar().array("v")
    assert got.dtype.kind == "i"
    assert same_array(got, column_to_array([r[1] for r in sample.rows]))
    assert ("v" in rel.columnar()._arrays) == leaf_warm


def test_deletion_removes_every_equal_row_and_only_those():
    """Today's multiplicities: a pending deletion removes every base row
    equal to it; a row that merely shares its key stays."""
    db = Database()
    rows = [(1, "a"), (2, "b"), (1, "a"), (1, "c"), (3, "d")]
    db.add_relation(Relation(Schema(["k", "v"]), rows, key=("k",), name=NAME))
    warm(db.relation(NAME))
    db.delete(NAME, [(1, "a"), (2, "other"), (9, "z")])
    want = reference_apply(rows, db.deltas.get(NAME))
    assert want == [(2, "b"), (1, "c"), (3, "d")]
    assert db.fresh_leaves()[NAME].rows == want
    db.apply_deltas()
    new = db.relation(NAME)
    assert new.rows == want
    assert new.columnar().array("v").tolist() == ["b", "c", "d"]
    assert eta_draws(new, ("k",), SEED).tolist() == draws_by_row(new, ("k",))


def test_key_index_forms_agree():
    """Coded form (every key the one key coder takes) and dict form
    (object keys, NaN) answer like a dict over the key tuples — 3.0
    finds 3, "3" does not."""
    ints = Relation(Schema(["a", "b", "v"]),
                    [(1, 2, "x"), (1, 3, "y"), (5, 2, "z"), (1, 2, "dup")],
                    key=("a", "b"))
    index = ints.key_lookup()
    assert index._layout is not None and ints.key_lookup() is index
    assert index.positions((1, 2)) == [0, 3] and index.last((1, 2)) == 3
    assert index.last((1.0, True + 1)) == 3
    for missing in [(1, 4), (0, 2), (9, 9), ("1", 2), (None, 2), (1.5, 2),
                    (float("nan"), 2), (float("inf"), 2), (1,)]:
        assert index.last(missing) == -1
    for rel, coded in (
        (Relation(Schema(["a", "v"]), [("p", 1), ("q", 2), ("p", 3)],
                  key=("a",)), True),
        (Relation(Schema(["a", "v"]), [(2 ** 63, 1), (2 ** 64 - 1, 2)],
                  key=("a",)), True),
        (Relation(Schema(["a", "v"]), [(2 ** 63, 1), (1, 2)], key=("a",)), False),
        (Relation(Schema(["a", "v"]), [(True, 1), (False, 2)], key=("a",)), True),
        (Relation(Schema(["a", "v"]), [], key=("a",)), True),
        (Relation(Schema(["a", "v"]), [("p", 1), (None, 2), (3, 3)],
                  key=("a",)), False),
        (Relation(Schema(["a", "v"]), [(1.5, 1), (float("nan"), 2)],
                  key=("a",)), False),
    ):
        index = KeyIndex(rel)
        assert (index._layout is not None) == coded
        for key, row in rel.key_index().items():
            assert rel.rows[index.last(key)] == row
        assert index.last(("nope",)) == -1


@pytest.mark.parametrize("extra", [[], [(50, 50)]], ids=["str", "object"])
def test_key_index_is_patched_not_rebuilt(monkeypatch, extra):
    """A period costs the key index only its deltas, whether the key
    coder takes the keys (strings: the layout is shared, keys new since
    the build join the dict) or refuses them (strings next to an int:
    the dict holds every key).  The successor's index is derived from
    the predecessor's (which stays as it was), and ``fresh_leaves()``
    builds none."""
    db = Database()
    rows = [(f"k{i}", i) for i in range(50)] + extra
    db.add_relation(Relation(Schema(["k", "v"]), rows, key=("k",), name=NAME))
    first = db.relation(NAME).key_lookup()
    coded = first._layout is not None
    assert coded == (not extra)
    builds = []
    real_init = KeyIndex.__init__
    monkeypatch.setattr(
        KeyIndex, "__init__",
        lambda self, rel: builds.append(rel) or real_init(self, rel))
    for period in range(3):
        old = db.relation(NAME).key_lookup()
        held = dict(old._ids), old._codes.copy(), old._order.copy()
        db.delete_by_key(NAME, [(f"k{period}",), (f"k{period + 10}",)])
        db.update(NAME, [(f"k{period + 20}", -period)])
        db.insert(NAME, [(f"new{period}", period), (f"k{period}", 100)])
        fresh = db.fresh_leaves()[NAME]
        assert "__keyindex__" not in fresh._sample_cache
        db.apply_deltas()
        new = db.relation(NAME)
        index = new._sample_cache["__keyindex__"]
        assert new.rows == fresh.rows and index is new.key_lookup()
        assert index._layout is first._layout
        assert old._ids == held[0]
        assert old._codes.tolist() == held[1].tolist()
        assert old._order.tolist() == held[2].tolist()
        by_key = new.key_index()
        assert set(index._ids) == (
            {(f"new{p}",) for p in range(period + 1)} if coded else set(by_key))
        for key, row in by_key.items():
            assert [new.rows[p] for p in index.positions(key)] == [row]
        assert index.last((f"k{period + 10}",)) == -1
    assert not builds and first._ids == ({} if coded else {
        **{(f"k{i}",): -1 - i for i in range(50)}, (50,): -51})


def test_rising_int_keys_widen_the_layout(monkeypatch):
    """Keys above the first key column's range (a counter's next values)
    widen that range: they stay coded, the dict stays empty and nothing
    is re-packed.  Once the dict holds a key (2⁶² would take the codes
    past int64), the range stays put, so no dict key becomes codable
    under a code its rows do not carry."""
    db = Database()
    rows = [(i, j, 0) for i in range(10) for j in range(3)]
    db.add_relation(
        Relation(Schema(["k", "n", "v"]), rows, key=("k", "n"), name=NAME))
    db.relation(NAME).key_lookup()
    builds = []
    real_init = KeyIndex.__init__
    monkeypatch.setattr(
        KeyIndex, "__init__",
        lambda self, rel: builds.append(rel) or real_init(self, rel))

    def check():
        new = db.relation(NAME)
        index = new.key_lookup()
        for key, row in new.key_index().items():
            assert [new.rows[p] for p in index.positions(key)] == [row]
        return index

    for period in range(3):
        db.insert(NAME, [(10 + period, j, 1) for j in range(3)])
        db.delete_by_key(NAME, [(period, 0)])
        db.apply_deltas()
        index = check()
        assert not index._ids and index._layout[0][0][1] == 10 + period
    db.insert(NAME, [(20, 0, 2), (2 ** 62, 0, 2)])
    db.apply_deltas()
    assert set(check()._ids) == {(20, 0), (2 ** 62, 0)}
    db.insert(NAME, [(25, 1, 3)])
    db.apply_deltas()
    index = check()
    assert index._layout[0][0][1] == 12 and (25, 1) in index._ids
    assert not builds


# ----------------------------------------------------------------------
# delete_by_key: a key twice in one batch
# ----------------------------------------------------------------------
def count_sum_view():
    db = Database()
    db.add_relation(Relation(
        Schema(["k", "g", "x"]), [(i, i % 3, float(i)) for i in range(9)],
        key=("k",), name=NAME))
    catalog = Catalog(db)
    view = catalog.create_view("V", Aggregate(
        BaseRel(NAME), ["g"], [AggSpec("n", "count"), AggSpec("s", "sum", "x")]))
    return db, view


def test_delete_by_key_same_key_twice_raises_like_two_calls():
    db, view = count_sum_view()
    with pytest.raises(MaintenanceError, match="no record with key"):
        db.delete_by_key(NAME, [(3,), (3,)])
    assert db.deltas.get(NAME) is None or db.deltas.get(NAME).is_empty()
    # The two-call form it now matches.
    db.delete_by_key(NAME, [(3,)])
    with pytest.raises(MaintenanceError, match="no record with key"):
        db.delete_by_key(NAME, [(3,)])
    assert db.deltas.get(NAME).deleted == [(3, 0, 3.0)]
    maintain(view)
    assert sorted(view.require_data().rows) == sorted(view.fresh_data().rows)


def test_update_then_delete_then_reinsert_in_one_period():
    db, view = count_sum_view()
    db.update(NAME, [(3, 0, 30.0), (3, 1, 31.0)])  # telescopes in the batch
    db.delete_by_key(NAME, [(3,)])
    with pytest.raises(MaintenanceError):
        db.update(NAME, [(3, 0, 1.0)])
    db.insert(NAME, [(3, 2, 5.0)])
    db.update(NAME, [(3, 2, 6.0)])
    delta = db.deltas.get(NAME)
    assert delta.deleted == [(3, 0, 3.0)] and delta.inserted == [(3, 2, 6.0)]
    maintain(view)
    assert sorted(view.require_data().rows) == sorted(view.fresh_data().rows)


def counting_family(calls: list):
    """Install (and activate) a SHA-1 family that records every call."""
    def counting(values, seed=0):
        calls.append(values)
        return stats_hashing.sha1_unit(values, seed)

    stats_hashing.HASH_FAMILIES["counting"] = counting
    set_hash_family("counting")
    return counting


# ----------------------------------------------------------------------
# advance(): adopt the clean sample when it provably is η(S')
# ----------------------------------------------------------------------
def small_join_state(ratio):
    db, gen = build_tpcd(scale=0.02, z=2.0, seed=3)
    view = create_join_view(db, Catalog(db))
    cleaner = StaleViewCleaner(view, ratio=ratio, seed=SEED,
                               sample_attrs=SAMPLE_ATTRS)
    return db, gen, view, cleaner


def expected_dirty(view, ratio, seed=SEED):
    """η(S') row by row — nothing the library may have cached."""
    data = view.require_data()
    return [r for r, d in zip(data.rows, draws_by_row(data, SAMPLE_ATTRS, seed))
            if d < ratio]


@pytest.mark.parametrize("ratio", RATIOS)
def test_advance_is_row_identical_to_hash_sample(ratio):
    calls: list = []
    counting_family(calls)
    try:
        db, gen, view, cleaner = small_join_state(ratio)
        for period in range(6):
            gen.generate_updates(db, 0.1)
            cleaned = period != 1          # period 1: never cleaned
            if cleaned:
                cleaner.refresh()
            if period == 2:                # cleaned, then more deltas arrived
                gen.generate_updates(db, 0.05)
            before = view.require_data()
            maintain(view)
            if period == 3:                # cleaned, but the view was set by hand
                view.set_data(view.require_data())
            if period == 4:                # ... or rolled back behind set_data()
                rolled_back, view.data = view.data, before
                assert view.maintained_from() is None
                view.data = rolled_back
                view.set_data(rolled_back)
            adopts = cleaned and period not in (2, 3, 4)
            db.apply_deltas()
            clear_hash_memo()
            del calls[:]
            cleaner.advance()
            assert bool(calls) != adopts, "adoption must not hash; the rest must"
            want = expected_dirty(view, ratio)
            assert cleaner.dirty_sample.rows == want
            assert cleaner.dirty_sample.key == view.key
            assert cleaner.sample_view.clean_sample is None
            # The next refresh() finds η(S) on the view: same object state.
            node = Hash(BaseRel(view.name), SAMPLE_ATTRS, ratio, SEED)
            assert evaluate(node, db.leaves()).rows == want
            assert hash_sample(view.require_data(), ratio, seed=SEED,
                               attrs=SAMPLE_ATTRS).rows == want
    finally:
        set_hash_family("sha1")
        stats_hashing.HASH_FAMILIES.pop("counting", None)


@pytest.mark.parametrize("change", ["family", "ratio", "seed"])
def test_advance_does_not_adopt_a_sample_cleaned_under_another_eta(change):
    """refresh() → maintain() with nothing in between would adopt — but
    the clean sample is η under the family / ratio / seed it was cleaned
    with, and the new dirty sample must be η as it is drawn *now*."""
    db, gen, view, cleaner = small_join_state(0.1)
    sample_view = cleaner.sample_view
    gen.generate_updates(db, 0.1)
    cleaner.refresh()
    maintain(view)
    db.apply_deltas()
    try:
        if change == "family":
            set_hash_family("linear")
        elif change == "ratio":
            sample_view.ratio = 0.3
        else:
            sample_view.seed = SEED + 1
        ratio, seed = sample_view.ratio, sample_view.seed
        cleaner.advance()
        want = expected_dirty(view, ratio, seed)
        assert want and cleaner.dirty_sample.rows == want
        node = Hash(BaseRel(view.name), SAMPLE_ATTRS, ratio, seed)
        assert evaluate(node, db.leaves()).rows == want
        # ... and the period after it cleans against that sample.
        gen.generate_updates(db, 0.1)
        cleaner.refresh()
        maintain(view)
        assert cleaner.sample_view.clean_sample.rows and sorted(
            cleaner.sample_view.clean_sample.rows
        ) == sorted(expected_dirty(view, ratio, seed))
    finally:
        set_hash_family("sha1")


# ----------------------------------------------------------------------
# Deterministic cost gate: a steady-state period works on its deltas
# ----------------------------------------------------------------------
def test_steady_state_period_hashes_and_indexes_only_its_deltas(monkeypatch):
    calls: list = []
    counting_family(calls)
    try:
        db, gen, view, cleaner = small_join_state(0.1)

        def period():
            gen.generate_updates(db, 0.05)      # insert + update
            cleaner.refresh()
            maintain(view)
            db.apply_deltas()
            cleaner.advance()

        for _ in range(2):                      # untimed warm-up rounds
            period()

        dict_builds = []
        real_key_index = Relation.key_index
        monkeypatch.setattr(
            Relation, "key_index",
            lambda self: dict_builds.append(self) or real_key_index(self))
        index_builds = []
        real_init = KeyIndex.__init__
        monkeypatch.setattr(
            KeyIndex, "__init__",
            lambda self, rel: index_builds.append(len(rel)) or real_init(self, rel))

        lineitem = len(db.relation("lineitem"))
        clear_hash_memo()
        del calls[:]
        gen.generate_updates(db, 0.05)
        assert not dict_builds and not index_builds, "ingest rebuilt an index"
        delta = db.deltas.get("lineitem")
        pos = db.relation("lineitem").schema.indexes(SAMPLE_ATTRS)
        ins_keys = {tuple(r[i] for i in pos) for r in delta.inserted}
        del_keys = {tuple(r[i] for i in pos) for r in delta.deleted}
        cleaner.refresh()
        maintain(view)
        db.apply_deltas()
        cleaner.advance()

        # At most once per distinct delta key per hashed leaf (ΔR and ∇R;
        # the base leaf and the stale view carry / adopt theirs).
        assert len(calls) <= len(ins_keys) + len(del_keys)
        assert set(calls) <= ins_keys | del_keys
        assert len(calls) < lineitem // 4
        assert not dict_builds
        # apply_deltas() patches the carried index; nothing builds one.
        assert not index_builds
    finally:
        set_hash_family("sha1")
        stats_hashing.HASH_FAMILIES.pop("counting", None)


# ----------------------------------------------------------------------
# Fresh versions: numeric columns come from the carried arrays
# ----------------------------------------------------------------------
#: name → (base, deleted, inserted) rows over (k, v); k is the key.
FRESH_CASES = {
    "int_float_tail": ([(1, 10), (2, 20)], [], [(3, 1.5)]),
    "int_none_tail": ([(1, 10), (2, 20)], [(1, 10)], [(3, None)]),
    "int_str_tail": ([(1, 10), (2, 20)], [], [(3, "x")]),
    "int_big_tail": ([(1, 10), (2, 20)], [(2, 20)], [(3, 2 ** 63)]),
    "bool_int_tail": ([(1, True), (2, False)], [], [(3, 7)]),
    "int_bool_tail": ([(1, 5), (2, 6)], [(2, 6)], [(3, True)]),
    "none_deleted": ([(1, None), (2, 5)], [(1, None)], [(3, 6)]),
    "big_deleted": ([(1, 2 ** 63), (2, 5)], [(1, 2 ** 63)], [(3, 6)]),
    "float_same_dtype": ([(1, 0.5), (2, -0.0)], [(1, 0.5)], [(3, 2.5)]),
    "str_key_width_grows": ([("ab", 1), ("cd", 2)], [], [("abcdef", 3)]),
    "str_key_width_shrinks": ([("ab", 1), ("abcdef", 2)], [("abcdef", 2)],
                              [("abc", 3)]),
    "empty_base": ([], [], [(1, 5), (2, 6)]),
    "empty_tail": ([(1, 5), (2, 6)], [(1, 5)], []),
    "delete_all": ([(1, 5), (2, 6)], [(1, 5), (2, 6)], [(3, 1.5)]),
    "delete_all_no_tail": ([(1, 5)], [(1, 5)], []),
}


def with_x(rows):
    """``(k, v)`` rows with a float column that follows the key."""
    return [(k, v, float(len(repr(k)))) for k, v in rows]


@pytest.mark.parametrize("warm_base", [False, True])
@pytest.mark.parametrize("name", sorted(FRESH_CASES))
def test_fresh_version_columns_equal_their_rows_conversion(name, warm_base):
    """Every column a fresh version serves — taken from the inputs'
    arrays or converted from its rows — is ``column_to_array`` of its
    rows, in dtype and values, whether or not the base had built its
    arrays (as a carried base has)."""
    base_rows, deleted, inserted = (with_x(r) for r in FRESH_CASES[name])
    schema = Schema(["k", "v", "x"])
    base = Relation(schema, base_rows, key=("k",), name=NAME)
    leaves = {
        NAME: base,
        insertions_name(NAME): Relation(schema, inserted, key=("k",)),
        deletions_name(NAME): Relation(schema, deleted, key=("k",)),
    }
    if warm_base:
        for col in schema.columns:
            base.columnar().array(col)
    frozen = freeze(base)
    out = evaluate(fresh_expr(NAME), leaves)
    gone = set(deleted)
    assert [tuple(map(repr, r)) for r in out.rows] == [
        tuple(map(repr, r))
        for r in [r for r in base_rows if r not in gone] + inserted]
    for pos, col in enumerate(schema.columns):
        want = column_to_array([r[pos] for r in out.rows])
        assert same_array(out.columnar().array(col), want), col
    assert_unchanged(base, frozen)


def fresh_version_views(n: int):
    """A keyed base (int, float, bool and str columns) read through its
    fresh version by a recompute view (γ with a holistic ``var``) and by
    the change table of a join view (the ``fresh(R) ⋈ δS`` term)."""
    db = Database()
    db.add_relation(Relation(
        Schema(["k", "g", "x", "b", "s"]),
        [(i, i % 400, float(i), i % 2 == 0, f"s{i % 13}") for i in range(n)],
        key=("k",), name=NAME))
    db.add_relation(Relation(Schema(["g", "y"]),
                             [(g, float(g)) for g in range(400)],
                             key=("g",), name="S"))
    catalog = Catalog(db)
    recompute = catalog.create_view("REC", Aggregate(
        BaseRel(NAME), ["b"], [AggSpec("v", "var", "x"), AggSpec("n", "count")]))
    join = catalog.create_view(
        "J", Join(BaseRel(NAME), BaseRel("S"), on=[("g", "g")]))
    return db, recompute, join


def test_steady_state_fresh_versions_convert_only_delta_numeric_columns(
        monkeypatch):
    n = 4000
    db, recompute, join = fresh_version_views(n)
    assert classify_view(recompute.definition) == RECOMPUTE

    def period(p):
        db.insert(NAME, [(n + 20 * p + j, j, 0.5 * j, True, "new")
                         for j in range(20)])
        # An update is a deletion plus an insertion.
        db.update(NAME, [(10 * p + j, j, -1.0 * j, False, "upd")
                         for j in range(10)])
        db.update("S", [(p, -1.0 - p)])
        deltas = [db.deltas.get(name) for name in (NAME, "S")]
        assert all(d.deleted for d in deltas)
        changed = sum(len(d.inserted) + len(d.deleted) for d in deltas)
        maintain(recompute)
        maintain(join)
        db.apply_deltas()
        return changed

    for p in range(2):                          # untimed warm-up rounds
        period(p)
    conversions = []
    real = columnar.column_to_array
    monkeypatch.setattr(
        columnar, "column_to_array",
        lambda values: conversions.append(values) or real(values))
    changed = period(2)
    numeric = [len(v) for v in conversions
               if v and type(v[0]) in (bool, int, float)]
    # Delta rows and the change table's rows only; |R| = 4 000 rows.
    assert numeric and max(numeric) <= 4 * changed < n // 10
    assert sorted(join.require_data().rows) == sorted(join.fresh_data().rows)


def test_steady_state_aggregate_outputs_are_not_reconverted(monkeypatch):
    """A γ output hands its computed columns on.  In a steady-state
    period of a join view (its change table's ``pick`` γ feeds Merge)
    and of a γ-over-γ recompute view (the outer γ groups the inner γ's
    output), no ``column_to_array`` call converts a column of a γ
    output, and no γ output builds row tuples."""
    db, _, join = fresh_version_views(3000)
    nested = Catalog(db).create_view("GG", Aggregate(
        Aggregate(BaseRel(NAME), ["g", "b"],
                  [AggSpec("s", "sum", "x"), AggSpec("n", "count")]),
        ["b"], [AggSpec("t", "sum", "s"), AggSpec("v", "var", "s"),
                AggSpec("m", "max", "n")]))
    assert classify_view(nested.definition) == RECOMPUTE

    def period(p):
        db.insert(NAME, [(3000 + 20 * p + j, j, 0.5 * j, True, "new")
                         for j in range(20)])
        db.update(NAME, [(10 * p + j, j, -1.0 * j, False, "upd")
                         for j in range(10)])
        db.update("S", [(p, -1.0 - p)])
        maintain(nested)
        maintain(join)
        db.apply_deltas()

    for p in range(2):                          # untimed warm-up rounds
        period(p)
    outputs = []
    real_aggregate = evaluator._aggregate_columnar

    def aggregate(expr, child, out_schema):
        out = real_aggregate(expr, child, out_schema)
        if out is not None:
            outputs.append(out)
            out.columnar()
        return out

    def of_output(batch):
        return any(batch is out._columnar or (
            batch._rows is not None and batch._rows is out._rows)
            for out in outputs)

    reading = []                                # batches inside array()
    real_array = columnar.ColumnarRelation.array

    def array(self, name):
        reading.append(self)
        try:
            return real_array(self, name)
        finally:
            reading.pop()

    converted = []
    real_convert = columnar.column_to_array

    def convert(values):
        if reading and of_output(reading[-1]):
            converted.append(len(values))
        return real_convert(values)

    monkeypatch.setattr(evaluator, "_aggregate_columnar", aggregate)
    monkeypatch.setattr(columnar.ColumnarRelation, "array", array)
    monkeypatch.setattr(columnar, "column_to_array", convert)
    monkeypatch.setattr(evaluator, "column_to_array", convert)
    period(2)
    monkeypatch.undo()
    # The change table's γ, and both of the nested view's.
    assert len(outputs) >= 3
    assert converted == []
    assert not any(out.is_materialized for out in outputs)
    for view in (join, nested):
        got, want = view.require_data(), view.fresh_data()
        assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows))
