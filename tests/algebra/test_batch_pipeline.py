"""Batch-native pipeline mechanics: lazy rows, faithful arrays, pickling.

The equivalence suite (test_columnar_equivalence) checks that the
columnar engine returns the same *values* as the row engine; this module
checks the batch plumbing itself — that operators really do exchange
columns without rebuilding rows, that column arrays are value-faithful
(the null-aware fallback), and that columnar-backed relations pickle as
arrays rather than row tuples.
"""

import pickle

import numpy as np
import pytest

from repro.algebra import (
    Aggregate,
    AggSpec,
    BaseRel,
    ColumnarRelation,
    Hash,
    Join,
    Project,
    Relation,
    Schema,
    Select,
    col,
    evaluate,
    set_columnar_enabled,
)
from repro.algebra.columnar import as_object_array, column_to_array


def make_rel(n=100, name="R"):
    return Relation(
        Schema(["id", "grp", "val"]),
        [(i, i % 5, float(i) * 0.5) for i in range(n)],
        key=("id",),
        name=name,
    )


# ----------------------------------------------------------------------
# Lazy rows / zero-rematerialization chaining
# ----------------------------------------------------------------------
class TestLazyRows:
    def test_select_output_is_lazy(self):
        rel = make_rel()
        out = evaluate(Select(BaseRel("R"), col("val") > 10.0), {"R": rel})
        assert not out.is_materialized
        assert len(out) == len([r for r in rel.rows if r[2] > 10.0])
        rows = out.rows  # boundary conversion
        assert out.is_materialized
        assert rows == [r for r in rel.rows if r[2] > 10.0]

    def test_join_output_is_lazy(self):
        left = make_rel(name="L")
        right = Relation(
            Schema(["grp", "w"]), [(g, g * 10) for g in range(5)], name="S"
        )
        out = evaluate(
            Join(BaseRel("L"), BaseRel("S"), on=[("grp", "grp")]),
            {"L": left, "S": right},
        )
        assert not out.is_materialized
        assert len(out) == 100
        assert out.rows[0] == left.rows[0] + (0,)

    def test_projection_output_is_lazy(self):
        rel = make_rel()
        out = evaluate(Project(BaseRel("R"), ["val", "id"]), {"R": rel})
        assert not out.is_materialized
        assert out.rows[:2] == [(0.0, 0), (0.5, 1)]

    def test_computed_projection_vectorizes_lazily(self):
        rel = make_rel()
        out = evaluate(
            Project(BaseRel("R"), [("id", "id"), ("twice", col("val") * 2)]),
            {"R": rel},
        )
        assert not out.is_materialized
        assert out.rows[3] == (3, 3.0)

    def test_eta_output_is_lazy(self):
        rel = make_rel(400)
        out = evaluate(Hash(BaseRel("R"), ("id",), 0.5, seed=1), {"R": rel})
        assert not out.is_materialized
        assert 0 < len(out) < 400

    def test_chain_aggregates_without_materializing_rows(self):
        """σ→⋈→γ reads sliced/gathered columns; no intermediate rows."""
        taken = []
        orig_take = ColumnarRelation.take

        def spying_take(self, indices):
            batch = orig_take(self, indices)
            taken.append(batch)
            return batch

        left = make_rel(name="L")
        right = Relation(
            Schema(["grp", "w"]), [(g, float(g)) for g in range(5)], name="S"
        )
        expr = Aggregate(
            Join(
                Select(BaseRel("L"), col("val") > 5.0),
                BaseRel("S"),
                on=[("grp", "grp")],
            ),
            ("grp",),
            (AggSpec("n", "count"), AggSpec("s", "sum", col("val") + col("w"))),
        )
        ColumnarRelation.take = spying_take
        try:
            fast = evaluate(expr, {"L": left, "S": right})
        finally:
            ColumnarRelation.take = orig_take
        # The σ output batch exists and was never converted to rows.
        assert taken and all(b._pycols == {} for b in taken)
        old = set_columnar_enabled(False)
        try:
            slow = evaluate(expr, {"L": left, "S": right})
        finally:
            set_columnar_enabled(old)
        assert sorted(fast.rows) == pytest.approx(sorted(slow.rows))

    def test_lazy_relation_len_iter_eq(self):
        rel = make_rel(10)
        out = evaluate(Select(BaseRel("R"), col("id") < 5), {"R": rel})
        assert len(out) == 5
        assert list(iter(out)) == rel.rows[:5]
        assert out == Relation(rel.schema, rel.rows[:5])

    def test_columnar_leaf_stays_columnar(self):
        """A lazy relation used as a base leaf is not rematerialized."""
        rel = make_rel()
        view = evaluate(Select(BaseRel("R"), col("val") > 10.0), {"R": rel})
        assert not view.is_materialized
        out = evaluate(
            Aggregate(BaseRel("V"), ("grp",), (AggSpec("n", "count"),)),
            {"V": view},
        )
        assert not view.is_materialized
        assert sum(r[1] for r in out.rows) == len(view)


# ----------------------------------------------------------------------
# Value-faithful column arrays (the null-aware fallback)
# ----------------------------------------------------------------------
class TestFaithfulArrays:
    def test_pure_columns_stay_typed(self):
        assert column_to_array([1, 2, 3]).dtype.kind == "i"
        assert column_to_array([1.0, 2.5]).dtype.kind == "f"
        assert column_to_array([True, False]).dtype.kind == "b"
        assert column_to_array(["a", "bc"]).dtype.kind == "U"
        assert column_to_array([b"a", b"bc"]).dtype.kind == "S"
        assert column_to_array(["a\x00b", "c"]).dtype.kind == "U"

    @pytest.mark.parametrize(
        "values",
        [
            [None, 1.0, 2.0],  # None must not become nan
            [1, 2.5],  # int must not become 1.0
            [True, 2],  # bool must not become 1
            [np.int64(3), 4],  # numpy scalars must round-trip as given
            ["", 0],  # int must not stringify
            [None, "a"],
            ["a", "a\x00"],  # a U array would drop the trailing NUL
            [b"a\x00", b"b"],
        ],
    )
    def test_mixed_columns_fall_back_to_object(self, values):
        arr = column_to_array(values)
        assert arr.dtype == object
        out = arr.tolist()
        assert len(out) == len(values)
        for got, want in zip(out, values):
            assert got is want or got == want
            assert type(got) is type(want)

    def test_round_trip_preserves_python_types(self):
        values = [1, 2, 3]
        assert [type(v) for v in column_to_array(values).tolist()] == [int] * 3

    def test_as_object_array_unboxes_numpy_scalars(self):
        out = as_object_array(np.asarray([1, 2]))
        assert out.dtype == object
        assert all(type(v) is int for v in out)

    def test_mask_on_none_column_matches_row_semantics(self):
        """Ordering comparisons against None raise in both engines."""
        rel = Relation(Schema(["x"]), [(1.0,), (None,)], name="R")
        expr = Select(BaseRel("R"), col("x") > 0.5)
        for enabled in (True, False):
            old = set_columnar_enabled(enabled)
            try:
                with pytest.raises(TypeError):
                    evaluate(expr, {"R": rel})
            finally:
                set_columnar_enabled(old)

    def test_equality_on_none_column_matches_row_semantics(self):
        rel = Relation(Schema(["x"]), [(1,), (None,), (2,)], name="R")
        expr = Select(BaseRel("R"), col("x") == 1)
        old = set_columnar_enabled(True)
        try:
            fast = evaluate(expr, {"R": rel})
            set_columnar_enabled(False)
            slow = evaluate(expr, {"R": rel})
        finally:
            set_columnar_enabled(old)
        assert fast.rows == slow.rows == [(1,)]

    def test_outer_join_padding_flows_through_aggregation(self):
        """None padding from outer joins groups exactly like the row path."""
        left = Relation(Schema(["k", "a"]), [(1, 10), (2, 20)], name="L")
        right = Relation(Schema(["k", "b"]), [(1, 5)], name="S")
        expr = Aggregate(
            Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how="left"),
            ("b",),
            (AggSpec("n", "count"), AggSpec("s", "sum", "a")),
        )
        old = set_columnar_enabled(True)
        try:
            fast = evaluate(expr, {"L": left, "S": right})
            set_columnar_enabled(False)
            slow = evaluate(expr, {"L": left, "S": right})
        finally:
            set_columnar_enabled(old)
        assert fast.rows == slow.rows
        assert sorted(fast.rows, key=repr) == [(5, 1, 10), (None, 1, 20)]

    def test_int_division_beyond_2_53_matches_python(self):
        """int/int vector division must not lose exactness via float64."""
        big = (1 << 53) + 1
        rel = Relation(Schema(["a", "b"]), [(big, 1), (10, 4)], name="R")
        expr = Project(BaseRel("R"), [("q", col("a") / col("b"))])
        old = set_columnar_enabled(True)
        try:
            fast = evaluate(expr, {"R": rel})
            set_columnar_enabled(False)
            slow = evaluate(expr, {"R": rel})
        finally:
            set_columnar_enabled(old)
        assert fast.rows == slow.rows

    def test_bool_arithmetic_matches_python_semantics(self):
        """numpy's +/* on bools are logical OR/AND; Python's are numeric.
        Both projected values and masks must use the Python semantics."""
        rel = Relation(
            Schema(["a", "b"]),
            [(True, True), (True, False), (False, False)],
            name="R",
        )
        proj = Project(BaseRel("R"), [("u", col("a") + col("b"))])
        sel = Select(BaseRel("R"), (col("a") + col("b")) > 1)
        for expr, want in ((proj, [(2,), (1,), (0,)]), (sel, [(True, True)])):
            old = set_columnar_enabled(True)
            try:
                fast = evaluate(expr, {"R": rel})
                set_columnar_enabled(False)
                slow = evaluate(expr, {"R": rel})
            finally:
                set_columnar_enabled(old)
            assert fast.rows == slow.rows == want

    def test_projected_division_by_zero_raises_in_both_engines(self):
        rel = Relation(Schema(["a", "b"]), [(1.0, 2.0), (3.0, 0.0)], name="R")
        expr = Project(BaseRel("R"), [("q", col("a") / col("b"))])
        for enabled in (True, False):
            old = set_columnar_enabled(enabled)
            try:
                with pytest.raises(ZeroDivisionError):
                    evaluate(expr, {"R": rel}).rows
            finally:
                set_columnar_enabled(old)


# ----------------------------------------------------------------------
# Storage-aware pickling
# ----------------------------------------------------------------------
class TestPickling:
    def test_row_backed_round_trip(self):
        rel = make_rel(50)
        back = pickle.loads(pickle.dumps(rel))
        assert back.schema == rel.schema
        assert back.rows == rel.rows
        assert back.key == rel.key and back.name == rel.name

    def test_columnar_backed_round_trip_stays_lazy(self):
        rel = make_rel(200)
        out = evaluate(Select(BaseRel("R"), col("val") > 10.0), {"R": rel})
        assert not out.is_materialized
        back = pickle.loads(pickle.dumps(out))
        assert not back.is_materialized  # unpickles as arrays, rows lazy
        assert not out.is_materialized  # pickling did not materialize it
        assert back.rows == [r for r in rel.rows if r[2] > 10.0]

    def test_columnar_payload_smaller_than_rows(self):
        """Float-heavy lazy relations ship as numpy buffers, which beat a
        list of per-row tuples (and skip building the tuples at all)."""
        rng = np.random.default_rng(3)
        rel = Relation(
            Schema(["a", "b", "c", "d"]),
            [tuple(map(float, row)) for row in rng.normal(size=(5000, 4))],
            name="R",
        )
        lazy = evaluate(Select(BaseRel("R"), col("a") > -10.0), {"R": rel})
        assert not lazy.is_materialized
        columnar_payload = len(pickle.dumps(lazy))
        assert not lazy.is_materialized  # shipping never built the rows
        row_payload = len(pickle.dumps(Relation(rel.schema, lazy.rows)))
        assert columnar_payload < row_payload

    def test_caches_dropped_on_pickle(self):
        rel = make_rel(20)
        rel.sample_cache()["x"] = [1, 2, 3]
        rel.columnar().array("val")
        back = pickle.loads(pickle.dumps(rel))
        assert back._sample_cache is None
        assert back._columnar is None

    def test_pickled_lazy_relation_evaluates(self):
        rel = make_rel(100)
        lazy = evaluate(Select(BaseRel("R"), col("grp") == 1), {"R": rel})
        back = pickle.loads(pickle.dumps(lazy))
        out = evaluate(
            Aggregate(BaseRel("V"), (), (AggSpec("s", "sum", "val"),)),
            {"V": back},
        )
        assert out.rows == [(sum(r[2] for r in rel.rows if r[1] == 1),)]


# ----------------------------------------------------------------------
# from_columnar construction path
# ----------------------------------------------------------------------
class TestFromColumnar:
    def test_from_arrays_round_trip(self):
        schema = Schema(["a", "b"])
        batch = ColumnarRelation.from_arrays(
            schema,
            {"a": np.asarray([1, 2, 3]), "b": np.asarray([4.0, 5.0, 6.0])},
            3,
        )
        rel = Relation.from_columnar(batch, key=("a",), name="X")
        assert len(rel) == 3
        assert rel.rows == [(1, 4.0), (2, 5.0), (3, 6.0)]
        assert rel.key == ("a",) and rel.name == "X"

    def test_from_columnar_validates_key(self):
        from repro.errors import SchemaError

        batch = ColumnarRelation.from_arrays(
            Schema(["a"]), {"a": np.asarray([1])}, 1
        )
        with pytest.raises(SchemaError):
            Relation.from_columnar(batch, key=("missing",))

    def test_eta_leaf_cache_shares_batches(self):
        """Repeated η over the same leaf serves the cached gather batch."""
        rel = make_rel(300)
        expr = Hash(BaseRel("R"), ("id",), 0.4, seed=7)
        first = evaluate(expr, {"R": rel})
        second = evaluate(expr, {"R": rel})
        assert first.rows == second.rows
        assert rel._sample_cache  # populated by the first evaluation


class TestProviderRelease:
    """Provider closures must not chain batches across maintenance rounds.

    A provider captures its parent batches (a σ output holds its child,
    a merge output the stale view and the change table).  Once a column
    is cached the provider must be dropped, otherwise every maintenance
    round's view would retain the previous round's batches — an
    unbounded leak for long-lived views.
    """

    def test_provider_dropped_once_column_cached(self):
        schema = Schema(["a", "b"])
        batch = ColumnarRelation.from_providers(
            schema,
            {"a": lambda: np.asarray([1, 2]), "b": lambda: np.asarray([3, 4])},
            2,
        )
        batch.array("a")
        assert "a" not in (batch._providers or {})
        assert batch._providers is not None  # "b" still pending
        batch.array("b")
        assert batch._providers is None  # fully drained
        assert batch.array("a").tolist() == [1, 2]  # cache still serves
        with pytest.raises(KeyError):
            batch.array("missing")

    def test_merge_output_releases_input_batches(self):
        """A fully-read merge result drops its stale/change references."""
        import gc
        import weakref

        from repro.algebra import GROUP_COUNT, Combiner, Merge

        schema_s = Schema(["g", "n", GROUP_COUNT])
        schema_c = Schema(["g", "n", GROUP_COUNT])
        stale = Relation(schema_s, [(g, g, 1) for g in range(50)], name="S")
        change = Relation(schema_c, [(g, 1, 1) for g in range(0, 80, 2)],
                          name="C")
        expr = Merge(
            BaseRel("S"), BaseRel("C"), ("g",),
            [Combiner("g", "group"), Combiner("n", "add"),
             Combiner(GROUP_COUNT, "add")],
        )
        out = evaluate(expr, {"S": stale, "C": change})
        assert not out.is_materialized
        # Weakrefs to the *input* column arrays (ColumnarRelation itself
        # has __slots__ without __weakref__): once the output is fully
        # read and the inputs dropped, nothing may keep them alive.
        ref_s = weakref.ref(stale.columnar().array("n"))
        ref_c = weakref.ref(change.columnar().array("n"))
        out.rows  # materializes every column, draining the providers
        assert out._columnar._providers is None
        del stale, change
        gc.collect()
        assert ref_s() is None and ref_c() is None

    def test_concurrent_reads_of_shared_provider_batch(self):
        """Shared batches may be read from several threads (maintained
        views are queried concurrently); the provider release must never
        turn a benign double-build into a KeyError/TypeError."""
        import threading
        import time

        schema = Schema(["a", "b", "c"])

        def slow_provider(value):
            def build():
                time.sleep(0.001)  # widen the build/release window
                return np.asarray([value] * 10)

            return build

        errors = []
        for _ in range(20):
            batch = ColumnarRelation.from_providers(
                schema, {n: slow_provider(i) for i, n in enumerate(schema.columns)}, 10
            )
            barrier = threading.Barrier(4)

            def reader():
                try:
                    barrier.wait()
                    for n in ("a", "b", "c"):
                        assert batch.array(n).tolist() == [
                            list(schema.columns).index(n)
                        ] * 10
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors

    def test_nested_provider_drain(self):
        """A provider that reads a sibling column (gather-of-gather
        chains do this) must survive the release bookkeeping."""
        schema = Schema(["a", "b"])
        holder = {}

        def build_a():
            # Draining "b" while "a" is mid-build empties the dict
            # transiently.
            holder["batch"].array("b")
            return np.asarray([1, 2])

        batch = ColumnarRelation.from_providers(
            schema, {"a": build_a, "b": lambda: np.asarray([3, 4])}, 2
        )
        holder["batch"] = batch
        assert batch.array("a").tolist() == [1, 2]
        assert batch.array("b").tolist() == [3, 4]
        assert batch._providers is None


class TestConcatColumnParts:
    def test_single_pass_same_dtype(self):
        from repro.algebra.columnar import concat_column_parts

        parts = [np.asarray([i, i + 1]) for i in range(5)]
        out = concat_column_parts(parts)
        assert out.dtype.kind == "i"
        assert out.tolist() == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_mixed_dtypes_stay_value_faithful(self):
        from repro.algebra.columnar import concat_column_parts

        parts = [
            np.asarray([1, 2]),
            np.asarray([0.5]),
            column_to_array([None, "x"]),
            np.asarray([], dtype=float),
        ]
        out = concat_column_parts(parts)
        assert out.dtype == object
        assert out.tolist() == [1, 2, 0.5, None, "x"]
        assert type(out[0]) is int and type(out[2]) is float
