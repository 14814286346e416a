"""Columnar set operators, the column-lazy Π and mapped opaque functions
against their row-path references.

* ∪ / ∩ / − columnar ≡ row, in row order and ``repr``, interpreted and
  compiled, over hostile values: NaN (the same object, and rebuilt),
  ``None``, ±0.0, ≥ 2⁵³, bool / int / float / string mixes, duplicate
  rows and keys, no derivable key, empty sides.
* Lazy Π column dtypes equal the eager Π's (every output computed up
  front), values equal the row path's.
* ``Func.vector`` ≡ the row loop, including which error surfaces first.
* On the three batch workloads every clean sample, dirty sample,
  outlier set and stale view keeps its numeric columns typed (an object
  column would send the estimator kernel to its row loop).
* "Touch only what you read": a steady-state complex-view period runs no
  row set operator and no ``materialize_rows()`` over the denormalized
  base, and V3's cleaning converts only the columns it reads.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OutlierIndex, StaleViewCleaner
from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Difference,
    Intersect,
    Output,
    Project,
    Relation,
    Schema,
    Select,
    Union,
    col,
    evaluate,
    func,
    lit,
    set_columnar_enabled,
)
from repro.algebra import evaluator
from repro.algebra.columnar import ColumnarRelation, column_to_array
from repro.algebra.compiler import compile_plan
from repro.algebra.evaluator import _const_column
from repro.algebra.predicates import IsIn, Tup
from repro.db import Catalog, maintain
from repro.workloads import (
    DENORM,
    OUTLIER_SENSITIVE_VIEWS,
    SAMPLE_ATTRS,
    ConvivaGenerator,
    TPCDConfig,
    TPCDGenerator,
    build_denormalized,
    build_tpcd,
    create_complex_views,
    create_conviva_views,
    create_join_view,
    generate_denorm_updates,
)
from repro.workloads.conviva import LOG

NAN = float("nan")
BIG = 1 << 53


def outcome(expr, leaves, columnar, compiled=False):
    """Rows (``repr`` per value, in order) or the error, one engine."""
    old = set_columnar_enabled(columnar)
    try:
        if compiled:
            rel = compile_plan(expr, leaves).execute(leaves)
        else:
            rel = evaluate(expr, leaves)
        return "rows", [tuple(map(repr, row)) for row in rel.rows]
    except Exception as exc:  # the reference error is part of the contract
        return "error", type(exc), str(exc)
    finally:
        set_columnar_enabled(old)


def assert_engines_agree(expr, leaves):
    ref = outcome(expr, leaves, columnar=False)
    assert outcome(expr, leaves, columnar=True) == ref
    assert outcome(expr, leaves, columnar=True, compiled=True) == ref


# ----------------------------------------------------------------------
# ∪ / ∩ / −
# ----------------------------------------------------------------------
hostile = st.one_of(
    st.none(),
    st.just(NAN),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1, 0, True, False, BIG, BIG + 1]),
    st.integers(-3, 3),
    st.text("ab", max_size=2),
)
#: Machine ints (the packed-key path) or, for some inputs, also values
#: that must take the row path: a float or bool equal to an int key, a
#: string.
int_keys = st.one_of(st.integers(-2, 30), st.sampled_from([BIG, BIG + 1, -BIG]))
any_keys = st.one_of(int_keys, st.sampled_from([1.0, True, "k"]))


def rows_of(keys):
    return st.lists(st.tuples(keys, hostile, hostile), max_size=12)


def rebuilt(row):
    """An equal row whose NaNs are fresh objects (row-wise unequal)."""
    return tuple(float("nan") if v != v else v for v in row)


@st.composite
def set_op_inputs(draw):
    keys = draw(st.sampled_from([int_keys, int_keys, any_keys]))
    left = draw(rows_of(keys))
    if draw(st.integers(0, 3)):
        left = list({r[0]: r for r in left}.values())  # unique keys
    picks = draw(st.lists(st.sampled_from(left), max_size=6)) if left else []
    right = []
    for row in picks:
        form = draw(st.sampled_from(["same", "rebuilt", "changed"]))
        if form == "same":
            right.append(row)
        elif form == "rebuilt":
            right.append(rebuilt(row))
        else:
            right.append((row[0], draw(hostile), row[2]))
    right += draw(rows_of(keys))
    if right and draw(st.booleans()):
        right.append(right[0])  # a duplicate right row
    right = draw(st.permutations(right))
    key = draw(st.sampled_from([("k",), ("k",), ("k", "a"), None]))
    schema = Schema(["k", "a", "b"])
    return {
        "L": Relation(schema, left, key=key, name="L"),
        "R": Relation(schema, list(right), key=key, name="R"),
    }


def batch_shapes(op):
    """The set operation over column batches (a pass-through Π, on one
    side, on both, or one Π feeding both) and over tagged branches
    whose disjointness a constant column may prove."""
    cols = [Output(c, col(c)) for c in ("k", "a", "b")]
    yield op(Project(BaseRel("L"), cols), Project(BaseRel("R"), cols))
    yield op(Project(BaseRel("L"), cols), BaseRel("R"))
    shared = Project(BaseRel("L"), cols)  # one relation on both sides
    yield op(shared, shared)
    for tags in ((1, -1), (1, True), (1, 1)):
        yield op(
            Project(BaseRel("L"), cols + [Output("t", lit(tags[0]))]),
            Project(BaseRel("R"), cols + [Output("t", lit(tags[1]))]),
        )


def distinct_nans(leaves):
    """The leaves with every NaN its own object.  A typed float column
    keeps no object identity, so a NaN shared by two rows is one object
    for the row engine's Π and two for any columnar Π (σ, ⋈ alike); no
    set operator downstream can tell them apart again."""
    return {
        name: Relation(rel.schema, [rebuilt(r) for r in rel.rows],
                       key=rel.key, name=name)
        for name, rel in leaves.items()
    }


@given(set_op_inputs())
@settings(max_examples=120, deadline=None)
def test_set_operators_match_the_row_path(leaves):
    for op in (Union, Difference, Intersect):
        assert_engines_agree(op(BaseRel("L"), BaseRel("R")), leaves)
        for expr in batch_shapes(op):
            assert_engines_agree(expr, distinct_nans(leaves))


@given(set_op_inputs())
@settings(max_examples=80, deadline=None)
def test_set_op_kernel_matches_the_row_operator(leaves):
    # On the very inputs the columnar engine hands it, shared NaNs and
    # all: the kernel answers exactly as the row operator, or declines.
    for op in (Union, Difference, Intersect):
        for expr in [op(BaseRel("L"), BaseRel("R")), *batch_shapes(op)]:
            memo = {}  # a shared child is one relation, as in evaluate()
            left = evaluator._eval(expr.left, leaves, memo)
            right = evaluator._eval(expr.right, leaves, memo)
            fast = evaluator._try_setop(expr, left, right, leaves)
            if fast is None:
                continue
            slow = evaluator._setop_rows(expr, left, right)
            assert [tuple(map(repr, r)) for r in fast.rows] == [
                tuple(map(repr, r)) for r in slow.rows
            ]


@given(set_op_inputs())
@settings(max_examples=40, deadline=None)
def test_set_operators_nest(leaves):
    # The fresh-version shape (R − ∇R) ∪ ∆R, and a − over a ∪ output.
    fresh = Union(Difference(BaseRel("L"), BaseRel("R")), BaseRel("R"))
    assert_engines_agree(fresh, leaves)
    assert_engines_agree(Difference(fresh, BaseRel("L")), leaves)


def test_set_op_outputs_are_value_faithful():
    # Every output column has the dtype a from-scratch conversion of its
    # values gives — also when one side is empty (an empty part's dtype
    # says nothing and must not widen the other's to object).
    schema = Schema(["k", "a", "b"])
    left = [(k, float(k) / 2, "x") for k in range(50)]
    right = left[10:20] + [(k, float(k), "y") for k in range(60, 70)]
    cols = [Output(c, col(c)) for c in schema.columns]
    for lrows, rrows in ((left, right), ([], right), (left, [])):
        leaves = {
            "L": Relation(schema, lrows, key=("k",), name="L"),
            "R": Relation(schema, rrows, key=("k",), name="R"),
        }
        for op in (Union, Difference, Intersect):
            exprs = [
                op(BaseRel("L"), BaseRel("R")),
                op(Project(BaseRel("L"), cols + [Output("t", lit(1))]),
                   Project(BaseRel("R"), cols + [Output("t", lit(2))])),
            ]
            for expr in exprs:
                out = evaluate(expr, leaves)
                if not len(out):
                    continue
                for c in out.schema.columns:
                    arr = out.columnar().array(c)
                    ref = column_to_array(out.column(c))
                    assert arr.dtype == ref.dtype, (expr, c)
                    assert arr.tolist() == ref.tolist()


def test_uniform_keys_take_the_key_probe(monkeypatch):
    schema = Schema(["k", "a"])
    leaves = {
        "L": Relation(schema, [(k, k * 1.5) for k in range(200)], key=("k",),
                      name="L"),
        "R": Relation(schema, [(k, k * 1.5) for k in range(150, 260)],
                      key=("k",), name="R"),
    }
    rows_path = []
    real = evaluator._setop_rows

    def spy(expr, left, right):
        rows_path.append(type(expr).__name__)
        return real(expr, left, right)

    monkeypatch.setattr(evaluator, "_setop_rows", spy)
    for op in (Union, Difference, Intersect):
        assert_engines_agree(op(BaseRel("L"), BaseRel("R")), leaves)
    # Only the row engine's reference runs reached the row operators.
    assert rows_path == ["Union", "Difference", "Intersect"]


# ----------------------------------------------------------------------
# Column-lazy Π
# ----------------------------------------------------------------------
mixed_value = st.one_of(
    st.none(), st.integers(-5, 5), st.floats(-10, 10), st.booleans(),
    st.sampled_from([BIG, -BIG, 1 << 70]), st.text("xy", max_size=2),
)
proj_rows = st.lists(
    st.tuples(st.integers(0, 50), st.integers(-4, 4),
              st.floats(-8, 8, allow_nan=False), mixed_value),
    min_size=1, max_size=25,
)
PROJ_SCHEMA = Schema(["id", "n", "x", "m"])
CONSTANTS = [0, 7, 1.5, -0.0, "s", True, None, BIG, 1 << 70, (1, 2)]


@given(proj_rows, st.sampled_from(CONSTANTS))
@settings(max_examples=80, deadline=None)
def test_lazy_projection_dtypes_equal_the_eager_ones(rows, const):
    rel = Relation(PROJ_SCHEMA, rows, name="R")
    outputs = [
        Output("id", col("id")),
        Output("renamed", col("m")),
        Output("c", lit(const)),
        Output("twice", col("n") * 2),
        Output("ratio", col("x") / lit(4.0)),
        Output("f", func("neg", lambda v: -v, col("n"))),
    ]
    expr = Project(BaseRel("R"), outputs)
    assert_engines_agree(expr, {"R": rel})
    lazy = evaluate(expr, {"R": rel})
    if lazy.is_materialized:
        return  # the row loop ran: nothing columnar to compare
    child = evaluate(BaseRel("R"), {"R": rel}).columnar()
    for o in outputs:
        val = o.term.vector(child)
        if isinstance(val, np.ndarray) and val.ndim == 1:
            eager = val
        else:
            eager = _const_column(val, len(rows))
        got = lazy.columnar().array(o.name)
        assert got.dtype == eager.dtype, o.name
        assert list(map(repr, got.tolist())) == list(map(repr, eager.tolist()))


def test_projection_converts_only_what_is_read():
    rows = [(i, i % 3, i / 7, str(i)) for i in range(40)]
    rel = Relation(PROJ_SCHEMA, rows, name="R")
    expr = Project(BaseRel("R"), [Output(c, col(c)) for c in PROJ_SCHEMA.columns]
                   + [Output("one", lit(1))])
    out = evaluate(Aggregate(expr, ["n"], [AggSpec("s", "sum", col("x"))]),
                   {"R": rel})
    assert len(out) == 3
    assert sorted(rel.columnar()._arrays) == ["n", "x"]


# ----------------------------------------------------------------------
# Func.vector
# ----------------------------------------------------------------------
def inverse(v):
    return 1 / v  # ZeroDivisionError on 0, TypeError on None / str


def checked(v):
    if isinstance(v, (int, float)) and v < -2:
        raise ValueError(f"too small: {v!r}")
    return v


func_values = st.one_of(st.integers(-4, 4), st.none(), st.floats(-3, 3),
                        st.just(NAN), st.text("q", max_size=1))


@given(st.lists(func_values, min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_func_vector_matches_the_row_loop(values):
    rel = Relation(Schema(["k", "v"]), list(enumerate(values)), key=("k",),
                   name="R")
    leaves = {"R": rel}
    inv = func("inv", inverse, col("v"))
    chk = func("chk", checked, col("v"))
    for outputs in ([("a", inv), ("b", chk)], [("b", chk), ("a", inv)]):
        expr = Project(BaseRel("R"), [Output("k", col("k"))]
                       + [Output(n, t) for n, t in outputs])
        assert_engines_agree(expr, leaves)
    shifted = func("shift", lambda a, b, c: (a, b, c),
                   col("k") + 1, lit([1]), col("v"))
    assert_engines_agree(Project(BaseRel("R"), [Output("t", shifted)]), leaves)
    assert_engines_agree(
        Project(BaseRel("R"), [Output("z", func("zero", lambda: 0))]), leaves
    )
    assert_engines_agree(Select(BaseRel("R"), chk == lit(1)), leaves)
    width = func("width", lambda v: len(repr(checked(v))), col("v"))
    assert_engines_agree(
        Aggregate(BaseRel("R"), [], [AggSpec("s", "sum", width)]), leaves
    )


def test_func_vector_reads_only_its_arguments():
    rows = [(i, i % 4, float(i), "t") for i in range(30)]
    rel = Relation(PROJ_SCHEMA, rows, name="R")
    f = func("prefix", lambda n: str(n)[:1], col("n"))
    out = evaluate(Project(BaseRel("R"), [Output("p", f)]), {"R": rel})
    assert out.columnar().array("p").dtype.kind == "U"
    assert rel.columnar()._arrays == {}  # Python values, straight from rows


# ----------------------------------------------------------------------
# IsIn over a tuple of columns
# ----------------------------------------------------------------------
@given(proj_rows, st.lists(st.tuples(st.integers(-4, 4), mixed_value),
                           max_size=6))
@settings(max_examples=60, deadline=None)
def test_tuple_key_set_mask_matches_the_row_path(rows, keys):
    rel = Relation(PROJ_SCHEMA, rows, name="R")
    keys = keys + [(r[1], r[3]) for r in rows[:2]]
    pred = IsIn(Tup(col("n"), col("m")), keys)
    assert_engines_agree(Select(BaseRel("R"), pred), {"R": rel})
    # Over a column batch the mask reads the two columns, not the rows.
    projected = evaluate(Project(BaseRel("R"), ["n", "m"]), {"R": rel})
    mask = pred.mask(projected)
    assert not projected.is_materialized
    assert mask.tolist() == [(r[1], r[3]) in frozenset(keys) for r in rows]


# ----------------------------------------------------------------------
# The batch workloads keep value-faithful dtypes
# ----------------------------------------------------------------------
def assert_typed_numbers(rel, what):
    """A column of numbers has the dtype a from-scratch conversion gives
    it — never object, which would send the estimator kernel to its row
    loop."""
    if rel is None or not len(rel):
        return
    batch = rel.columnar()
    for c in rel.schema.columns:
        ref = column_to_array(rel.column(c))
        if ref.dtype.kind in "biuf":
            assert batch.array(c).dtype == ref.dtype, (what, c)


def run_periods(db, units, make_deltas, periods=3):
    for period in range(periods):
        make_deltas(period)
        for cleaner in units:
            cleaner.refresh()
        for cleaner in units:
            view = cleaner.view
            assert_typed_numbers(cleaner.clean_sample, f"{view.name} clean")
            assert_typed_numbers(cleaner.dirty_sample, f"{view.name} dirty")
            assert_typed_numbers(view.require_data(), f"{view.name} stale")
            assert_typed_numbers(getattr(cleaner._sample, "outlier_rows", None),
                                 f"{view.name} outliers")
        for cleaner in units:
            maintain(cleaner.view)
        db.apply_deltas()
        for cleaner in units:
            cleaner.advance()


def test_tpcd_join_keeps_dtypes():
    db, gen = build_tpcd(scale=0.03, z=2.0, seed=13)
    view = create_join_view(db, Catalog(db))
    cleaner = StaleViewCleaner(view, ratio=0.1, seed=13,
                               sample_attrs=SAMPLE_ATTRS)
    run_periods(db, [cleaner], lambda _: gen.generate_updates(db, 0.05))


def test_conviva_views_keep_dtypes():
    gen = ConvivaGenerator(seed=13)
    db = gen.build(800)
    views = create_conviva_views(db, catalog=Catalog(db))
    cleaners = [StaleViewCleaner(v, ratio=0.1, seed=13) for v in views.values()]
    run_periods(db, cleaners, lambda _: db.insert(
        LOG, gen.records(40, start_date=100, date_span=30)))


def complex_state(scale=0.06, seed=13):
    gen = TPCDGenerator(TPCDConfig(scale=scale, z=2.0, seed=seed))
    db = build_denormalized(gen.build())
    views = create_complex_views(
        db, names=["V3", "V5", "V10", "V15", "V21", "V22"], catalog=Catalog(db))
    index = OutlierIndex.from_top_k(db.relation(DENORM), "l_extendedprice", 20)
    cleaners = [
        StaleViewCleaner(view, ratio=0.1, seed=seed,
                         outlier_index=(index if name in OUTLIER_SENSITIVE_VIEWS
                                        else None))
        for name, view in views.items()
    ]

    def deltas(period):
        generate_denorm_updates(db, 0.05, seed=seed * 1009 + period)
        rel = db.relation(DENORM)
        rng = np.random.default_rng(period)
        keys = [rel.key_of(rel.rows[i])
                for i in rng.choice(len(rel), size=max(1, len(rel) // 100),
                                    replace=False)]
        db.delete_by_key(DENORM, keys)

    return db, cleaners, deltas


def test_complex_outlier_keeps_dtypes():
    db, cleaners, deltas = complex_state()
    run_periods(db, cleaners, deltas)


# ----------------------------------------------------------------------
# Touch only what you read
# ----------------------------------------------------------------------
def test_complex_period_touches_only_what_it_reads(monkeypatch):
    db, cleaners, deltas = complex_state()
    for period in range(2):  # reach the steady state
        deltas(period)
        for cleaner in cleaners:
            cleaner.refresh()
            maintain(cleaner.view)
        db.apply_deltas()
        for cleaner in cleaners:
            cleaner.advance()
    deltas(2)
    base_rows = len(db.relation(DENORM))

    materialized, row_set_ops, requested = [], [], []
    real_rows = ColumnarRelation.materialize_rows
    real_setop = evaluator._setop_rows
    real_array = ColumnarRelation.array

    def spy_rows(batch):
        materialized.append(batch.nrows)
        return real_rows(batch)

    def spy_setop(expr, left, right):
        row_set_ops.append((type(expr).__name__, len(left)))
        return real_setop(expr, left, right)

    def spy_array(batch, name):
        if "l_partkey" in batch.schema:  # a batch of denorm's shape
            requested.append(name)
        return real_array(batch, name)

    monkeypatch.setattr(ColumnarRelation, "materialize_rows", spy_rows)
    monkeypatch.setattr(evaluator, "_setop_rows", spy_setop)
    monkeypatch.setattr(ColumnarRelation, "array", spy_array)
    v3 = cleaners[0]
    assert v3.view.name == "V3"
    v3.sample_view.clean()
    cleaning_reads = set(requested)
    for cleaner in cleaners:
        cleaner.refresh()
        maintain(cleaner.view)

    assert row_set_ops == []
    assert all(n < base_rows // 2 for n in materialized), (materialized, base_rows)
    # σ(o_orderdate) → γ by l_orderkey of revenue · __mult__.
    assert cleaning_reads <= {
        "o_orderdate", "l_orderkey", "l_extendedprice", "l_discount", "__mult__",
    }, cleaning_reads
