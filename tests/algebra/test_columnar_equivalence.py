"""Row-path vs columnar-path equivalence (property-style, hypothesis).

The columnar fast paths must be invisible: for every operator the
vectorized engine and the reference row-at-a-time engine must return the
same rows (same keys, same ``__grpcount__``), over mixed-type and
``None``-containing relations alike.  Each test evaluates the same
expression twice — once per engine — via :func:`set_columnar_enabled`.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    GROUP_COUNT,
    AggSpec,
    Aggregate,
    BaseRel,
    Hash,
    IsIn,
    Join,
    Project,
    Relation,
    Schema,
    Select,
    col,
    evaluate,
    func,
    set_columnar_enabled,
)
from repro.algebra.columnar import column_to_array
from repro.algebra.predicates import Tup


def both_engines(expr, leaves):
    """Evaluate ``expr`` under the columnar and the row engine."""
    old = set_columnar_enabled(True)
    try:
        fast = evaluate(expr, dict(leaves))
        set_columnar_enabled(False)
        slow = evaluate(expr, dict(leaves))
    finally:
        set_columnar_enabled(old)
    return fast, slow


def assert_same_rows(fast, slow):
    """Bag equality with float tolerance (var/std summation order)."""
    assert fast.schema == slow.schema
    assert len(fast.rows) == len(slow.rows)
    key = lambda r: tuple(repr(v) for v in r)  # noqa: E731
    for ra, rb in zip(sorted(fast.rows, key=key), sorted(slow.rows, key=key)):
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            if isinstance(x, float) and isinstance(y, float):
                if math.isnan(x) or math.isnan(y):
                    assert math.isnan(x) and math.isnan(y)
                else:
                    assert x == pytest.approx(y, rel=1e-9, abs=1e-9)
            else:
                assert x == y


# Mixed-type, None-containing relations: int ids, small-int groups,
# floats, strings, and a column that mixes None/int/str freely.
mixed_value = st.one_of(
    st.none(),
    st.integers(-1000, 1000),
    st.text("abc", max_size=3),
)
mixed_rows = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 5),
        st.floats(-100, 100, allow_nan=False),
        st.sampled_from(["x", "y", "z"]),
        mixed_value,
    ),
    min_size=0,
    max_size=60,
    unique_by=lambda r: r[0],
)

SCHEMA = Schema(["id", "grp", "val", "tag", "misc"])


def make_rel(rows, name="R"):
    return Relation(SCHEMA, rows, key=("id",), name=name)


@given(mixed_rows)
@settings(max_examples=50, deadline=None)
def test_select_equivalence(rows):
    rel = make_rel(rows)
    predicates = [
        col("val") > 0.0,
        (col("val") * 2 + 1 <= 50.0) & (col("grp") != 3),
        (col("grp") == 1) | ~(col("tag") == "x"),
        IsIn(col("tag"), ["x", "z"]),
        IsIn(col("grp"), [0, 2, 4]),
        col("val") + col("grp") >= col("val") - 1,
    ]
    for pred in predicates:
        fast, slow = both_engines(Select(BaseRel("R"), pred), {"R": rel})
        assert_same_rows(fast, slow)


@given(mixed_rows)
@settings(max_examples=50, deadline=None)
def test_aggregate_equivalence(rows):
    rel = make_rel(rows)
    expr = Aggregate(
        BaseRel("R"),
        ("grp", "tag"),
        (
            AggSpec(GROUP_COUNT, "count"),
            AggSpec("s", "sum", "val"),
            AggSpec("m", "avg", "val"),
            AggSpec("v", "var", "val"),
            AggSpec("lo", "min", "val"),
            AggSpec("hi", "max", "val"),
            AggSpec("nd", "count_distinct", "tag"),
        ),
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)


@given(mixed_rows)
@settings(max_examples=50, deadline=None)
def test_aggregate_on_mixed_column_equivalence(rows):
    """Group by a None/mixed column; aggregate ints with sum/min/max."""
    rel = make_rel(rows)
    expr = Aggregate(
        BaseRel("R"),
        ("misc",),
        (
            AggSpec("n", "count"),
            AggSpec("s", "sum", "grp"),
            AggSpec("lo", "min", "grp"),
        ),
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)


@given(mixed_rows)
@settings(max_examples=50, deadline=None)
def test_global_aggregate_equivalence(rows):
    rel = make_rel(rows)
    expr = Aggregate(
        BaseRel("R"),
        (),
        (AggSpec("n", "count"), AggSpec("s", "sum", "val")),
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)


JOIN_KINDS = ["inner", "left", "right", "full"]


@given(mixed_rows, mixed_rows, st.sampled_from(JOIN_KINDS))
@settings(max_examples=40, deadline=None)
def test_join_equivalence(lrows, rrows, how):
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["grp", "label"]),
        [(g, f"g{g}") for g in sorted({r[1] for r in rrows} | {99})],
        key=("grp",),
        name="S",
    )
    expr = Join(BaseRel("L"), BaseRel("S"), on=[("grp", "grp")], how=how)
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    # Exact row order must match too (downstream first-appearance
    # grouping depends on it).
    assert fast.rows == slow.rows


@given(mixed_rows, mixed_rows, st.sampled_from(JOIN_KINDS))
@settings(max_examples=40, deadline=None)
def test_join_equivalence_duplicate_keys(lrows, rrows, how):
    """Both sides carry duplicate join keys (many-to-many matches)."""
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["grp", "label"]),
        [(r[1], r[3]) for r in rrows],
        name="S",
    )
    expr = Join(BaseRel("L"), BaseRel("S"), on=[("grp", "grp")], how=how)
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


@given(mixed_rows, mixed_rows, st.sampled_from(JOIN_KINDS))
@settings(max_examples=30, deadline=None)
def test_join_equivalence_null_keys(lrows, rrows, how):
    """None-bearing join keys: None == None matches, like the row path."""
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["misc", "label"]),
        [(r[4], r[3]) for r in rrows],
        name="S",
    )
    expr = Join(BaseRel("L"), BaseRel("S"), on=[("misc", "misc")], how=how)
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


@given(mixed_rows, st.sampled_from(JOIN_KINDS), st.booleans())
@settings(max_examples=30, deadline=None)
def test_join_equivalence_empty_side(rows, how, empty_left):
    """One empty input: outer joins must still pad/keep the other side."""
    data = make_rel(rows, name="D")
    empty = Relation(Schema(["grp", "label"]), [], name="E")
    if empty_left:
        expr = Join(BaseRel("E"), BaseRel("D"), on=[("grp", "grp")], how=how)
    else:
        expr = Join(BaseRel("D"), BaseRel("E"), on=[("grp", "grp")], how=how)
    fast, slow = both_engines(expr, {"D": data, "E": empty})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


@given(mixed_rows, mixed_rows, st.sampled_from(JOIN_KINDS))
@settings(max_examples=30, deadline=None)
def test_join_equivalence_multi_column_key(lrows, rrows, how):
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["grp", "tag", "label"]),
        [(r[1], r[3], r[0]) for r in rrows],
        name="S",
    )
    expr = Join(
        BaseRel("L"), BaseRel("S"), on=[("grp", "grp"), ("tag", "tag")], how=how
    )
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


@given(mixed_rows, mixed_rows, st.sampled_from(JOIN_KINDS))
@settings(max_examples=30, deadline=None)
def test_join_equivalence_with_theta(lrows, rrows, how):
    """Equality join plus extra theta predicate, all four join kinds."""
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["grp", "weight"]),
        [(r[1], r[2]) for r in rrows],
        name="S",
    )
    expr = Join(
        BaseRel("L"),
        BaseRel("S"),
        on=[("grp", "grp")],
        how=how,
        theta=col("val") <= col("weight"),
    )
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


@given(mixed_rows, st.sampled_from(["inner", "left"]))
@settings(max_examples=20, deadline=None)
def test_theta_only_join_equivalence(lrows, how):
    """Pure theta joins (no equality pairs) stay on the row path."""
    left = make_rel(lrows, name="L")
    right = Relation(
        Schema(["lo", "hi"]), [(0.0, 50.0), (-10.0, 0.0)], name="S"
    )
    expr = Join(
        BaseRel("L"),
        BaseRel("S"),
        on=[],
        how=how,
        theta=(col("val") >= col("lo")) & (col("val") < col("hi")),
    )
    fast, slow = both_engines(expr, {"L": left, "S": right})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows


def test_join_string_keys_all_kinds():
    left = Relation(
        Schema(["tag", "v"]), [("x", 1), ("y", 2), ("zz", 3), ("x", 4)], name="L"
    )
    right = Relation(
        Schema(["tag", "w"]), [("x", 10.0), ("w", 20.0), ("x", 30.0)], name="S"
    )
    for how in JOIN_KINDS:
        expr = Join(BaseRel("L"), BaseRel("S"), on=[("tag", "tag")], how=how)
        fast, slow = both_engines(expr, {"L": left, "S": right})
        assert fast.rows == slow.rows


def test_join_nan_keys_never_match():
    """NaN join keys never equal themselves — np.unique must not collapse
    them into a single matching key."""
    nan = float("nan")
    left = Relation(Schema(["k", "a"]), [(nan, 1), (2.0, 2)], name="L")
    right = Relation(Schema(["k", "b"]), [(nan, 10), (2.0, 20)], name="S")
    for how in JOIN_KINDS:
        expr = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how=how)
        fast, slow = both_engines(expr, {"L": left, "S": right})
        assert len(fast.rows) == len(slow.rows)
        key = lambda r: tuple(repr(v) for v in r)  # noqa: E731
        assert sorted(fast.rows, key=key) == sorted(slow.rows, key=key)


def test_join_mixed_int_float_keys_beyond_2_53():
    """int/float key pairs beyond 2**53 must match with Python exactness."""
    exact = 1 << 53
    left = Relation(Schema(["k", "a"]), [(exact + 1, 1), (3, 2)], name="L")
    right = Relation(
        Schema(["k", "b"]), [(float(exact), 10), (3.0, 20)], name="S"
    )
    for how in JOIN_KINDS:
        expr = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how=how)
        fast, slow = both_engines(expr, {"L": left, "S": right})
        assert fast.rows == slow.rows
    # float(2**53) == 2**53 + 1 after float64 promotion, but not in Python:
    # the only real match is 3 == 3.0.
    inner = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how="inner")
    fast, _ = both_engines(inner, {"L": left, "S": right})
    assert fast.rows == [(3, 2, 20)]


def test_join_int64_uint64_keys_beyond_2_53():
    """int64 vs uint64 keys promote to float64 on concatenation; distinct
    huge keys must not collapse into one np.unique code."""
    left = Relation(Schema(["k", "a"]), [((1 << 63) - 1, 1)], name="L")
    right = Relation(
        Schema(["k", "b"]), [(1 << 63, 0), ((1 << 63) + 5, 10)], name="S"
    )
    assert right.columnar().array("k").dtype.kind == "u"  # uint64 side
    for how in JOIN_KINDS:
        expr = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how=how)
        fast, slow = both_engines(expr, {"L": left, "S": right})
        assert fast.rows == slow.rows
    inner = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how="inner")
    fast, _ = both_engines(inner, {"L": left, "S": right})
    assert fast.rows == []


def test_join_bool_int_keys_match_like_python():
    """True == 1 and False == 0 across sides, exactly like dict lookup."""
    left = Relation(Schema(["k", "a"]), [(True, 1), (0, 2), (2, 3)], name="L")
    right = Relation(Schema(["k", "b"]), [(1, 10), (False, 20)], name="S")
    for how in JOIN_KINDS:
        expr = Join(BaseRel("L"), BaseRel("S"), on=[("k", "k")], how=how)
        fast, slow = both_engines(expr, {"L": left, "S": right})
        assert fast.rows == slow.rows


@given(mixed_rows, st.floats(0.0, 1.0), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_eta_equivalence(rows, ratio, seed):
    rel = make_rel(rows)
    expr = Hash(BaseRel("R"), ("id",), ratio, seed)
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)
    # η over a mixed-type key attribute takes the loop batch path.
    expr2 = Hash(BaseRel("R"), ("misc", "tag"), ratio, seed)
    fast2, slow2 = both_engines(expr2, {"R": rel})
    assert_same_rows(fast2, slow2)


@given(mixed_rows)
@settings(max_examples=40, deadline=None)
def test_project_equivalence(rows):
    rel = make_rel(rows)
    passthrough = Project(BaseRel("R"), ["tag", "grp", "id"])
    fast, slow = both_engines(passthrough, {"R": rel})
    assert_same_rows(fast, slow)
    computed = Project(
        BaseRel("R"), [("id", "id"), ("twice", col("val") * 2)]
    )
    fast2, slow2 = both_engines(computed, {"R": rel})
    assert_same_rows(fast2, slow2)


def test_opaque_func_predicate_falls_back():
    """Func terms have no columnar form; results must still match."""
    rel = make_rel([(1, 0, 1.0, "x", None), (2, 1, -1.0, "y", 5)])
    pred = func("isneg", lambda v: v < 0, col("val")) == True  # noqa: E712
    fast, slow = both_engines(Select(BaseRel("R"), pred), {"R": rel})
    assert_same_rows(fast, slow)
    assert len(fast.rows) == 1


def test_division_predicate_matches_row_semantics():
    """A zero divisor raises in both engines (no silent inf/nan masks)."""
    rel = Relation(Schema(["a", "b"]), [(1.0, 2.0), (3.0, 0.0)], name="R")
    expr = Select(BaseRel("R"), col("a") / col("b") > 0.1)
    old = set_columnar_enabled(True)
    try:
        with pytest.raises(ZeroDivisionError):
            evaluate(expr, {"R": rel})
    finally:
        set_columnar_enabled(old)


def test_huge_int_aggregate_falls_back_exactly():
    """Sums/avgs that would wrap int64 must use Python's big ints."""
    big = 1 << 62
    rel = Relation(
        Schema(["id", "grp", "val"]),
        [(0, 0, big), (1, 0, big), (2, 1, 7)],
        key=("id",),
        name="R",
    )
    expr = Aggregate(
        BaseRel("R"),
        ("grp",),
        (AggSpec("s", "sum", "val"), AggSpec("m", "avg", "val")),
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)
    by_grp = {r[0]: r[1:] for r in fast.rows}
    assert by_grp[0][0] == 2 * big
    assert by_grp[0][1] == pytest.approx(float(big), rel=1e-12)


def test_aggregate_division_term_matches_row_semantics():
    """Div-by-zero inside an aggregate input raises in both engines."""
    rel = Relation(
        Schema(["g", "a", "b"]), [(1, 10.0, 2.0), (1, 5.0, 0.0)], name="R"
    )
    expr = Aggregate(
        BaseRel("R"), ("g",), (AggSpec("s", "sum", col("a") / col("b")),)
    )
    for enabled in (True, False):
        old = set_columnar_enabled(enabled)
        try:
            with pytest.raises(ZeroDivisionError):
                evaluate(expr, {"R": rel})
        finally:
            set_columnar_enabled(old)


def test_empty_projection_keeps_cardinality():
    """Π with zero outputs yields one empty tuple per row in both engines."""
    rel = Relation(Schema(["x"]), [(1,), (2,)], name="R")
    fast, slow = both_engines(Project(BaseRel("R"), ()), {"R": rel})
    assert fast.rows == slow.rows == [(), ()]


def test_int_float_comparison_beyond_2_53_is_exact():
    """numpy's int→float promotion must not leak into comparison masks."""
    exact = 1 << 53
    rel = Relation(
        Schema(["id", "x"]),
        [(0, float(exact)), (1, 1.5)],
        key=("id",),
        name="R",
    )
    # float(2**53) == 2**53 + 1 is False in Python but True after float64
    # promotion; the columnar path must agree with Python.
    fast, slow = both_engines(
        Select(BaseRel("R"), col("x") == exact + 1), {"R": rel}
    )
    assert fast.rows == slow.rows == []
    rel2 = Relation(
        Schema(["id", "n"]), [(0, exact + 1), (1, 3)], key=("id",), name="R"
    )
    fast2, slow2 = both_engines(
        Select(BaseRel("R"), col("n") == float(exact)), {"R": rel2}
    )
    assert fast2.rows == slow2.rows == []


def test_bool_int_group_keys_preserved():
    """Multi-column group keys must not promote bools to 0/1."""
    rel = Relation(
        Schema(["a", "b", "v"]),
        [(True, 1, 4.0), (False, 2, 2.0), (True, 1, 6.0)],
        name="R",
    )
    expr = Aggregate(BaseRel("R"), ("a", "b"), (AggSpec("s", "sum", "v"),))
    fast, slow = both_engines(expr, {"R": rel})
    assert fast.rows == slow.rows
    assert all(isinstance(r[0], bool) for r in fast.rows)


def test_single_column_mixed_bool_int_group_keys_preserved():
    """A single group column mixing bools and ints keeps row-path keys."""
    rel = Relation(
        Schema(["k", "v"]),
        [(True, 1.0), (1, 2.0), (False, 3.0), (0, 4.0)],
        name="R",
    )
    expr = Aggregate(BaseRel("R"), ("k",), (AggSpec("s", "sum", "v"),))
    fast, slow = both_engines(expr, {"R": rel})
    assert fast.rows == slow.rows
    assert all(isinstance(r[0], bool) for r in fast.rows)


def test_isin_mixed_type_value_set_matches_row_semantics():
    """A value set mixing strs and ints must not stringify the ints."""
    rel = Relation(Schema(["t"]), [("2",), ("x",), (2,)], name="R")
    expr = Select(BaseRel("R"), IsIn(col("t"), ["1", 2]))
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)
    assert sorted(fast.rows, key=repr) == [(2,)]


def test_sequence_constant_comparison_matches_row_semantics():
    """Tuple constants compare as single values, never broadcast."""
    from repro.algebra import lit

    rel = Relation(Schema(["x"]), [(1,), (2,)], name="R")
    expr = Select(BaseRel("R"), col("x") == lit((1, 2)))
    fast, slow = both_engines(expr, {"R": rel})
    assert fast.rows == slow.rows == []


def test_avg_beyond_2_53_uses_exact_division():
    """avg over ints whose sum exceeds 2**53 must match Python division."""
    base = (1 << 53) + 1
    rel = Relation(
        Schema(["g", "v"]),
        [(1, base), (1, base + 2), (1, base + 4)],
        name="R",
    )
    expr = Aggregate(BaseRel("R"), ("g",), (AggSpec("m", "avg", "v"),))
    fast, slow = both_engines(expr, {"R": rel})
    assert fast.rows == slow.rows


def test_bool_min_max_preserves_type():
    """min/max over bool columns returns False/True, not 0/1."""
    rel = Relation(
        Schema(["g", "b"]), [(1, True), (1, False), (2, True)], name="R"
    )
    expr = Aggregate(
        BaseRel("R"), ("g",), (AggSpec("lo", "min", "b"), AggSpec("hi", "max", "b"))
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert fast.rows == slow.rows
    assert all(isinstance(v, bool) for row in fast.rows for v in row[1:])


def test_eta_leaf_cache_invalidated_on_family_change():
    """Cached η samples must not survive set_hash_family."""
    from repro.stats.hashing import set_hash_family

    rel = make_rel([(i, i % 3, float(i), "x", None) for i in range(200)])
    expr = Hash(BaseRel("R"), ("id",), 0.3, seed=0)
    try:
        sha_rows = evaluate(expr, {"R": rel}).rows
        set_hash_family("linear")
        lin_rows = evaluate(expr, {"R": rel}).rows
        fresh = make_rel([(i, i % 3, float(i), "x", None) for i in range(200)])
        lin_fresh = evaluate(expr, {"R": fresh}).rows
    finally:
        set_hash_family("sha1")
    assert sorted(lin_rows) == sorted(lin_fresh)
    assert sorted(lin_rows) != sorted(sha_rows)


def test_grpcount_column_matches():
    """The hidden __grpcount__ support column vectorizes as a count."""
    rel = make_rel([(i, i % 3, float(i), "x", None) for i in range(30)])
    expr = Aggregate(
        BaseRel("R"), ("grp",), (AggSpec(GROUP_COUNT, "count"),)
    )
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)
    counts = {g: c for g, c in fast.rows}
    assert counts == {0: 10, 1: 10, 2: 10}


def test_distinct_equivalence():
    rel = make_rel(
        [(i, i % 2, 1.0, "x" if i % 4 else "y", None) for i in range(20)]
    )
    expr = Aggregate(BaseRel("R"), ("grp", "tag"), ())
    fast, slow = both_engines(expr, {"R": rel})
    assert_same_rows(fast, slow)
    assert fast.rows == slow.rows  # first-appearance order preserved


@pytest.mark.parametrize(
    "values", [[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0, 0.0, 2.0]])
def test_float_min_max_keep_the_row_paths_signed_zero(values):
    """Python's min/max keep the first of equal values, so ``0.0`` and
    ``-0.0`` in one group give the one that comes first; numpy's
    reductions may give the other."""
    rel = Relation(Schema(["g", "x"]), [(1, v) for v in values], name="R")
    expr = Aggregate(
        BaseRel("R"), ("g",),
        (AggSpec("lo", "min", "x"), AggSpec("hi", "max", "x")),
    )
    fast, slow = both_engines(expr, {"R": rel})

    def signs(rows):
        return [tuple(math.copysign(1, v) for v in r[1:]) for r in rows]

    assert signs(fast.rows) == signs(slow.rows)


# ----------------------------------------------------------------------
# γ's output form: a batch of its computed columns, each equal to
# converting the row engine's output column
# ----------------------------------------------------------------------
NAN = float("nan")
#: The priority of an SPJ change table's ``pick``: term + 1, signed by
#: the row's multiplicity (negative for deletions).
PRIORITY = (col("t") + 1) * col("m")

#: name → (columns, rows, child filter or None, group_by, aggs).
GAMMA_FORM_CASES = {
    "bool_int_float": (
        ["g", "b", "i", "x"],
        [(1, True, 3, 0.5), (2, False, -4, 1.25), (1, True, 7, -2.0),
         (3, False, 0, 0.0)],
        None, ("g",),
        [AggSpec("n", "count"), AggSpec("sb", "sum", "b"),
         AggSpec("lob", "min", "b"), AggSpec("si", "sum", "i"),
         AggSpec("loi", "min", "i"), AggSpec("ai", "avg", "i"),
         AggSpec("sx", "sum", "x"), AggSpec("hix", "max", "x")],
    ),
    "uint64_values": (
        ["g", "u"],
        [(1, 2 ** 63 + 5), (2, 3), (1, 4), (2, 9)],
        None, ("g",),
        [AggSpec("lo", "min", "u"), AggSpec("hi", "max", "u"),
         AggSpec("s", "sum", "u")],
    ),
    "sums_beyond_2_63": (
        ["g", "i"],
        [(1, 2 ** 62), (1, 2 ** 62), (2, 5), (1, 2 ** 62)],
        None, ("g",),
        [AggSpec("s", "sum", "i"), AggSpec("a", "avg", "i")],
    ),
    "none_key": (
        ["g", "x"],
        [(None, 1.5), (1, 2.5), (None, 0.5), (2, 1.0)],
        None, ("g",), [AggSpec("s", "sum", "x")],
    ),
    "nan_key": (
        ["g", "x"],
        [(NAN, 1.5), (1.0, 2.5), (NAN, 0.5), (2.0, 1.0)],
        None, ("g",), [AggSpec("s", "sum", "x"), AggSpec("n", "count")],
    ),
    "signed_zero_key": (
        ["g", "x"],
        [(-0.0, 1), (0.0, 2), (1.5, 3), (0.0, 4)],
        None, ("g",), [AggSpec("s", "sum", "x")],
    ),
    "nul_string_key": (
        ["g", "x"],
        [("a", 1), ("a\x00", 2), ("a", 3), ("b\x00\x00", 4)],
        None, ("g",), [AggSpec("s", "sum", "x")],
    ),
    "str_key_longest_filtered_out": (
        ["g", "x"],
        [("ab", 1), ("abcdefgh", 2), ("a", 3), ("ab", 4)],
        col("x") != 2, ("g",), [AggSpec("s", "sum", "x")],
    ),
    "bytes_key": (
        ["g", "x"],
        [(b"ab", 1), (b"", 2), (b"ab", 3)],
        None, ("g",), [AggSpec("s", "sum", "x")],
    ),
    "global": (
        ["g", "x"],
        [(1, 0.5), (2, 1.5), (3, -0.25)],
        None, (),
        [AggSpec("n", "count"), AggSpec("s", "sum", "x"),
         AggSpec("lo", "min", "g")],
    ),
    "pick_no_deleted_group": (
        ["k", "t", "m", "x", "s"],
        [(1, 0, 1, 1.5, "a"), (1, 1, 1, 2.5, "bb"), (2, 0, -1, 9.0, "ccc"),
         (2, 0, 1, 3.5, "d")],
        None, ("k",),
        [AggSpec("x", "pick", Tup(PRIORITY, col("x"))),
         AggSpec("s", "pick", Tup(PRIORITY, col("s"))),
         AggSpec("n", "sum", "m")],
    ),
    "pick_deleted_group": (
        ["k", "t", "m", "x", "s"],
        [(1, 0, 1, 1.5, "a"), (2, 0, -1, 9.0, "ccc"), (2, 1, -1, 8.0, "e"),
         (3, 1, 1, 4.5, "ff")],
        None, ("k",),
        [AggSpec("x", "pick", Tup(PRIORITY, col("x"))),
         AggSpec("s", "pick", Tup(PRIORITY, col("s"))),
         AggSpec("n", "sum", "m")],
    ),
    "fallback_specs": (
        ["g", "m", "x"],
        [(1, 1, 2.5), (1, -1, 0.5), (2, 1, 4.0), (1, 1, 1.5), (2, -1, 7.0)],
        None, ("g",),
        [AggSpec("dmin", "delta_min", Tup(col("m"), col("x"))),
         AggSpec("dmax", "delta_max", Tup(col("m"), col("x"))),
         AggSpec("med", "median", "x")],
    ),
}


def typed(values):
    """Values as ``(type, repr)`` pairs: NaN equals NaN, ``1`` is not
    ``1.0`` or ``True``, and ``-0.0`` is not ``0.0``."""
    return [(type(v), repr(v)) for v in values]


@pytest.mark.parametrize("name", sorted(GAMMA_FORM_CASES))
def test_aggregate_output_form(name):
    """The columnar γ hands on a batch, not row tuples: every column it
    serves is ``column_to_array`` of the row engine's output column,
    dtype included, and its rows — built only when read — are the row
    engine's, cell type for cell type."""
    columns, rows, keep, group_by, aggs = GAMMA_FORM_CASES[name]
    rel = Relation(Schema(columns), rows, name="R")
    child = BaseRel("R") if keep is None else Select(BaseRel("R"), keep)
    fast, slow = both_engines(Aggregate(child, group_by, aggs), {"R": rel})
    assert not fast.is_materialized and not fast.columnar().row_backed
    for pos, column in enumerate(slow.schema.columns):
        got = fast.columnar().array(column)
        want = column_to_array([r[pos] for r in slow.rows])
        assert got.dtype == want.dtype, (column, got.dtype, want.dtype)
        assert typed(got.tolist()) == typed(want.tolist()), column
    assert [typed(r) for r in fast.rows] == [typed(r) for r in slow.rows]
