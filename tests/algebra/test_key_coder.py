"""The one key coder (``columnar.pack`` / ``dense``) against the row
path's dict numbering, over one table of hostile keys.

Every consumer of the coder is checked on every entry of the table:

* the coder itself — ids equal the dict numbering of all sides' key
  tuples, the group key columns hold the tuples the dict kept
  (``repr``-equal, so ``True`` is not ``1`` and ``-0.0`` is not
  ``0.0``) in the dtype their conversion has, codes sort like
  comparable key tuples, and it refuses exactly the object, NaN,
  ≥ 2⁵³ int/float and cross-kind entries;
* γ, the hash join (all four ``how``) and the change-table merge —
  columnar ≡ row engine, row for row, in order, by ``repr``;
* the alignment of Ŝ′ with Ŝ — the batch alignment equals the row
  alignment slot for slot, or is None on a refusal or a repeated key;
* :class:`KeyIndex` — a lookup of any key tuple, or of a value of
  another type a dict would equate with it, finds the positions a dict
  of lists over the rows finds;
* key-set probes (``in_key_set``: ``IsIn`` over a ``Tup`` of columns and
  the outlier index's split of the stale view) — the rows whose key
  tuple a Python set holds, and no others.
"""

import numpy as np
import pytest

from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Combiner,
    Join,
    Merge,
    Relation,
    Schema,
    Select,
    evaluate,
    set_columnar_enabled,
)
from repro.algebra.columnar import (
    column_to_array,
    dense,
    grown,
    in_key_set,
    key_code,
    key_codes,
    key_groups,
    pack,
)
from repro.algebra.predicates import Col, IsIn, Tup
from repro.algebra.relation import KeyIndex
from repro.core.confidence import _row_alignment, _try_alignment
from repro.core.outlier_index import _try_split_columns

NAN = float("nan")

#: name → (sides of key tuples, whether the coder refuses them).
CASES = {
    "ints": ([[(3,), (1,), (3,), (-2,)], [(1,), (7,)]], False),
    "none_object": ([[(None,), (1,), (None,), (1.0,)], [(1,), (None,)]], True),
    "nan_same_object": ([[(NAN,), (1.0,), (NAN,)], [(NAN,), (2.5,)]], True),
    "nan_rebuilt": ([[(float("nan"),), (1.0,)], [(float("nan"),)]], True),
    "signed_zero": ([[(0.0,), (-0.0,), (1.5,)], [(-0.0,), (2.5,)]], False),
    "zero_float_vs_int": ([[(-0.0,), (1.5,)], [(0,), (2,)]], False),
    "big_int_vs_float": ([[(2 ** 53,), (2 ** 53 + 1,)], [(float(2 ** 53),)]], True),
    "big_int_alone": ([[(2 ** 53 + 1,), (2 ** 60,)], [(2 ** 53 + 1,)]], False),
    "int_vs_uint": ([[(1,), (5,)], [(2 ** 63,)]], True),
    "uint": ([[(2 ** 63,), (2 ** 64 - 1,)], [(2 ** 63 + 1,), (2 ** 63,)]], False),
    "bool_vs_int": ([[(True,), (False,), (True,)], [(1,), (0,), (2,)]], False),
    "float_vs_bool": ([[(1.0,), (0.5,)], [(True,), (False,)]], False),
    "strings": ([[("a",), ("b",), ("a",), ("",)], [("b",), ("zz",)]], False),
    "bytes": ([[(b"a",), (b"b",)], [(b"b",), (b"",)]], False),
    "nul_strings": ([[("a",), ("a\x00",), ("a",)], [("a\x00",), ("b",)]], True),
    "nul_bytes": ([[(b"a\x00",), (b"a",)], [(b"a",)]], True),
    "str_vs_int": ([[("1",), ("2",)], [(1,), (2,)]], True),
    "mixed_U_i": ([[("a", 1), ("b", 2), ("a", 1), ("a", 2)],
                   [("b", 2), ("c", 1)]], False),
    "mixed_U_i_vs_object": ([[("a", 1), ("b", 2)], [("a", None)]], True),
    "empty_side": ([[(5,), (1,), (5,)], []], False),
    "empty_first_side": ([[], [("x",), ("y",)]], False),
    "both_empty": ([[], []], False),
    "radix_overflow": ([[(0, 0, 1), (2 ** 40, 2 ** 30, 2), (0, 2 ** 30, 1),
                         (2 ** 40, 0, 2)], [(0, 0, 1), (7, 5, 2)]], False),
    "wide_int": ([[(-(2 ** 62), 1), (2 ** 62, 1), (0, 2)], [(2 ** 62, 1)]], False),
    "wide_digit": ([[(0, 0), (1, 2 ** 61)], [(1, 2 ** 61), (0, 5)]], False),
}


def key_names(sides):
    width = next((len(k) for side in sides for k in side), 1)
    return [f"k{i}" for i in range(width)]


def side_arrays(side, width):
    """One side's key columns as the batches hold them."""
    return [column_to_array([k[i] for k in side]) for i in range(width)]


def dict_numbering(sides):
    """The row path's dict numbering of every side's key tuples."""
    index = {}
    ids = [index.setdefault(k, len(index)) for side in sides for k in side]
    return ids, list(index)


def keyed(side, names, extra="v", key=None):
    schema = Schema(list(names) + [extra])
    rows = [tuple(k) + (float(i),) for i, k in enumerate(side)]
    return Relation(schema, rows, key=key)


def both_engines(expr, leaves):
    """``repr`` rows of ``expr`` under the columnar and the row engine."""
    out = []
    for enabled in (True, False):
        old = set_columnar_enabled(enabled)
        try:
            rel = evaluate(expr, dict(leaves))
            out.append([tuple(map(repr, r)) for r in rel.rows])
        finally:
            set_columnar_enabled(old)
    return out


cases = pytest.mark.parametrize("name", sorted(CASES))


@cases
def test_coder_numbers_keys_as_a_dict_does(name):
    sides, refused = CASES[name]
    width = len(key_names(sides))
    packed = pack([side_arrays(side, width) for side in sides])
    assert (packed is None) == refused
    want_ids, want_keys = dict_numbering(sides)
    batches = [keyed(side, key_names(sides)).columnar() for side in sides]
    ids, columns = key_groups(batches, key_names(sides))
    assert ids.tolist() == want_ids
    for i, col in enumerate(columns):
        # Each key column is the conversion of the dict's keys' values.
        want = column_to_array([k[i] for k in want_keys])
        assert col.dtype == want.dtype, (i, col.dtype, want.dtype)
    keys = list(zip(*[col.tolist() for col in columns]))
    assert [tuple(map(repr, k)) for k in keys] == [
        tuple(map(repr, k)) for k in want_keys]
    if refused:
        return
    codes, _ = packed
    dense_ids, first = dense(codes)
    assert dense_ids.tolist() == want_ids and len(first) == len(want_keys)
    flat = [k for side in sides for k in side]
    for i, a in enumerate(flat):
        for j, b in enumerate(flat):
            assert (codes[i] == codes[j]) == (a == b)
            try:
                less = a < b
            except TypeError:
                continue
            assert (codes[i] < codes[j]) == less


@cases
def test_key_codes_code_columns_as_key_code_codes_tuples(name):
    """The numpy form of :func:`key_code`: the packed side's own columns
    get their packed codes back; another side's rows get ``key_code``'s
    code, or -1 where it has none — or None when a column's kind is
    not the layout's."""
    sides, refused = CASES[name]
    width = len(key_names(sides))
    packed = pack([side_arrays(sides[0], width)]) if sides[0] else None
    if packed is None:
        return
    codes, layout = packed
    assert key_codes(layout, side_arrays(sides[0], width)).tolist() == (
        codes.tolist())
    for side in sides[1:]:
        got = key_codes(layout, side_arrays(side, width))
        kinds = [a.dtype.kind for a in side_arrays(side, width)]
        same = kinds == [
            "i" if values is None else values.dtype.kind
            for (_, _, values), _, _ in layout]
        assert (got is not None) == (same or not side)
        if got is not None:
            want = [key_code(layout, k) for k in side]
            assert got.tolist() == [-1 if c is None else c for c in want]


@cases
def test_grown_layout_keeps_every_code(name):
    """Raising the first column's top adds codes above the old ones and
    changes none; a squeezed or text layout, or one whose codes would
    reach 2⁶², stays as it is."""
    sides, refused = CASES[name]
    width = len(key_names(sides))
    if refused or not sides[0]:
        return
    arrays = side_arrays(sides[0], width)
    codes, layout = pack([arrays])
    (lo, hi, values), _, _ = layout[0]
    top = np.array([hi + 5 if values is None else 0])
    wide = grown(layout, top)
    flat = set(sides[0])
    if wide is layout:
        assert values is not None or any(sq is not None for _, _, sq in layout) or (
            (hi + 5 - lo + 1) * int(np.prod([s for _, s, _ in layout[1:]],
                                            dtype=object)) >= 1 << 62)
        return
    assert wide[0][0] == (lo, hi + 5, None) and wide[1:] == layout[1:]
    assert key_codes(wide, arrays).tolist() == codes.tolist()
    new = (hi + 5,) + sides[0][0][1:]
    assert new not in flat and key_code(wide, new) > int(codes.max())
    assert key_code(layout, new) is None


@pytest.mark.parametrize("name", ["radix_overflow", "wide_digit"])
def test_radix_overflow_renumbers_and_still_maps_scalar_keys(name):
    sides, _ = CASES[name]
    width = len(key_names(sides))
    codes, layout = pack([side_arrays(side, width) for side in sides])
    assert int(codes.max()) < 1 << 62
    assert any(squeeze is not None for _, _, squeeze in layout)
    flat = [k for side in sides for k in side]
    assert [key_code(layout, k) for k in flat] == codes.tolist()
    assert key_code(layout, (1,) * width) is None


@cases
def test_group_by_matches_the_row_path(name):
    sides, _ = CASES[name]
    names = key_names(sides)
    rel = keyed([k for side in sides for k in side], names)
    expr = Aggregate(BaseRel("R"), names,
                     [AggSpec("n", "count"), AggSpec("s", "sum", "v")])
    fast, slow = both_engines(expr, {"R": rel})
    assert fast == slow


@cases
@pytest.mark.parametrize("how", ["inner", "left", "right", "full"])
def test_join_matches_the_row_path(name, how):
    sides, _ = CASES[name]
    names = key_names(sides)
    left = keyed(sides[0], [f"l{n}" for n in names], "lv")
    right = keyed(sides[1], [f"r{n}" for n in names], "rv")
    expr = Join(BaseRel("L"), BaseRel("R"),
                [(f"l{n}", f"r{n}") for n in names], how=how)
    fast, slow = both_engines(expr, {"L": left, "R": right})
    assert fast == slow


@cases
def test_merge_matches_the_row_path(name):
    sides, _ = CASES[name]
    names = key_names(sides)
    # A stale view holds each key once; the change table may repeat one.
    stale = keyed(list(dict.fromkeys(sides[0])), names)
    change = keyed(sides[1], names)
    expr = Merge(BaseRel("S"), BaseRel("C"), names,
                 [Combiner(n, "group") for n in names] + [Combiner("v", "add")],
                 drop_empty=False)
    fast, slow = both_engines(expr, {"S": stale, "C": change})
    assert fast == slow


@cases
def test_alignment_matches_the_row_alignment(name):
    sides, refused = CASES[name]
    names = key_names(sides)
    clean, dirty = (keyed(side, names) for side in sides)
    got = _try_alignment(clean, dirty, names)
    if refused or any(len(set(side)) < len(side) for side in sides):
        assert got is None
        return
    n_slots, clean_pos, dirty_pos = _row_alignment(clean, dirty, names)
    assert got[0] == n_slots
    assert got[1].tolist() == clean_pos.tolist()
    assert got[2].tolist() == dirty_pos.tolist()


def probes(key):
    """``key`` and tuples a dict may or may not equate with it."""
    out = [key]
    for pos, value in enumerate(key):
        variants = [None, "1", -0.0, NAN, 2 ** 64, True]
        for convert in (float, int, bool, str):
            try:
                variants.append(convert(value))
            except (TypeError, ValueError, OverflowError):
                pass
        out.extend(key[:pos] + (v,) + key[pos + 1:] for v in variants)
    return out + [key[:-1], key + (0,)]


@cases
def test_key_index_finds_what_a_dict_finds(name):
    sides, refused = CASES[name]
    names = key_names(sides)
    for side in sides:
        rel = keyed(side, names, key=tuple(names))
        index = KeyIndex(rel)
        assert (index._layout is not None) == (
            pack([side_arrays(side, len(names))]) is not None)
        by_key = {}
        for pos, k in enumerate(side):
            by_key.setdefault(k, []).append(pos)
        for key in side or [(1,) * len(names)]:
            for k in probes(key):
                assert list(index.positions(k)) == by_key.get(k, []), k


@cases
def test_patched_key_index_finds_what_a_dict_finds(name):
    """Two periods — every other row dropped and the other side's rows
    appended, then the first row dropped and the first side's appended
    again — patch the index (or re-pack it, where a tail column changed
    kind); it finds what a dict of lists over the rows finds."""
    sides, _ = CASES[name]
    names = key_names(sides)
    rel = keyed(sides[0], names, key=tuple(names))
    rel.key_lookup()
    for drop, side in ((range(0, len(rel), 2), sides[1]), ([0], sides[0])):
        drop = [p for p in drop if p < len(rel)]
        rel = rel.patched(drop, keyed(side, names, key=tuple(names)))
        index = rel._sample_cache["__keyindex__"]
        by_key = {}
        for pos, row in enumerate(rel.rows):
            by_key.setdefault(row[:len(names)], []).append(pos)
        for key in [k for s in sides for k in s] or [(1,) * len(names)]:
            for k in probes(key):
                assert list(index.positions(k)) == by_key.get(k, []), k


def test_key_index_probe_of_the_same_nan_object():
    rel = keyed([(NAN,), (1.0,)], ["k"], key=("k",))
    index = KeyIndex(rel)
    assert index._layout is None
    assert index.positions((NAN,)) == [0]
    assert index.positions((float("nan"),)) == ()
    assert np.isnan(rel.rows[index.last((NAN,))][0])


def reprs(rows):
    return [tuple(map(repr, r)) for r in rows]


def key_sets(sides):
    """Sets to probe one side's rows with: the other side's keys (first;
    the coder refuses them only where it refuses the table entry), them
    with tuples of other widths or non-tuples mixed in, and each probe of
    a row's key on its own — a dict may or may not equate it with the
    row's key."""
    rows, other = sides
    width = len(key_names(sides))
    out = [frozenset(other), frozenset(other) | {(1,) * (width + 1), ()},
           frozenset(other) | {None, "k"}]
    for key in rows[:2]:
        out.extend(frozenset([k]) for k in probes(key))
    return out


@cases
def test_key_set_probe_finds_what_a_set_finds(name):
    sides, refused = CASES[name]
    names = key_names(sides)
    for rows, other in (sides, sides[::-1]):
        rel = keyed(rows, names, key=tuple(names))
        for i, keys in enumerate(key_sets((rows, other))):
            want = [k in keys for k in rows]
            got = in_key_set(side_arrays(rows, len(names)), keys)
            if i == 0 and not refused:
                assert got is not None
            if got is not None:
                assert got.tolist() == want, keys
            # σ over IsIn(Tup(...)), columnar ≡ row engine ...
            expr = Select(BaseRel("R"), IsIn(Tup(*map(Col, names)), keys))
            col_rows, row_rows = both_engines(expr, {"R": rel})
            assert col_rows == row_rows
            # ... and the outlier index's split of a view by its keys.
            parts = _try_split_columns(rel, names, keys)
            assert [reprs(p.rows) for p in parts] == [
                reprs([r for r, hit in zip(rel.rows, want) if not hit]),
                reprs([r for r, hit in zip(rel.rows, want) if hit]),
            ]
