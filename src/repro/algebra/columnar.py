"""Columnar batches: the exchange format of the batch-native evaluator.

The SVC evaluator is row-oriented because the paper's algorithms are
defined over row lineage and per-row hashing — but the *hot loops*
(selection masks, η hashing, join build/probe, group-by reduction) are
embarrassingly data-parallel.  This module provides the columnar
execution backend:

* :class:`ColumnarRelation` — a lazy, cached column batch.  It can be
  *row-backed* (a view over an immutable
  :class:`~repro.algebra.relation.Relation`, columns extracted on first
  access), *provider-backed* (each column produced on demand by a
  closure — how operators chain batch-to-batch without rematerializing
  rows: a σ output gathers its parent's columns through the selection
  indices, a ⋈ output through the join's match indices), or
  *array-backed* (columns handed over eagerly).
* :func:`column_to_array` — value-faithful conversion of one column to a
  numpy array.  "Faithful" means ``array.tolist()`` round-trips every
  Python value unchanged: columns that numpy would silently coerce
  (``None`` → ``nan`` under older numpy, ``True`` → ``1`` next to ints,
  ``1`` → ``1.0`` next to floats, everything → ``str`` next to strings)
  fall back to object dtype instead.  This is the null-aware fallback
  that keeps :meth:`~repro.algebra.predicates.Predicate.mask` and
  :func:`key_groups` identical to the row path even over outer-join
  outputs whose padding drops columns to object dtype.
* :func:`pack` / :func:`dense` — the one key coder.  Wherever rows are
  matched on a key (γ's groups, the hash join, the change-table merge,
  set operators, the alignment of Ŝ′ with Ŝ, a relation's
  :class:`~repro.algebra.relation.KeyIndex`), :func:`pack` codes the
  key columns of every side into one order-preserving int64 per row,
  equal exactly where the row path's dict would equate the key tuples,
  or refuses (:func:`key_code` maps one key tuple through its layout,
  :func:`key_codes` another relation's key columns), and :func:`dense`
  renumbers those codes densely by first appearance.
  :func:`key_groups` is γ's use of the pair, with the row path's dict
  grouping for a key the coder refuses, and :func:`in_key_set` a
  key-set probe's use of :func:`pack`.
* :func:`grouped_starts` — the stable-sorted order and per-group start
  offsets that feed ``np.ufunc.reduceat``-style grouped reductions.
* :func:`patch_column` / :meth:`ColumnarRelation.patched` — how a base
  relation's built columns survive a maintenance period: the successor
  batch is patched from its predecessor's arrays (surviving positions +
  the inserted rows' values → fresh arrays), and a column is dropped,
  never coerced, whenever the patch could change its dtype.
* :func:`scatter_column` / :func:`concat_columns` /
  :func:`object_array` — value-faithful column surgery: overwrite rows
  of a column at index positions, stitch two column fragments together,
  and lift a Python value list to an object array without numpy scalar
  boxing.  These are the assembly primitives of operators (⋈, Merge)
  whose outputs mix gathered and computed fragments.
* :func:`pack_column_buffers` / :func:`write_column_buffers` /
  :meth:`ColumnarRelation.from_buffer` — the flat-buffer exchange
  format of the shared-memory shard transport
  (:mod:`repro.distributed.transport`): a batch's columns lay out as
  contiguous, aligned numpy buffers inside one writable buffer (a
  ``multiprocessing.shared_memory`` block), described by a tuple of
  :class:`ColumnSpec` entries.  Columns that only exist as object
  arrays (``None``-bearing, mixed-type, big-int) cannot be shared as
  raw buffers and fall back to an embedded pickle of their Python
  values — the manifest marks them ``kind="pickle"`` so attach
  round-trips every value exactly.  Attached typed columns are
  zero-copy views over the shared block, marked read-only so no
  operator can scribble on memory other processes see.

The evaluator treats every columnar path as a *fast path with a row
fallback*: any value that does not vectorize cleanly (``None``-bearing
columns under arithmetic, opaque :class:`~repro.algebra.predicates.Func`
terms, exotic Python objects) drops back to the reference row loop, so
results are identical by construction.  Integer arithmetic that could
overflow an int64 is likewise routed back to the row path, where Python's
arbitrary-precision integers define the semantics.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.algebra.predicates import _FLOAT_EXACT, _INT64_SAFE, _int_bound

__all__ = [
    "ColumnSpec",
    "ColumnarRelation",
    "as_object_array",
    "column_to_array",
    "concat_column_parts",
    "concat_columns",
    "dense",
    "grouped_starts",
    "in_key_set",
    "key_code",
    "key_groups",
    "object_array",
    "pack",
    "pack_column_buffers",
    "patch_column",
    "rows_at",
    "scatter_column",
    "served",
    "write_column_buffers",
]

#: Python value types whose round trip through a typed numpy array of the
#: matching kind is exact (``tolist`` restores an equal value of the same
#: Python type).
_FAITHFUL_TYPES = {
    "b": {bool},
    "i": {int},
    "u": {int},
    "f": {float},
    "U": {str},
    "S": {bytes},
}


def rows_at(rows: list, positions: np.ndarray) -> list:
    """``rows`` at ``positions``, in that order (one C-speed gather)."""
    if len(positions) < 2:
        return [rows[p] for p in positions]
    return list(itemgetter(*positions.tolist())(rows))


def column_to_array(values: Sequence) -> np.ndarray:
    """One column as a 1-D numpy array, falling back to object dtype.

    The result is *value-faithful*: ``column_to_array(v).tolist() == v``
    with every element's Python type preserved.  ``np.asarray`` infers
    int64/float64/bool dtypes for uniform numeric columns, but silently
    coerces mixed ones — ``[True, 2]`` flattens to int64 (dropping the
    bool), ``[1, 2.5]`` to float64 (dropping the int), ``['', 0]``
    stringifies the int, older numpy turns ``[None, 1.0]`` into
    ``[nan, 1.0]``, and a ``U`` / ``S`` array drops a value's trailing
    NULs (``"a\\x00"`` reads back ``"a"``).  Any such column — along with
    ragged, oversized-int, and numpy-scalar-bearing ones — becomes an
    object array instead, so every Python value round-trips unchanged.
    Faithfulness is what lets provider-backed batches reconstruct rows,
    group keys, and η hash inputs that are bit-identical to the row
    path.
    """
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == 1:
        kind = arr.dtype.kind
        if kind == "O":
            return arr
        allowed = _FAITHFUL_TYPES.get(kind)
        # set(map(type, ...)) is the cheapest full-column type scan: one
        # C-level pass that also catches None (NoneType ∉ allowed) and
        # numpy scalars (np.int64 ∉ allowed).
        if allowed is not None and set(map(type, values)) <= allowed and (
                kind not in "US" or not _dropped_nul(values, arr)):
            return arr
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def _dropped_nul(strings: Sequence, arr: np.ndarray) -> bool:
    """Whether the ``U`` / ``S`` array ``arr`` of ``strings`` lost a
    value's trailing NULs (numpy strips them): a length count, with no
    copy of the text."""
    return sum(map(len, strings)) != int(np.char.str_len(arr).sum())


def as_object_array(arr: np.ndarray) -> np.ndarray:
    """Copy ``arr`` to object dtype holding *Python* values.

    ``arr.astype(object)`` would box numpy scalars (``np.int64`` is not a
    Python ``int``, so η's key encoding and ``isinstance`` checks would
    diverge from the row path); going through ``tolist`` converts each
    element to its native Python type instead.
    """
    out = np.empty(len(arr), dtype=object)
    if len(arr):
        out[:] = arr.tolist() if arr.dtype != object else arr
    return out


def patch_column(base: np.ndarray, keep, tail) -> Optional[np.ndarray]:
    """``column_to_array(survivors + inserted)`` from a built column.

    ``base`` is a column :func:`column_to_array` built, ``keep`` the
    surviving row positions (``None``: every row survives) and ``tail``
    the inserted values' own :func:`column_to_array` (``None``: nothing
    inserted).  The result equals converting the patched column from
    scratch — dtype and values — or is ``None`` where that cannot be
    known without rescanning it, and the column then rebuilds lazily:

    * a typed column stays typed only while every inserted value has
      its type (``tail.dtype`` must match; an int column receiving a
      float / ``None`` / string / ≥ 2⁶³ value, or bool-int mixes, drop);
    * object and unsigned columns drop on deletion — removing the one
      ``None`` or the one ≥ 2⁶³ value changes what a rebuild infers;
    * string columns are re-narrowed after deletions (numpy sizes them
      by their longest value).

    Neither input is written to.
    """
    kind = base.dtype.kind
    if kind not in "bifUSO" or (kind == "O" and keep is not None):
        return None
    out = base if keep is None else base[keep]
    if not len(out):
        return tail if tail is not None else column_to_array(())
    if kind in "US" and keep is not None:
        out = served(out)
    if tail is None:
        return out
    if tail.dtype == out.dtype or (kind in "US" and tail.dtype.kind == kind):
        return np.concatenate([out, tail])
    if kind == "O":
        # Still mixed after an append, whatever was appended.
        return concat_column_parts((out, tail))
    return None


class ColumnarRelation:
    """A cached, lazily-populated column batch.

    Three backings share one interface:

    * **row-backed** — ``ColumnarRelation(relation)``: columns are
      extracted from the relation's row tuples on first access.  Valid
      because relations are treated as immutable everywhere in the
      library (every update path builds a new ``Relation``).
    * **provider-backed** — :meth:`from_providers`: each column is built
      by a zero-argument closure when first requested.  Operators chain
      batches this way (gathers through selection/join indices) so a
      multi-operator plan only ever touches the columns it actually
      reads, and only once.
    * **array-backed** — :meth:`from_arrays`: columns handed over as
      ready numpy arrays (unpickled shard payloads, attached buffers).

    Construction is O(1) in all three cases; columns are cached after
    first materialization.  Batches may be shared between relations and
    across evaluate() calls — caches only ever grow, never mutate.
    """

    __slots__ = (
        "schema", "_rows", "_pycols", "_arrays", "_providers", "_nrows",
        "_owner",
    )

    def __init__(self, relation=None):
        self._pycols: dict = {}
        self._arrays: dict = {}
        self._providers = None
        self._owner = None
        if relation is not None:
            self.schema = relation.schema
            self._rows = relation.rows
            self._nrows = len(self._rows)
        else:
            self.schema = None
            self._rows = None
            self._nrows = 0

    @classmethod
    def from_rows(
        cls, schema, rows: list,
        providers: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
    ) -> "ColumnarRelation":
        """A row-backed batch over a list of row tuples (shared, not
        copied); each column is converted from them on first access,
        except those ``providers`` hand over ready (arrays equal to that
        conversion, built from what the caller already holds; a
        provider answering None leaves its column to the conversion)."""
        self = cls()
        self.schema = schema
        self._rows = rows
        self._nrows = len(rows)
        self._providers = providers or None
        return self

    @classmethod
    def from_providers(
        cls, schema, providers: Dict[str, Callable[[], np.ndarray]], nrows: int
    ) -> "ColumnarRelation":
        """A batch whose columns are built on demand by closures."""
        self = cls()
        self.schema = schema
        self._providers = providers
        self._nrows = int(nrows)
        return self

    @classmethod
    def from_arrays(
        cls, schema, arrays: Dict[str, np.ndarray], nrows: int
    ) -> "ColumnarRelation":
        """A batch over ready-made column arrays (one per schema column)."""
        self = cls()
        self.schema = schema
        self._arrays = dict(arrays)
        self._nrows = int(nrows)
        return self

    @classmethod
    def from_buffer(
        cls, schema, buf, specs: Sequence["ColumnSpec"], nrows: int,
        owner=None,
    ) -> "ColumnarRelation":
        """Attach a batch to a packed column buffer (zero-copy).

        ``buf`` is the writable buffer :func:`write_column_buffers`
        filled (typically ``SharedMemory.buf``); ``specs`` is the layout
        :func:`pack_column_buffers` produced.  Typed columns become
        numpy views straight over ``buf`` — no bytes are copied — and
        are marked read-only, because the underlying memory may be
        mapped by several processes at once.  ``kind="pickle"`` columns
        (the object-dtype fallback) are unpickled into object arrays,
        which is a copy by necessity.

        ``owner`` (e.g. the ``SharedMemory`` handle behind ``buf``) is
        pinned on the batch for the batch's lifetime.  This matters for
        soundness, not just hygiene: numpy does *not* hold the buffer
        exported after array creation, so an owner that gets
        garbage-collected (its ``__del__`` closes the mapping) while
        views still point into the memory would leave dangling pointers.
        Pinning the owner here means every batch — and every derived
        batch, whose providers capture this one — keeps the mapping
        alive, and the handle closes via refcounting exactly when the
        last user is gone.
        """
        arrays: Dict[str, np.ndarray] = {}
        for spec in specs:
            if spec.kind == "pickle":
                values = pickle.loads(
                    bytes(buf[spec.offset:spec.offset + spec.nbytes])
                )
                arrays[spec.name] = object_array(values)
            else:
                arr = np.ndarray(
                    (nrows,),
                    dtype=np.dtype(spec.dtype),
                    buffer=buf,
                    offset=spec.offset,
                )
                arr.flags.writeable = False
                arrays[spec.name] = arr
        self = cls.from_arrays(schema, arrays, nrows)
        self._owner = owner
        return self

    @property
    def nrows(self) -> int:
        """Number of rows in the batch."""
        return self._nrows

    @property
    def row_backed(self) -> bool:
        """True for a batch built over row tuples — fixed at
        construction, whatever has been cached since."""
        return self._rows is not None

    def pycolumn(self, name: str) -> list:
        """One column as a plain Python list, in row order (cached).

        Row-backed batches extract straight from the row tuples; other
        backings convert the column array via ``tolist`` — exact, because
        :func:`column_to_array` guarantees value-faithful arrays.
        """
        col = self._pycols.get(name)
        if col is None:
            col = self._pycols[name] = self.pyvalues(name)
        return col

    def pyvalues(self, name: str) -> list:
        """One column as Python values, like :meth:`pycolumn`, but not
        kept: for a caller that reads them once (an opaque function's
        arguments, a key-set probe's tuples)."""
        col = self._pycols.get(name)
        if col is not None:
            return col
        if self._rows is not None:
            i = self.schema.index(name)
            return [row[i] for row in self._rows]
        return self.array(name).tolist()

    def array(self, name: str) -> np.ndarray:
        """One column as a numpy array (cached; object dtype fallback).

        The intermediate Python list is *not* cached here — only callers
        that need Python values (η hashing, dict grouping) pay for a
        retained list via :meth:`pycolumn`, so array-only access does
        not double the column's resident memory.
        """
        arr = self._arrays.get(name)
        if arr is not None:
            return arr
        providers = self._providers
        if providers is not None:
            provider = providers.get(name)
            if provider is not None:
                arr = provider()
                # Cache first, then release the provider: the closure
                # captures the parent batches (a σ output holds its
                # child, a merge output the stale view and change
                # table), so keeping it would chain every maintenance
                # round's batch to the previous round's — an unbounded
                # leak for long-lived views.  Batches may be shared
                # across threads, so the release is race-tolerant: a
                # concurrent reader at worst re-runs the provider
                # (idempotent) — pop() never raises and the cache was
                # written before the provider disappeared.  A row-backed
                # batch's provider may answer None: convert the rows.
                if arr is not None:
                    self._arrays[name] = arr
                providers.pop(name, None)
                if not providers:
                    self._providers = None
                if arr is not None:
                    return arr
        # No pending provider: cached concurrently, row-backed, or a
        # genuinely unknown column.
        arr = self._arrays.get(name)
        if arr is not None:
            return arr
        if self._rows is None:
            raise KeyError(f"batch has no column {name!r}")
        col = self._pycols.get(name)
        if col is None:
            i = self.schema.index(name)
            col = [row[i] for row in self._rows]
        arr = column_to_array(col)
        self._arrays[name] = arr
        return arr

    def arrays(self, names: Sequence[str]) -> list:
        """Arrays for several columns, in the given order."""
        return [self.array(n) for n in names]

    # ------------------------------------------------------------------
    # Batch-to-batch derivations (the operator chaining primitives)
    # ------------------------------------------------------------------
    def take(self, indices) -> "ColumnarRelation":
        """A batch gathering the given row positions, columns on demand.

        This is how σ and η outputs chain without rebuilding rows: the
        child batch plus an index vector *is* the output; each column is
        gathered (one numpy fancy-index) only if something reads it.
        """
        idx = np.asarray(indices, dtype=np.intp)

        def gather(name):
            def build():
                return self.array(name)[idx]

            return build

        providers = {name: gather(name) for name in self.schema.columns}
        return ColumnarRelation.from_providers(self.schema, providers, len(idx))

    def patched(self, rows: list, keep, tail: "ColumnarRelation"):
        """The row-backed batch of a relation patched from this one.

        ``rows`` is the successor's row list: this batch's rows at the
        positions ``keep`` (``None``: all of them) followed by ``tail``'s.
        Every column array built or asked for here is handed over
        through :func:`patch_column`, so the next period converts only
        the rows it inserted.  The successor holds them as ready
        providers: a column nobody asks for during its period is not
        handed on again, so what is carried is the working set of the
        maintenance plans, not every column ever converted.  Columns
        never built (or dropped by the dtype rule) stay lazy.
        """
        providers = {}
        for name, base in list(self._arrays.items()):
            arr = patch_column(
                base, keep, tail.array(name) if tail.nrows else None
            )
            if arr is not None:
                providers[name] = lambda arr=arr: arr
        return ColumnarRelation.from_rows(self.schema, rows, providers)

    def materialize_rows(self) -> list:
        """The batch as a list of row tuples (the evaluator-boundary
        conversion — the only place columns turn back into rows)."""
        if self._rows is not None:
            return list(self._rows)
        if not len(self.schema):
            return [()] * self._nrows
        cols = []
        for name in self.schema.columns:
            got = self._pycols.get(name)
            cols.append(got if got is not None else self.array(name).tolist())
        return list(zip(*cols))

    def __repr__(self) -> str:
        backing = (
            "rows"
            if self._rows is not None
            else ("providers" if self._providers is not None else "arrays")
        )
        return (
            f"<ColumnarRelation cols={list(self.schema.columns)} "
            f"rows={self.nrows} backing={backing} cached={sorted(self._arrays)}>"
        )


def _exact_int(value) -> Optional[int]:
    """The int a dict lookup would equate ``value`` with, if any
    (``3.0`` and ``True`` find the key ``3`` / ``1``; ``"3"`` does not)."""
    if type(value) is int:
        return value
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


def _find(ordered: np.ndarray, value) -> Optional[int]:
    """The position of ``value`` in the sorted array ``ordered``, or None."""
    if value is None:
        return None
    try:
        at = int(ordered.searchsorted(value))
        return at if at < len(ordered) and ordered[at] == value else None
    except (TypeError, ValueError, OverflowError):
        return None


def _digits(parts: Sequence[np.ndarray]):
    """One key column's order-preserving digits over every side, with
    their span and coding — ``(lo, hi, None)`` for ``value − lo``,
    ``(None, None, values)`` for the index into the sorted distinct
    ``values`` — or None where the row path's dict equality cannot be
    read off the arrays."""
    kinds = {p.dtype.kind for p in parts}
    if not kinds <= set("biuf") and kinds != {"U"} and kinds != {"S"}:
        return None  # object dtype, or a cross-kind pair numpy would coerce
    if "f" in kinds:
        if any(p.dtype.kind == "f" and bool(np.isnan(p).any()) for p in parts):
            return None  # row-wise a NaN equals only the very same object
        if any(p.dtype.kind in "biu" and _int_bound(p) >= _FLOAT_EXACT
               for p in parts):
            return None  # float64 would collapse distinct ints
    combo = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if combo.dtype.kind == "f" and "f" not in kinds and max(
            _int_bound(p) for p in parts) >= _FLOAT_EXACT:
        return None  # int64 against uint64 promotes to float64
    if combo.dtype.kind == "i" and len(combo):
        lo, hi = int(combo.min()), int(combo.max())
        if hi - lo < _INT64_SAFE:
            return combo - lo, hi - lo + 1, (lo, hi, None)
    values, digits = np.unique(combo, return_inverse=True)
    return digits, len(values), (None, None, values)


def pack(sides: Sequence[Sequence[np.ndarray]]):
    """Every side's key rows as one order-preserving int64 code each.

    ``sides`` holds, per side, its key columns' arrays, aligned by
    position.  Returns ``(codes, layout)`` — the codes of all sides'
    rows in turn, equal exactly where the row path's dict would equate
    the key tuples, and the layout :func:`key_code` maps one key tuple
    through — or None where the arrays cannot say what the dict would:
    an object column, a NaN-bearing float column, an int/float pair
    with an int at or above 2⁵³ (or int64 against uint64 there), or a
    cross-kind pair.  Each column is coded over every side at once (an
    int64 column as ``value − lo``, any other through one 1-D
    ``np.unique``); the columns fold mixed-radix, the first the most
    significant.  Where the running radix would reach 2⁶², the code so
    far and the column's digits are renumbered densely first, so their
    product stays below the square of the row count.  An empty side's
    dtype says nothing.
    """
    if not sides[0]:
        return None
    lengths = [len(side[0]) for side in sides]
    columns = []
    code = None
    radix = 1
    for pos in range(len(sides[0])):
        got = _digits(
            [side[pos] for side, n in zip(sides, lengths) if n] or [sides[0][pos]])
        if got is None:
            return None
        digits, span, coding = got
        squeeze = None
        if code is not None and radix * span >= _INT64_SAFE:
            running, code = np.unique(code, return_inverse=True)
            own, digits = np.unique(digits, return_inverse=True)
            radix, span, squeeze = len(running), len(own), (running, own)
        code = digits if code is None else code * span + digits
        radix *= span
        columns.append((coding, span, squeeze))
    return code.astype(np.int64, copy=False), columns


def key_code(layout: list, key: tuple) -> Optional[int]:
    """The code :func:`pack` gave, under ``layout``, to keys equal to
    ``key`` — equal as the row path's dict equates them — or None when
    no packed row can hold it."""
    if len(key) != len(layout):
        return None
    code = 0
    for value, ((lo, hi, values), span, squeeze) in zip(key, layout):
        if values is None:
            digit = _exact_int(value)
            if digit is None or not lo <= digit <= hi:
                return None
            digit -= lo
        else:
            digit = _find(values, _as_kind(value, values.dtype.kind))
        if squeeze is not None and digit is not None:
            code, digit = _find(squeeze[0], code), _find(squeeze[1], digit)
        if code is None or digit is None:
            return None
        code = code * span + digit
    return code


def key_codes(layout: list, columns: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """:func:`key_code` for every row of the key ``columns``, in numpy:
    a row's code, or -1 where no packed row can hold its key — or None
    where a column's kind is not the one the layout was packed from."""
    code = np.zeros(len(columns[0]), dtype=np.int64)
    if not len(code):
        return code  # an empty column's dtype says nothing
    found = np.ones(len(code), dtype=bool)
    for arr, ((lo, hi, values), span, squeeze) in zip(columns, layout):
        if arr.dtype.kind != ("i" if values is None else values.dtype.kind):
            return None
        if values is None:
            found &= (arr >= lo) & (arr <= hi)
            digit = arr - lo
        else:
            digit = _found(values, arr, found)
        if squeeze is not None:
            code = _found(squeeze[0], code, found)
            digit = _found(squeeze[1], digit, found)
        code = code * span + digit
    return np.where(found, code, -1)


def in_key_set(columns: Sequence[np.ndarray], keys) -> Optional[np.ndarray]:
    """Which rows of the key ``columns`` hold a tuple of the set
    ``keys``, as ``key in keys`` decides it — or None where the coder
    refuses (an object column, a NaN, a cross-kind pair) or a member is
    not a plain tuple.  The members' columns are packed with the rows'
    (:func:`pack`) and the rows' codes looked up in theirs with
    ``np.isin``; a tuple of another width equals no row."""
    if any(type(k) is not tuple for k in keys):
        return None
    width = len(columns)
    keys = [k for k in keys if len(k) == width]
    n = len(columns[0])
    if not keys:
        return np.zeros(n, dtype=bool)
    packed = pack([columns, [column_to_array([k[i] for k in keys])
                             for i in range(width)]])
    if packed is None:
        return None
    return np.isin(packed[0][:n], packed[0][n:])


def grown(layout: list, first: np.ndarray) -> list:
    """``layout`` with the ``value − lo`` range of its first column
    raised to ``first``'s largest value, where no code changes by it:
    the first column is the most significant, so a higher top only adds
    codes above the old ones — unless a column was renumbered densely
    (its squeeze holds the old codes) or the codes would reach 2⁶²."""
    (lo, hi, values), span, _ = layout[0]
    if values is not None or first.dtype.kind != "i" or not len(first) or any(
            squeeze is not None for _, _, squeeze in layout):
        return layout
    top = int(first.max())
    rest = math.prod(span for _, span, _ in layout[1:])
    if top <= hi or (top - lo + 1) * rest >= _INT64_SAFE:
        return layout
    return [((lo, top, None), top - lo + 1, None)] + layout[1:]


def _found(ordered: np.ndarray, arr: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Positions of ``arr``'s values in the sorted ``ordered``; clears
    ``found`` where a value is not there."""
    at = ordered.searchsorted(arr)
    if not len(ordered):
        found[:] = False
        return at
    found &= ordered[np.minimum(at, len(ordered) - 1)] == arr
    return at


def _as_kind(value, kind: str):
    """``value`` as an element of a ``kind`` array it would equal in a
    dict, or None (``1.0`` is the bool ``True``, ``"1"`` no number)."""
    if kind in "US":
        return value if isinstance(value, str if kind == "U" else bytes) else None
    if kind == "f":
        try:
            as_float = float(value)
        except (TypeError, ValueError, OverflowError):
            return None
        return as_float if as_float == value else None
    as_int = _exact_int(value)
    if kind == "b":
        return bool(as_int) if as_int in (0, 1) else None
    return as_int if as_int is not None and (kind != "u" or as_int >= 0) else None


def dense(codes: np.ndarray):
    """Packed ``codes`` as dense ids numbered by first appearance.

    One 1-D ``np.unique``: returns ``(ids, first)`` where ``ids[i]`` is
    row ``i``'s key id and ``first[k]`` the row where key ``k`` first
    appears — ascending, so ``len(first)`` is the key count and the
    numbering is the one a dict filled in row order gives.  The first
    rows come from ``np.minimum.at``, not ``return_index``, which would
    force a stable sort at twice the cost.
    """
    values, inverse = np.unique(codes, return_inverse=True)
    first = np.full(len(values), len(codes), dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(len(codes), dtype=np.intp))
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[order] = np.arange(len(first), dtype=np.intp)
    return rank[inverse], first[order]


def key_groups(batches: Sequence["ColumnarRelation"], names: Sequence[str]):
    """Group ids over several batches in one numbering, and the groups'
    key columns.

    Returns ``(ids, columns)``: ``ids`` numbers the key tuples of every
    batch's rows in turn, by first appearance, and ``columns[i][g]`` is
    key column ``i`` of group ``g`` as its first row holds it — exactly
    the dict grouping of the row path, which a key :func:`pack` refuses
    still takes, over the batches' Python values.  Each column equals
    :func:`column_to_array` of those values, dtype included: a coded
    column is the first rows' gather (:func:`served`), a dict-numbered
    one the conversion of its keys.
    """
    sides = [batch.arrays(names) for batch in batches]
    packed = pack(sides)
    if packed is None:
        index: dict = {}
        pycols = [chain.from_iterable([b.pycolumn(n) for b in batches])
                  for n in names]
        ids = np.fromiter(
            (index.setdefault(k, len(index)) for k in zip(*pycols)),
            dtype=np.intp, count=sum(b.nrows for b in batches),
        )
        columns = list(zip(*index)) or [()] * len(names)
        return ids, [column_to_array(list(col)) for col in columns]
    ids, first = dense(packed[0])
    offsets = np.cumsum([0] + [b.nrows for b in batches])
    bounds = np.searchsorted(first, offsets)
    columns = [
        served(concat_column_parts([
            side[pos][first[lo:hi] - off]
            for side, lo, hi, off in zip(sides, bounds, bounds[1:], offsets)
        ]))
        for pos in range(len(names))
    ]
    return ids, columns


def served(arr: np.ndarray) -> np.ndarray:
    """``column_to_array(arr.tolist())``, without the round trip where
    the dtype says it changes nothing.

    For an array computed from, or gathered out of, value-faithful
    columns: an int64, float64 or bool array is its own conversion; a
    ``U`` / ``S`` gather keeps its source's width, so it is re-narrowed
    to its longest value (numpy sizes a conversion by that, and never
    below 1); a uint64 array may have lost its one value ≥ 2⁶³, and an
    object array its one odd value, so both — and any other dtype —
    are converted.
    """
    kind = arr.dtype.kind
    if arr.dtype in (np.int64, np.float64, np.bool_):
        return arr
    if kind in "US" and len(arr):
        width = max(int(np.char.str_len(arr).max()), 1)
        return arr.astype(f"{kind}{width}", copy=False)
    return column_to_array(arr.tolist())


def grouped_starts(gid: np.ndarray, counts: np.ndarray):
    """Stable row order and reduceat start offsets for grouped reduction.

    Returns ``(order, starts)``: ``order`` sorts rows by group id while
    preserving row order within each group, and ``starts[g]`` is the
    offset of group ``g``'s first row in that order — the shape
    ``np.ufunc.reduceat`` wants.
    """
    order = np.argsort(gid, kind="stable")
    starts = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return order, starts


def object_array(values: Sequence) -> np.ndarray:
    """A Python value list as an object array (no numpy scalar boxing).

    ``np.asarray(values, dtype=object)`` broadcasts sequence elements
    (a list of tuples becomes 2-D); filling an empty object array keeps
    every element — whatever its type — as one cell.
    """
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def scatter_column(base: np.ndarray, idx: np.ndarray, values) -> np.ndarray:
    """A copy of column ``base`` with ``values`` written at rows ``idx``.

    ``values`` may be a numpy array or a list of Python values (the
    per-combiner row fallback of the columnar merge produces lists).
    Same-dtype scatters stay typed; anything else drops the whole column
    to object dtype holding Python values, so mixed results (a float
    delta replacing an int cell) round-trip exactly like the row path's.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == base.dtype
        and base.dtype.kind != "O"
    ):
        out = base.copy()
        out[idx] = values
        return out
    out = as_object_array(base)
    if isinstance(values, np.ndarray):
        values = values.tolist() if values.dtype != object else values
    out[idx] = object_array(list(values))
    return out


def concat_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two column fragments without corrupting values.

    Same-dtype fragments (and string pairs, where only the item size
    differs) concatenate directly; anything else goes through an object
    array of Python values — ``np.concatenate`` would happily promote
    int64+float64 to float64 and turn the int fragment's values into
    floats the row path never produced.
    """
    return concat_column_parts((a, b))


#: Column start offsets inside a packed buffer are aligned to this many
#: bytes so attached numpy views never straddle element boundaries.
BUFFER_ALIGN = 16


@dataclass(frozen=True)
class ColumnSpec:
    """Layout of one column inside a packed flat buffer.

    ``kind`` is ``"array"`` for a raw numpy buffer (``dtype`` carries the
    full dtype string, byte order included) or ``"pickle"`` for the
    object-column fallback, whose bytes are a pickle of the column's
    Python value list.
    """

    name: str
    kind: str
    dtype: Optional[str]
    offset: int
    nbytes: int


def pack_column_buffers(batch: ColumnarRelation):
    """Plan the flat-buffer export of a batch's columns.

    Returns ``(specs, total_nbytes, chunks)``: one :class:`ColumnSpec`
    per schema column, the buffer size that holds them all (aligned),
    and the per-column payloads — a contiguous numpy array for typed
    columns, pickled bytes for object columns.  The caller allocates a
    buffer of ``total_nbytes`` (usually a ``SharedMemory`` block) and
    fills it with :func:`write_column_buffers`; the specs alone are
    enough for :meth:`ColumnarRelation.from_buffer` to attach.

    Because :func:`column_to_array` is value-faithful, any column that
    reaches the ``"array"`` branch round-trips exactly through its raw
    buffer; everything numpy cannot represent losslessly is an object
    array here and takes the pickle fallback.
    """
    specs = []
    chunks = []
    offset = 0
    for name in batch.schema.columns:
        arr = batch.array(name)
        if arr.dtype.kind == "O":
            payload = pickle.dumps(arr.tolist(), protocol=pickle.HIGHEST_PROTOCOL)
            spec = ColumnSpec(name, "pickle", None, offset, len(payload))
            chunks.append(payload)
        else:
            arr = np.ascontiguousarray(arr)
            spec = ColumnSpec(name, "array", arr.dtype.str, offset, arr.nbytes)
            chunks.append(arr)
        specs.append(spec)
        offset += spec.nbytes
        offset += (-offset) % BUFFER_ALIGN
    return tuple(specs), offset, chunks


def write_column_buffers(buf, specs: Sequence[ColumnSpec], chunks) -> None:
    """Copy packed column payloads into ``buf`` at their spec offsets."""
    for spec, chunk in zip(specs, chunks):
        if spec.kind == "pickle":
            buf[spec.offset:spec.offset + spec.nbytes] = chunk
        elif spec.nbytes:
            dst = np.ndarray(
                chunk.shape, dtype=chunk.dtype, buffer=buf, offset=spec.offset
            )
            dst[:] = chunk


def concat_column_parts(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate many column fragments value-faithfully, in one pass.

    The multi-way form matters for sharded results: pairwise
    concatenation of k shard columns would re-copy the growing prefix
    k−1 times; this is one linear pass regardless of k.
    """
    if len(parts) == 1:
        return parts[0]
    first = parts[0].dtype
    if all(p.dtype == first for p in parts) or (
        first.kind in "US" and all(p.dtype.kind == first.kind for p in parts)
    ):
        return np.concatenate(parts)
    out = np.empty(sum(len(p) for p in parts), dtype=object)
    pos = 0
    for p in parts:
        if len(p):
            out[pos:pos + len(p)] = p.tolist() if p.dtype != object else p
        pos += len(p)
    return out
