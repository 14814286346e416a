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
  :func:`group_ids` identical to the row path even over outer-join
  outputs whose padding drops columns to object dtype.
* :func:`group_ids` — dense group identifiers for a group-by key, in
  first-appearance order (exactly the order the row-at-a-time dict
  grouping produces), via ``np.unique`` when the key columns are
  integer/bool/string and a Python dict otherwise.
* :func:`grouped_starts` — the stable-sorted order and per-group start
  offsets that feed ``np.ufunc.reduceat``-style grouped reductions.
* :func:`factorize_key_codes` — dense integer key codes for a pair of
  batches over (possibly multi-column) key attributes: one ``np.unique``
  over the concatenated values per column pair, re-factorized for
  multi-column keys.  The vectorized hash join builds/probes on these
  codes and the columnar change-table merge matches stale-view rows to
  change rows with them — both share the same fallback triggers.
* :func:`int_key_radix` / :func:`pack_int_key` — the one mixed-radix
  packer of machine-integer keys into int64 codes, shared by
  :class:`~repro.algebra.relation.KeyIndex` and the set operators'
  candidate search.
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

import pickle
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence

import numpy as np

__all__ = [
    "ColumnSpec",
    "ColumnarRelation",
    "as_object_array",
    "column_to_array",
    "concat_column_parts",
    "concat_columns",
    "factorize_key_codes",
    "group_ids",
    "grouped_starts",
    "int_key_radix",
    "object_array",
    "pack_column_buffers",
    "pack_int_key",
    "patch_column",
    "rows_at",
    "scatter_column",
    "write_column_buffers",
]

#: dtype kinds that vectorize for arithmetic/comparison fast paths.
NUMERIC_KINDS = "biuf"

#: dtype kinds safe for exact group-key round-tripping (no int/float or
#: precision collapse): bool, signed/unsigned int, unicode, bytes.
GROUPABLE_KINDS = "biuUS"

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
    stringifies the int, and older numpy turns ``[None, 1.0]`` into
    ``[nan, 1.0]``.  Any such column — along with ragged, oversized-int,
    and numpy-scalar-bearing ones — becomes an object array instead, so
    every Python value round-trips unchanged.  Faithfulness is what lets
    provider-backed batches reconstruct rows, group keys, and η hash
    inputs that are bit-identical to the row path.
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
        if allowed is not None and set(map(type, values)) <= allowed:
            return arr
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


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
        width = max(int(np.char.str_len(out).max()), 1)
        out = out.astype(f"{kind}{width}", copy=False)
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
        conversion, built from what the caller already holds)."""
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
                # written before the provider disappeared.
                self._arrays[name] = arr
                providers.pop(name, None)
                if not providers:
                    self._providers = None
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


def _first_appearance(uniq, first, inv):
    """Remap ``np.unique`` output (sorted order) to first-appearance order."""
    perm = np.argsort(first, kind="stable")
    rank = np.empty(len(perm), dtype=np.intp)
    rank[perm] = np.arange(len(perm), dtype=np.intp)
    gid = rank[np.asarray(inv).reshape(-1)]
    return gid, uniq[perm]


def group_ids(cols: ColumnarRelation, names: Sequence[str]):
    """Dense group ids + group-key tuples for a group-by key.

    Returns ``(gid, group_keys)`` where ``gid[i]`` is the group of row
    ``i`` and ``group_keys[g]`` is the key tuple of group ``g``; groups
    are numbered in first-appearance (row) order, matching the dict
    grouping of the row-at-a-time path.  Because :func:`column_to_array`
    is value-faithful, a typed array here is guaranteed free of Python
    values that numpy would have coerced (``None``, stray bools among
    ints), so the ``np.unique`` path emits exactly the row path's keys;
    everything else — including ``None``-bearing columns — takes the
    exact dict fallback.
    """
    arrays = cols.arrays(names)
    if len(arrays) == 1 and arrays[0].dtype.kind in GROUPABLE_KINDS:
        uniq, first, inv = np.unique(
            arrays[0], return_index=True, return_inverse=True
        )
        gid, ordered = _first_appearance(uniq, first, inv)
        return gid, [(k,) for k in ordered.tolist()]
    kinds = {a.dtype.kind for a in arrays}
    if len(arrays) > 1 and len(kinds) == 1 and kinds <= set("biu"):
        # One kind only: np.stack on mixed bool/int columns would promote
        # bools to 0/1 and change the emitted group-key values.
        stacked = np.stack(arrays, axis=1)
        uniq, first, inv = np.unique(
            stacked, axis=0, return_index=True, return_inverse=True
        )
        gid, ordered = _first_appearance(uniq, first, inv)
        return gid, [tuple(r) for r in ordered.tolist()]
    # Exact fallback: Python values as dict keys, like the row path.
    pycols = [cols.pycolumn(n) for n in names]
    n = len(pycols[0])
    gid = np.empty(n, dtype=np.intp)
    mapping: dict = {}
    keys: list = []
    for i, key in enumerate(zip(*pycols)):
        g = mapping.get(key)
        if g is None:
            g = len(keys)
            mapping[key] = g
            keys.append(key)
        gid[i] = g
    return gid, keys


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


def factorize_key_codes(abatch, bbatch, acols, bcols):
    """Dense integer key codes for two batches, or None to fall back.

    Each key column pair is factorized with one ``np.unique`` over the
    concatenated values of both batches; multi-column keys re-factorize
    the stacked per-column codes.  Returns ``(acodes, bcodes, n_keys)``
    where equal codes mean "these rows match on the key" — the building
    block of both the vectorized hash join and the columnar merge.

    Fallback conditions (the row path's Python ``dict`` defines the
    matching semantics): object-dtype columns (``None`` keys match
    row-wise via ``None == None``; the factorizer cannot see that),
    NaN-bearing float keys (``nan`` never equals itself row-wise but
    ``np.unique`` collapses NaNs), int/float pairs whose magnitudes
    reach 2**53 (float64 promotion loses int exactness), and any
    cross-kind pair numpy would coerce (int vs str, …).
    """
    from repro.algebra.predicates import _FLOAT_EXACT, _int_bound

    na, nb = abatch.nrows, bbatch.nrows
    code_cols = []
    for ac, bc in zip(acols, bcols):
        aa = abatch.array(ac)
        ba = bbatch.array(bc)
        ak, bk = aa.dtype.kind, ba.dtype.kind
        if ak == "O" or bk == "O":
            return None
        if ak in "biuf" and bk in "biuf":
            for arr, kind in ((aa, ak), (ba, bk)):
                if kind == "f" and arr.size and np.isnan(arr).any():
                    return None
            if "f" in (ak, bk) and (ak in "biu" or bk in "biu"):
                int_side = aa if ak in "biu" else ba
                if int_side.size and _int_bound(int_side) >= _FLOAT_EXACT:
                    return None
        elif not (ak == bk and ak in "US"):
            return None
        combo = np.concatenate([aa, ba])
        if combo.dtype.kind == "f" and "f" not in (ak, bk):
            # int64 vs uint64 promotes to float64; only exact when every
            # key fits in 2**53 (otherwise distinct keys could collide).
            if max(_int_bound(aa), _int_bound(ba)) >= _FLOAT_EXACT:
                return None
        _, inv = np.unique(combo, return_inverse=True)
        code_cols.append(np.asarray(inv).reshape(-1))
    if len(code_cols) > 1:
        stacked = np.column_stack(code_cols)
        _, inv = np.unique(stacked, axis=0, return_inverse=True)
        inv = np.asarray(inv).reshape(-1)
    else:
        inv = code_cols[0]
    n_keys = int(inv.max()) + 1 if len(inv) else 0
    return inv[:na], inv[na:], n_keys


#: Packed key codes must stay clear of int64 overflow.
_CODE_LIMIT = 1 << 62


def int_key_radix(*sides) -> Optional[tuple]:
    """The mixed-radix layout ``(lows, spans, strides)`` that packs the
    machine-integer key columns of every side into one int64 code, or
    None.

    Each side is a list of key column arrays, aligned by position; one
    layout covers them all, so equal codes across sides mean equal keys.
    None when a column with rows is not an int64 array (bool, float,
    object, …), when no side has rows, or when the packed range would
    reach 2⁶².
    """
    if not sides[0]:
        return None
    lows, spans = [], []
    for pos in range(len(sides[0])):
        parts = [side[pos] for side in sides if len(side[pos])]
        if not parts or any(p.dtype.kind != "i" for p in parts):
            return None
        lo = min(int(p.min()) for p in parts)
        lows.append(lo)
        spans.append(max(int(p.max()) for p in parts) - lo + 1)
    strides = []
    stride = 1
    for span in reversed(spans):
        strides.insert(0, stride)
        stride *= span
    if stride >= _CODE_LIMIT:
        return None
    return lows, spans, strides


def pack_int_key(columns, radix: tuple) -> np.ndarray:
    """The int64 codes of one side's key ``columns`` under ``radix``
    (:func:`int_key_radix`): the first column is the most significant
    digit, so codes sort like the key tuples."""
    lows, _, strides = radix
    codes = np.zeros(len(columns[0]), dtype=np.int64)
    if not len(codes):
        return codes  # an empty column's dtype says nothing
    for col, lo, step in zip(columns, lows, strides):
        codes += (col - lo) * step
    return codes


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
