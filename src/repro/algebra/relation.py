"""In-memory relations.

A :class:`Relation` is the fundamental data container of the substrate: an
immutable schema, a bag of row tuples, and (optionally) a primary key.
The paper distinguishes *records* (tuples of base relations) from *rows*
(tuples of derived relations); both are represented by this class.

Row tuples remain the semantic source of truth — the SVC algorithms are
defined over row lineage and per-row hashing — but a relation's *storage*
may be columnar: :meth:`Relation.from_columnar` builds a relation backed
by a :class:`~repro.algebra.columnar.ColumnarRelation` batch whose
``.rows`` are materialized lazily, on first access.  The batch-native
evaluator hands such relations between operators so a multi-operator
plan converts columns back to row tuples exactly once, at the evaluator
boundary (or never, when the consumer is itself columnar).  Row-backed
relations still carry a lazily-built columnar view
(:meth:`Relation.columnar`) caching per-column numpy arrays.  Both
caches are sound because relations are treated as immutable; every
update path in the library builds a new ``Relation``.

What a relation has paid for survives a maintenance period:
:meth:`Relation.patched` builds the successor of a base relation from
the surviving row positions plus the inserted rows — fresh lists and
arrays, the predecessor is never written to — and hands it the column
arrays the period asked for, every per-row array in the sample cache
(the η draws) and the :class:`KeyIndex`, so a period converts, hashes
and indexes only its deltas.  Nothing needs invalidating: the state lives on
the relation it describes and dies with it.

Pickling is storage-aware: a columnar-backed relation whose rows were
never materialized ships its column arrays (numpy buffers — far smaller
and faster to serialize than a list of per-row tuples), which is what
shrinks the per-shard payloads of
:mod:`repro.distributed.shard`'s process backend.  Derived caches
(sample cache, column caches of row-backed relations) are dropped on
pickle and rebuilt on demand.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.algebra.columnar import (
    ColumnarRelation,
    grown,
    key_code,
    key_codes,
    pack,
    rows_at,
)
from repro.algebra.schema import Schema, as_schema
from repro.errors import SchemaError

#: First element of the ``Relation.sample_cache()`` keys whose value is
#: one float per row, in row order (the η draws).  Being aligned with the
#: rows is what lets :meth:`Relation.patched` carry them.
PER_ROW = "__perrow__"

#: ``Relation.sample_cache()`` key of the relation's :class:`KeyIndex`.
_KEY_INDEX = "__keyindex__"


class KeyIndex:
    """Immutable key tuple → row position(s) of one relation.

    Every row's key is reduced to one int64 *code*; the index is two
    arrays — the codes sorted, and the row order that sorts them —
    probed by ``searchsorted`` (16 B per row).  A key the one key coder
    (:func:`~repro.algebra.columnar.pack`) coded when the index was
    built has the code its layout gives (non-negative); any other key —
    every key, where the coder refused the columns (object, NaN) — is
    numbered in a dict (key tuple → negative code).  Either way a lookup
    equates exactly what a dict keyed by the rows' key tuples would
    (``3.0`` finds ``3``).  Nothing is ever handed out for writing:
    pending deltas are resolved by lookup on top of it
    (:meth:`repro.db.database.Database.update`), and :meth:`patched`
    derives a successor's index into fresh arrays and a fresh dict.
    """

    __slots__ = ("_layout", "_ids", "_codes", "_order")

    def __init__(self, rel: "Relation"):
        self._ids = {}
        packed = pack([rel.columnar().arrays(rel.key)])
        if packed is not None:
            codes, self._layout = packed
        else:
            self._layout = None
            codes = self._number(_key_tuples(rel, rel.key), -1)
        self._order = np.argsort(codes, kind="stable")
        self._codes = codes[self._order]

    def _number(self, keys: Iterable[tuple], fresh: int) -> np.ndarray:
        """Dict codes of ``keys``; unseen keys are numbered from
        ``fresh`` down, in this index's own (not yet published) dict."""
        ids = self._ids
        top = fresh + len(ids)
        return np.fromiter(
            (ids.setdefault(key, top - len(ids)) for key in keys), np.int64)

    def patched(
        self, base: "Relation", drop: list, tail: "Relation", out: "Relation"
    ) -> "KeyIndex":
        """The index of ``out = base.patched(drop, tail)`` from this one
        (``base``'s), in numpy over the rows and Python over new keys.

        The layout is shared — its first int column's range raised to
        the inserted keys' top while the dict is empty
        (:func:`~repro.algebra.columnar.grown`: rising keys stay coded) —
        and the dict copied; ``tail``'s keys are coded through the
        layout (:func:`~repro.algebra.columnar.key_codes`), the rest
        numbered in the dict below the smallest code.  A dict
        key whose last row was dropped is forgotten, so every dict code
        stays the code of some row.  The surviving codes stay sorted and
        ``tail``'s are merged in.  A coded index is re-packed from
        ``out`` instead when a tail key column is not of the layout's
        kind, or when the dict would hold keys of over half the rows (a
        re-pack at most once per |R| / 2 new keys).
        """
        layout, added = self._layout, np.full(len(tail), -1, dtype=np.int64)
        if layout is not None:
            columns = tail.columnar().arrays(base.key)
            if not self._ids:  # no dict key can fall in the wider range
                layout = grown(layout, columns[0])
            added = key_codes(layout, columns)
            if added is None:
                return KeyIndex(out)
        missing = np.flatnonzero(added < 0)
        if layout is not None and 2 * (len(self._ids) + len(missing)) > len(out):
            return KeyIndex(out)
        new = object.__new__(KeyIndex)
        new._layout, new._ids = layout, dict(self._ids)
        if len(missing):
            fresh = min(int(self._codes[0]), 0) - 1 if len(self._codes) else -1
            keys = rows_at(list(_key_tuples(tail, base.key)), missing)
            added[missing] = new._number(keys, fresh)
        order, codes, lost = self._order, self._codes, []
        if drop:
            gone = np.zeros(len(order), dtype=bool)
            gone[drop] = True
            keep = ~gone[order]
            rows, key_of = base.rows, base.key_of
            lost = [key_of(rows[pos])  # the dropped rows the dict coded
                    for pos in order[~keep][codes[~keep] < 0].tolist()]
            order, codes = order[keep], codes[keep]
            order -= np.cumsum(gone)[order]
        sort = np.argsort(added, kind="stable")
        at = codes.searchsorted(added[sort], "right")
        new._codes = np.insert(codes, at, added[sort])
        new._order = np.insert(order, at, len(codes) + sort)
        for key in lost:
            if not len(new.positions(key)):
                new._ids.pop(key, None)
        return new

    def positions(self, key: tuple) -> Sequence[int]:
        """Every row position holding ``key``, ascending."""
        code = None if self._layout is None else key_code(self._layout, key)
        if code is None:
            code = self._ids.get(key)
            if code is None:
                return ()
        first = int(self._codes.searchsorted(code, "left"))
        last = int(self._codes.searchsorted(code, "right"))
        return self._order[first:last].tolist()

    def last(self, key: tuple) -> int:
        """Position of the last row holding ``key`` (the row a dict built
        in row order would keep), or -1."""
        found = self.positions(key)
        return found[-1] if len(found) else -1


def _key_tuples(rel: "Relation", key: Sequence[str]) -> Iterator[tuple]:
    """``rel``'s rows reduced to their values on the columns ``key``."""
    return zip(*(rel.column(k) for k in key))


class Relation:
    """A named, keyed bag of row tuples with a fixed schema.

    Parameters
    ----------
    schema:
        :class:`Schema` (or iterable of column names).
    rows:
        Iterable of tuples, positionally aligned with the schema.
    key:
        Optional tuple of column names forming a primary key.  When set,
        key values are expected to be unique; :meth:`validate_key` checks.
    name:
        Optional relation name (used by expression leaves and messages).
    """

    __slots__ = ("schema", "_rows", "key", "name", "_sample_cache", "_columnar")

    def __init__(
        self,
        schema,
        rows: Iterable[tuple] = (),
        key: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ):
        self.schema = as_schema(schema)
        self._rows = [tuple(r) for r in rows]
        width = len(self.schema)
        for r in self._rows:
            if len(r) != width:
                raise SchemaError(
                    f"row width {len(r)} does not match schema width {width}: {r!r}"
                )
        if key is not None:
            key = tuple(key)
            for k in key:
                self.schema.index(k)
        self.key = key
        self.name = name
        # Lazy cache of hash-sample results keyed by (attrs, ratio, seed).
        # Valid because relations are treated as immutable: every update
        # path in the library builds a new Relation.  This is the in-memory
        # analogue of a database hash index over the sampling key.
        self._sample_cache = None
        # Lazy columnar view (per-column numpy arrays), same immutability
        # argument; built on first use by the vectorized fast paths.
        self._columnar = None

    @classmethod
    def trusted(
        cls,
        schema: Schema,
        rows: list,
        key: Optional[tuple] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """A relation over an already-validated list of row tuples.

        Internal fast path: the rows list is *shared, not copied*, and
        neither widths nor key columns are re-checked — callers pass rows
        that came out of another relation with the same schema (leaf
        wrapping, cache hits, row-subset operators).  Sharing is sound
        under the library-wide immutability convention.
        """
        self = object.__new__(cls)
        self.schema = schema
        self._rows = rows
        self.key = key
        self.name = name
        self._sample_cache = None
        self._columnar = None
        return self

    @classmethod
    def from_columnar(
        cls,
        batch: ColumnarRelation,
        key: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """A relation backed by a columnar batch; ``.rows`` stays lazy.

        The batch-native evaluator's construction path: operators hand
        each other batches, and the row tuples are only built if (and
        when) something reads ``.rows``.  The batch may be shared — its
        column caches only ever grow, never change.
        """
        self = object.__new__(cls)
        self.schema = batch.schema
        self._rows = None
        if key is not None:
            key = tuple(key)
            for k in key:
                self.schema.index(k)
        self.key = key
        self.name = name
        self._sample_cache = None
        self._columnar = batch
        return self

    @classmethod
    def attach_buffer(
        cls,
        schema,
        buf,
        specs,
        nrows: int,
        key: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        owner=None,
    ) -> "Relation":
        """A relation attached to a packed column buffer (zero-copy).

        The shard transport's worker-side constructor: ``buf`` is a
        shared-memory block written by
        :func:`~repro.algebra.columnar.write_column_buffers` and
        ``specs`` its layout.  Typed columns are read-only numpy views
        over ``buf``, and ``owner`` (the ``SharedMemory`` handle behind
        it) is pinned on the batch so the mapping outlives every reader
        and closes, via refcounting, with the last of them — see
        :meth:`~repro.algebra.columnar.ColumnarRelation.from_buffer`.
        Pickling such a relation copies the column data out of the
        buffer (numpy arrays pickle by value), so a pickled copy never
        pins the segment.
        """
        return cls.from_columnar(
            ColumnarRelation.from_buffer(schema, buf, specs, nrows, owner=owner),
            key=key,
            name=name,
        )

    @property
    def rows(self) -> list:
        """The row tuples (materialized from columns on first access)."""
        if self._rows is None:
            self._rows = self._columnar.materialize_rows()
        return self._rows

    @property
    def is_materialized(self) -> bool:
        """True when the row tuples have been built (or were given)."""
        return self._rows is not None

    def sample_cache(self) -> dict:
        """The (created-on-demand) hash-sample cache for this relation."""
        if self._sample_cache is None:
            self._sample_cache = {}
        return self._sample_cache

    def columnar(self) -> ColumnarRelation:
        """The (created-on-demand) columnar view of this relation."""
        if self._columnar is None:
            self._columnar = ColumnarRelation(self)
        return self._columnar

    # ------------------------------------------------------------------
    # Pickling (storage-aware: lazy relations ship columns, not rows)
    # ------------------------------------------------------------------
    def __reduce__(self):
        if self._rows is not None:
            return (
                _restore_from_rows,
                (self.schema, self._rows, self.key, self.name),
            )
        batch = self._columnar
        arrays = {c: batch.array(c) for c in self.schema.columns}
        return (
            _restore_from_arrays,
            (self.schema, arrays, batch.nrows, self.key, self.name),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        records: Sequence[Mapping],
        schema=None,
        key: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from a sequence of dict records."""
        if schema is None:
            if not records:
                raise SchemaError("cannot infer schema from zero records")
            schema = Schema(records[0].keys())
        schema = as_schema(schema)
        rows = [tuple(rec[c] for c in schema.columns) for rec in records]
        return cls(schema, rows, key=key, name=name)

    @classmethod
    def empty_like(cls, other: "Relation") -> "Relation":
        """An empty relation with the same schema/key as ``other``."""
        return cls(other.schema, [], key=other.key, name=other.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._rows is None:
            return self._columnar.nrows
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        label = self.name or "relation"
        return (
            f"<Relation {label} cols={list(self.schema.columns)} "
            f"key={self.key} rows={len(self)}>"
        )

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return sorted(self.rows, key=repr) == sorted(other.rows, key=repr)

    __hash__ = None  # relations are mutable containers

    def to_dicts(self) -> list:
        """Rows as a list of dicts (column name -> value)."""
        cols = self.schema.columns
        return [dict(zip(cols, row)) for row in self.rows]

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if self._rows is None:
            return list(self._columnar.pycolumn(name))
        i = self.schema.index(name)
        return [row[i] for row in self._rows]

    def column_array(self, name: str, dtype=float) -> np.ndarray:
        """One column as a numpy array (for vectorized statistics)."""
        return np.asarray(self.column(name), dtype=dtype)

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    def key_indexes(self) -> tuple:
        """Positional indexes of the key columns."""
        if self.key is None:
            raise SchemaError(f"relation {self.name!r} has no primary key")
        return self.schema.indexes(self.key)

    def key_of(self, row: tuple) -> tuple:
        """The key-value tuple of one row."""
        idx = self.key_indexes()
        return tuple(row[i] for i in idx)

    def key_index(self) -> dict:
        """Map key-value tuple -> row.  Requires a primary key."""
        idx = self.key_indexes()
        return {tuple(row[i] for i in idx): row for row in self.rows}

    def key_lookup(self) -> KeyIndex:
        """The (built-on-demand, cached) key → position index.

        Unlike :meth:`key_index` it is never copied or rebuilt per call:
        it is immutable, lives as long as the relation and is carried to
        the relation's successor by :meth:`patched`.
        """
        cache = self.sample_cache()
        index = cache.get(_KEY_INDEX)
        if index is None:
            self.key_indexes()  # raises when there is no primary key
            index = cache[_KEY_INDEX] = KeyIndex(self)
        return index

    def key_set(self) -> set:
        """The set of key-value tuples present in the relation."""
        idx = self.key_indexes()
        return {tuple(row[i] for i in idx) for row in self.rows}

    def validate_key(self) -> bool:
        """True if key values are unique across all rows."""
        if self.key is None:
            return False
        idx = self.key_indexes()
        seen = set()
        for row in self.rows:
            k = tuple(row[i] for i in idx)
            if k in seen:
                return False
            seen.add(k)
        return True

    # ------------------------------------------------------------------
    # Period-to-period succession
    # ------------------------------------------------------------------
    def patched(
        self, drop: Iterable[int], tail: "Relation", index: bool = True
    ) -> "Relation":
        """This relation without the rows at positions ``drop`` and with
        ``tail``'s rows appended — a new, row-backed relation.

        Survivors keep their order, the appended rows theirs.  The
        successor inherits what this relation already built: its column
        arrays (:meth:`ColumnarRelation.patched`), every :data:`PER_ROW`
        array of the sample cache that ``tail`` holds too (the caller
        sees to that — ``repro.algebra.evaluator.carry_draws``) and, if
        there was one and ``index`` is set, a key index
        (:meth:`KeyIndex.patched`; a relation nobody will run keyed
        updates against need not pay for it).  Everything handed over is
        freshly allocated or shared unchanged; nothing reachable from
        ``self`` is written to, so readers still holding ``self`` are
        undisturbed.
        """
        rows = self.rows
        drop = list(drop)
        keep = None
        if drop:
            keep = np.delete(np.arange(len(rows), dtype=np.intp), drop)
            kept = rows_at(rows, keep)
        else:
            kept = list(rows)
        kept.extend(tail.rows)
        out = Relation.trusted(self.schema, kept, key=self.key, name=self.name)
        if self._columnar is not None:
            out._columnar = self._columnar.patched(kept, keep, tail.columnar())
        if self._sample_cache:
            carried = {}
            theirs = tail._sample_cache or {}
            for key, mine in list(self._sample_cache.items()):
                if not (isinstance(key, tuple) and key and key[0] == PER_ROW):
                    continue
                extra = theirs.get(key)
                if extra is not None:
                    if keep is not None:
                        mine = mine[keep]
                    carried[key] = np.concatenate([mine, extra])
            mine = self._sample_cache.get(_KEY_INDEX)
            if index and mine is not None:
                carried[_KEY_INDEX] = mine.patched(self, drop, tail, out)
            out._sample_cache = carried
        return out

    # ------------------------------------------------------------------
    # Simple derivations (used by tests and workload builders; the full
    # query path goes through repro.algebra.evaluator)
    # ------------------------------------------------------------------
    def filter(self, fn: Callable[[tuple], bool]) -> "Relation":
        """Rows for which ``fn(row)`` is truthy, keeping schema and key."""
        return Relation(
            self.schema, [r for r in self.rows if fn(r)], key=self.key, name=self.name
        )

    def head(self, n: int) -> "Relation":
        """The first ``n`` rows."""
        return Relation(self.schema, self.rows[:n], key=self.key, name=self.name)

    def with_name(self, name: str) -> "Relation":
        """Same data under a different name."""
        return Relation(self.schema, self.rows, key=self.key, name=name)

    def with_key(self, key: Sequence[str]) -> "Relation":
        """Same data with a (re)declared primary key."""
        return Relation(self.schema, self.rows, key=tuple(key), name=self.name)

    def sorted_by_key(self) -> "Relation":
        """Rows sorted by key value (for deterministic output/printing)."""
        idx = self.key_indexes()
        rows = sorted(self.rows, key=lambda r: tuple(repr(r[i]) for i in idx))
        return Relation(self.schema, rows, key=self.key, name=self.name)


def _restore_from_rows(schema, rows, key, name) -> Relation:
    """Unpickle a row-backed relation without re-validating every row."""
    return Relation.trusted(schema, rows, key=key, name=name)


def _restore_from_arrays(schema, arrays, nrows, key, name) -> Relation:
    """Unpickle a columnar-backed relation (rows stay lazy)."""
    return Relation.from_columnar(
        ColumnarRelation.from_arrays(schema, arrays, nrows), key=key, name=name
    )
