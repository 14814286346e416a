"""Delta relations: pending insertions ∆R and deletions ∇R.

Paper §3.1 models every update to a base relation as a deletion followed
by an insertion; ∂D is the set of all non-empty delta relations.  A view
is *stale* exactly when ∂D is non-empty for any of its base relations.

Deletions are stored as full rows (not just keys) because change-table
maintenance must subtract the deleted records' aggregate contributions.

Pending changes *telescope*: deleting a row that is itself pending
insertion cancels the insertion (and vice versa), so the signed
multiplicities a change table reads are always the net effect of the
period — updating the same key repeatedly between refreshes composes
(see :class:`Delta`).  The materialized ``R__ins``/``R__del`` leaf
relations are memoized between mutations, which keeps their hash-sample
and shard-partition caches warm across the maintenance round; sharded
maintenance partitions these delta relations alongside their base
relation (:mod:`repro.distributed.shard`).

Folding a delta into its base is :meth:`Delta.applied` — the one place
that builds the next period's relation (``Database.apply_deltas()`` and
``Database.fresh_leaves()`` both call it).  It patches the base
(:meth:`Relation.patched <repro.algebra.relation.Relation.patched>`)
instead of rebuilding it: the deleted rows are located through the
base's key index and the successor inherits the base's column arrays, η
draws and key index.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.algebra.evaluator import carry_draws
from repro.algebra.relation import Relation
from repro.errors import MaintenanceError

#: Leaf-name suffixes under which delta relations are visible to
#: maintenance expressions: for base relation ``R`` the insertions are the
#: leaf ``R__ins`` and the deletions ``R__del``.
INSERT_SUFFIX = "__ins"
DELETE_SUFFIX = "__del"


def insertions_name(relation_name: str) -> str:
    """The leaf name of the insertion delta of ``relation_name``."""
    return relation_name + INSERT_SUFFIX


def deletions_name(relation_name: str) -> str:
    """The leaf name of the deletion delta of ``relation_name``."""
    return relation_name + DELETE_SUFFIX


class Delta:
    """Pending insertions and deletions for one base relation.

    Changes accumulate with *telescoped multiplicity* semantics: a row's
    pending multiplicity is the net of its queued insertions (+1 each)
    and deletions (−1 each), so deleting a row that is itself pending
    insertion cancels the insertion instead of queuing both.  This is
    what makes an update-modeled-as-delete+insert (paper §3.1) compose:
    updating the same key twice between refreshes nets to one deletion
    of the original record and one insertion of the final version —
    change tables see the correct signed multiplicities and
    ``apply_deltas`` cannot duplicate the key.
    """

    __slots__ = ("base", "version", "_ins", "_del", "_ins_list", "_del_list",
                 "_ins_rel", "_del_rel")

    def __init__(self, base: Relation):
        self.base = base
        #: Number of mutations so far (see :attr:`DeltaSet.stamp`).
        self.version = 0
        # Ordered row -> pending count maps (first-queued order preserved).
        self._ins: Dict[tuple, int] = {}
        self._del: Dict[tuple, int] = {}
        # Memoized row lists and delta relations (rebuilt on mutation) so
        # repeated evaluations can reuse their hash-sample caches.
        self._ins_list: List[tuple] = None
        self._del_list: List[tuple] = None
        self._ins_rel: Relation = None
        self._del_rel: Relation = None

    @property
    def inserted(self) -> List[tuple]:
        """Pending insertions ∆R as full rows (with net multiplicity)."""
        if self._ins_list is None:
            self._ins_list = [
                r for r, c in self._ins.items() for _ in range(c)
            ]
        return self._ins_list

    @property
    def deleted(self) -> List[tuple]:
        """Pending deletions ∇R as full rows (with net multiplicity)."""
        if self._del_list is None:
            self._del_list = [
                r for r, c in self._del.items() for _ in range(c)
            ]
        return self._del_list

    def is_empty(self) -> bool:
        """True when no changes are pending."""
        return not self._ins and not self._del

    def _invalidate(self) -> None:
        self.version += 1
        self._ins_list = self._del_list = None
        self._ins_rel = self._del_rel = None

    def _check_width(self, row: tuple, op: str) -> tuple:
        row = tuple(row)
        width = len(self.base.schema)
        if len(row) != width:
            raise MaintenanceError(
                f"{op} width {len(row)} != schema width {width}: {row!r}"
            )
        return row

    def insert(self, rows: Iterable[tuple]) -> None:
        """Queue new records for insertion (telescoping pending deletes)."""
        self._invalidate()
        for row in rows:
            row = self._check_width(row, "insert")
            pending = self._del.get(row)
            if pending:
                if pending == 1:
                    del self._del[row]
                else:
                    self._del[row] = pending - 1
            else:
                self._ins[row] = self._ins.get(row, 0) + 1

    def delete(self, rows: Iterable[tuple]) -> None:
        """Queue existing records (full rows) for deletion (telescoping
        pending inserts)."""
        self._invalidate()
        for row in rows:
            row = self._check_width(row, "delete")
            pending = self._ins.get(row)
            if pending:
                if pending == 1:
                    del self._ins[row]
                else:
                    self._ins[row] = pending - 1
            else:
                self._del[row] = self._del.get(row, 0) + 1

    def pending_key_overlay(
        self, key_indexes: Sequence[int]
    ) -> Dict[tuple, Optional[tuple]]:
        """Key -> pending row (or None for pending deletion).

        Overlaying this on the base relation's key index yields the
        *effective* current rows — what an update or keyed delete issued
        mid-period must resolve against (paper §3.1 updates compose).
        """
        overlay: Dict[tuple, Optional[tuple]] = {}
        for row in self._del:
            overlay[tuple(row[i] for i in key_indexes)] = None
        for row in self._ins:
            overlay[tuple(row[i] for i in key_indexes)] = row
        return overlay

    def insertions_relation(self) -> Relation:
        """∆R as a relation with the base schema and key."""
        if self._ins_rel is None:
            self._ins_rel = Relation(
                self.base.schema,
                self.inserted,
                key=self.base.key,
                name=insertions_name(self.base.name or "R"),
            )
        return self._ins_rel

    def deletions_relation(self) -> Relation:
        """∇R as a relation with the base schema and key."""
        if self._del_rel is None:
            self._del_rel = Relation(
                self.base.schema,
                self.deleted,
                key=self.base.key,
                name=deletions_name(self.base.name or "R"),
            )
        return self._del_rel

    def applied(self, base: Relation, index: bool = True) -> Relation:
        """``base`` with the pending changes folded in (a new relation).

        Survivors in base order, then the insertions in queue order; a
        pending deletion removes every base row equal to it.  The base
        is patched, not rebuilt — see the module docstring.  ``index``
        is :meth:`Relation.patched`'s: whether the key index is handed
        on as well (``fresh_leaves()``'s throwaway relations skip it).
        """
        drop = []
        if self._del:
            rows = base.rows
            lookup = base.key_lookup()
            key_idx = base.key_indexes()
            drop = [
                pos
                for row in self._del
                for pos in lookup.positions(tuple(row[i] for i in key_idx))
                if rows[pos] == row
            ]
        tail = self.insertions_relation()
        carry_draws(base, tail)
        return base.patched(drop, tail, index=index)

    def clear(self) -> None:
        """Discard pending changes (after they are folded into the base)."""
        self._ins = {}
        self._del = {}
        self._invalidate()


class DeltaSet:
    """∂D — the delta relations of a whole database."""

    def __init__(self):
        self._deltas: Dict[str, Delta] = {}

    @property
    def stamp(self) -> int:
        """Monotone mutation stamp: two equal readings bracket a span in
        which no delta of the database was touched."""
        return sum(d.version for d in self._deltas.values())

    def for_relation(self, rel: Relation) -> Delta:
        """The (created-on-demand) delta of one base relation."""
        name = rel.name
        if name is None:
            raise MaintenanceError("deltas require a named base relation")
        if name not in self._deltas:
            self._deltas[name] = Delta(rel)
        return self._deltas[name]

    def get(self, name: str) -> Optional[Delta]:
        """The delta for ``name`` if any changes were ever queued."""
        return self._deltas.get(name)

    def dirty_relations(self) -> List[str]:
        """Names of base relations with pending changes."""
        return [n for n, d in self._deltas.items() if not d.is_empty()]

    def is_empty(self) -> bool:
        """True when the whole database has no pending changes."""
        return all(d.is_empty() for d in self._deltas.values())

    def clear(self) -> None:
        """Discard all pending changes."""
        for d in self._deltas.values():
            d.clear()

    def total_pending(self) -> int:
        """Total number of pending inserted + deleted records."""
        return sum(
            len(d.inserted) + len(d.deleted) for d in self._deltas.values()
        )
