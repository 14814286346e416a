"""The database substrate: named base relations plus pending deltas.

A :class:`Database` is the collection D = {R_i} of paper §3.1 together
with its delta relations ∂D.  It exposes *leaf resolvers* (plain mappings
from name to :class:`Relation`) used by the expression evaluator:

* :meth:`leaves` — base relations in their **stale** state (as of the
  last maintenance), plus ``R__ins`` / ``R__del`` delta leaves, plus any
  registered materialized views.  Maintenance strategies and cleaning
  expressions evaluate against this mapping.
* :meth:`fresh_leaves` — base relations with pending deltas applied
  (the ground truth S' is a view definition evaluated over these).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.algebra.relation import Relation
from repro.db.deltas import DeltaSet, deletions_name, insertions_name
from repro.errors import MaintenanceError


class Database:
    """Named base relations, pending deltas, and registered views."""

    def __init__(self):
        self._relations: Dict[str, Relation] = {}
        self.deltas = DeltaSet()
        self._views: Dict[str, Relation] = {}

    # ------------------------------------------------------------------
    # Base relation management
    # ------------------------------------------------------------------
    def add_relation(self, rel: Relation) -> Relation:
        """Register a base relation (must be named and keyed)."""
        if not rel.name:
            raise MaintenanceError("base relations must be named")
        if not rel.key:
            raise MaintenanceError(
                f"base relation {rel.name!r} must declare a primary key "
                "(paper §3.1: add an increasing integer column if needed)"
            )
        self._relations[rel.name] = rel
        return rel

    def relation(self, name: str) -> Relation:
        """Look up a base relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise MaintenanceError(f"no base relation named {name!r}") from None

    def relation_names(self) -> List[str]:
        """Names of all registered base relations."""
        return list(self._relations)

    # ------------------------------------------------------------------
    # Updates (queued as deltas; folded in by apply_deltas)
    # ------------------------------------------------------------------
    def insert(self, name: str, rows: Iterable[tuple]) -> None:
        """Queue insertions into base relation ``name``."""
        self.deltas.for_relation(self.relation(name)).insert(rows)

    def delete(self, name: str, rows: Iterable[tuple]) -> None:
        """Queue deletions (full rows) from base relation ``name``."""
        self.deltas.for_relation(self.relation(name)).delete(rows)

    def _effective_rows(self, name: str):
        """``(lookup, overlay)``: key -> row as of *now*.

        Updates and keyed deletes issued mid-period must resolve against
        the current effective rows, not the stale base — otherwise two
        updates of the same key both delete the original record and both
        insertions survive, breaking the telescoped delete+insert pair.
        The base relation's key index is cached on the relation and
        never copied: pending deltas are resolved by looking in
        ``overlay`` (key -> pending row, ``None`` for a pending delete)
        first.  ``overlay`` is this call's own dict; the caller records
        there what it resolves, so one batch telescopes too.
        """
        rel = self.relation(name)
        index = rel.key_lookup()
        rows = rel.rows
        delta = self.deltas.get(name)
        overlay: Dict[tuple, Optional[tuple]] = {}
        if delta is not None and not delta.is_empty():
            overlay = delta.pending_key_overlay(rel.key_indexes())

        def lookup(k: tuple) -> tuple:
            if k in overlay:
                row = overlay[k]
            else:
                pos = index.last(k)
                row = rows[pos] if pos >= 0 else None
            if row is None:
                raise MaintenanceError(f"{name!r} has no record with key {k!r}")
            return row

        return lookup, overlay

    def delete_by_key(self, name: str, keys: Iterable[tuple]) -> None:
        """Queue deletions given key values; rows are looked up in the
        effective (pending-delta-applied) state.  A key that occurs
        twice in ``keys`` is an error the second time, as it is across
        two calls; nothing is queued then."""
        lookup, overlay = self._effective_rows(name)
        rows = []
        for k in keys:
            k = tuple(k)
            rows.append(lookup(k))
            overlay[k] = None
        self.delete(name, rows)

    def update(self, name: str, new_rows: Iterable[tuple]) -> None:
        """Queue updates: modeled as deletion of the old row + insertion
        of the new one (paper §3.1).

        The old row is resolved against the effective state, so repeated
        updates of one key telescope: the delta nets to one deletion of
        the original record plus one insertion of the final version.
        """
        key_idx = self.relation(name).key_indexes()
        lookup, overlay = self._effective_rows(name)
        old_rows, ins_rows = [], []
        for row in new_rows:
            row = tuple(row)
            k = tuple(row[i] for i in key_idx)
            old_rows.append(lookup(k))
            ins_rows.append(row)
            overlay[k] = row  # updates within one batch telescope too
        self.delete(name, old_rows)
        self.insert(name, ins_rows)

    def is_stale(self) -> bool:
        """True when any delta relation is non-empty (paper's staleness)."""
        return not self.deltas.is_empty()

    def apply_deltas(self, names: Optional[Sequence[str]] = None) -> None:
        """Fold pending deltas into the base relations and clear them.

        Called at the end of a maintenance period, after every registered
        view has been brought up to date (or cleaned).
        """
        targets = names if names is not None else self.deltas.dirty_relations()
        for name in targets:
            delta = self.deltas.get(name)
            if delta is None or delta.is_empty():
                continue
            rel = delta.applied(self.relation(name))
            delta.base = self._relations[name] = rel
            delta.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def register_view_data(self, name: str, data: Relation) -> None:
        """Make a materialized view's rows visible as an evaluator leaf."""
        self._views[name] = data

    # ------------------------------------------------------------------
    # Leaf resolvers
    # ------------------------------------------------------------------
    def leaves(self) -> Dict[str, Relation]:
        """Stale base relations + delta leaves + materialized views."""
        out: Dict[str, Relation] = dict(self._relations)
        for name in self._relations:
            delta = self.deltas.get(name)
            base = self._relations[name]
            if delta is None:
                ins = Relation(base.schema, [], key=base.key)
                dele = Relation(base.schema, [], key=base.key)
            else:
                ins = delta.insertions_relation()
                dele = delta.deletions_relation()
            out[insertions_name(name)] = ins
            out[deletions_name(name)] = dele
        out.update(self._views)
        return out

    def fresh_leaves(self) -> Dict[str, Relation]:
        """Base relations with pending deltas applied (ground truth)."""
        out: Dict[str, Relation] = {}
        for name, rel in self._relations.items():
            delta = self.deltas.get(name)
            if delta is None or delta.is_empty():
                out[name] = rel
                continue
            out[name] = delta.applied(rel, index=False)
        out.update(self._views)
        return out

    def __getitem__(self, name: str) -> Relation:
        return self.leaves()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations or name in self._views
