"""Materialized views.

A :class:`MaterializedView` binds a view definition (expression tree) to a
:class:`~repro.db.database.Database`, materializes it, and tracks the
derived primary key (Def 2).

Aggregate view definitions are *augmented* before materialization so that
change-table maintenance is possible (paper Ex. 1 maintains ``visitCount``
additively; avg needs hidden sum/count):

* a hidden support column ``__grpcount__`` (``count(*)`` per group) is
  always added — it detects groups emptied by deletions (superfluous
  rows) and provides the count for avg maintenance;
* each ``avg`` aggregate gets a hidden companion ``__sum_<name>__``.

Hidden columns are part of the stored schema but prefixed with ``__`` so
workload queries never touch them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algebra.evaluator import GROUP_COUNT, evaluate, same_rows
from repro.algebra.expressions import AggSpec, Aggregate, Expr
from repro.algebra.keys import derive_key
from repro.algebra.relation import Relation
from repro.errors import MaintenanceError


def hidden_sum_name(avg_name: str) -> str:
    """Name of the hidden sum column backing an avg aggregate."""
    return f"__sum_{avg_name}__"


def augment_definition(definition: Expr) -> Expr:
    """Add hidden maintenance columns to a top-level aggregate view."""
    if not isinstance(definition, Aggregate):
        return definition
    aggs = list(definition.aggs)
    names = {a.name for a in aggs}
    extra = []
    for a in definition.aggs:
        if a.func == "avg":
            hidden = hidden_sum_name(a.name)
            if hidden not in names:
                extra.append(AggSpec(hidden, "sum", a.term))
                names.add(hidden)
    if GROUP_COUNT not in names:
        extra.append(AggSpec(GROUP_COUNT, "count", None))
    if not extra:
        return definition
    return Aggregate(definition.child, definition.group_by, aggs + extra)


class MaterializedView:
    """A named, materialized, keyed view over a database.

    Parameters
    ----------
    name:
        View name; the materialized rows are registered under this name so
        maintenance strategies can reference the stale view as a leaf.
    definition:
        Expression tree over the database's base relations.
    database:
        The owning :class:`Database`.
    """

    def __init__(self, name: str, definition: Expr, database):
        self.name = name
        self.definition = augment_definition(definition)
        self.user_definition = definition
        self.database = database
        self.key: Tuple[str, ...] = derive_key(self.definition, database.leaves())
        if not self.key and not isinstance(self.definition, Aggregate):
            raise MaintenanceError(
                f"view {name!r} has no derivable primary key (Def 2)"
            )
        self.data: Optional[Relation] = None
        #: Bumped whenever new rows are installed; with the database's
        #: delta stamp it names "this data under these pending deltas".
        self.data_version = 0
        #: ``(installed relation, state it was maintained from)`` of the
        #: last :func:`~repro.db.maintenance.maintain` — see
        #: :meth:`maintained_from`.
        self._maintained: Optional[tuple] = None
        #: Compiled maintenance pipelines, keyed by round signature (see
        #: :func:`repro.db.maintenance.compiled_strategy`).  Entries are
        #: additionally gated on the plan epoch and leaf schemas at
        #: lookup time, so this cache never needs eager invalidation —
        #: :meth:`invalidate_plans` exists for explicit resets (tests).
        self.plan_cache: dict = {}

    # ------------------------------------------------------------------
    def materialize(self) -> Relation:
        """(Re)compute the view from the current base relations."""
        rel = evaluate(self.definition, self.database.leaves())
        rel.name = self.name
        rel.key = self.key
        self._install(rel, None)
        return rel

    def _install(self, rel: Relation, maintained_from: Optional[tuple]) -> None:
        self.data = rel
        self.data_version += 1
        self._maintained = (
            None if maintained_from is None else (rel, maintained_from)
        )
        self.database.register_view_data(self.name, rel)

    def state(self) -> tuple:
        """``(data version, delta stamp)``: what a maintenance strategy
        or cleaning expression evaluated now would read."""
        return (self.data_version, self.database.deltas.stamp)

    def maintained_from(self) -> Optional[tuple]:
        """The :meth:`state` the current data was maintained from, or
        ``None`` when it was installed any other way (materialized, set
        by hand, rolled back)."""
        held = self._maintained
        if held is not None and held[0] is self.data:
            return held[1]
        return None

    def require_data(self) -> Relation:
        """The materialized rows; raises if materialize() was never run."""
        if self.data is None:
            raise MaintenanceError(f"view {self.name!r} is not materialized")
        return self.data

    def set_data(
        self, rel: Relation, maintained_from: Optional[tuple] = None
    ) -> Relation:
        """Install maintained rows as the new materialized state.

        The incoming relation's storage is kept as-is — columnar-backed
        maintenance results stay columnar (rows materialize lazily on
        first read), and row-backed ones share their already-validated
        rows list and their batch, with whatever columns it holds or
        provides — only the key/name are rebranded to the view's.
        ``maintained_from`` is the :meth:`state` the rows were maintained
        from (``maintain()`` passes it; see :meth:`maintained_from`).
        """
        for k in self.key:
            rel.schema.index(k)
        rel = same_rows(rel, key=self.key, name=self.name)
        self._install(rel, maintained_from)
        return rel

    def invalidate_plans(self) -> None:
        """Drop cached compiled maintenance plans (and the shard-plan
        memo) for this view."""
        self.plan_cache.clear()
        if hasattr(self, "_shard_plan_memo"):
            del self._shard_plan_memo

    # ------------------------------------------------------------------
    def fresh_data(self) -> Relation:
        """Ground truth S': the definition over delta-applied bases.

        Used by experiments to measure true errors; a production system
        would not call this (it costs as much as full recomputation).
        """
        rel = evaluate(self.definition, self.database.fresh_leaves())
        rel.name = self.name
        rel.key = self.key
        return rel

    def is_stale(self) -> bool:
        """True when pending deltas touch any base relation of the view."""
        dirty = set(self.database.deltas.dirty_relations())
        return any(leaf.name in dirty for leaf in self.definition.leaves())

    def visible_columns(self) -> Tuple[str, ...]:
        """The user-facing (non-hidden) columns of the view."""
        rel = self.require_data()
        return tuple(c for c in rel.schema.columns if not c.startswith("__"))

    def __repr__(self):
        n = len(self.data) if self.data is not None else "unmaterialized"
        return f"<MaterializedView {self.name} key={self.key} rows={n}>"
