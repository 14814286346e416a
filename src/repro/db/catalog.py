"""View catalog: the set of materialized views over one database.

Production deployments of SVC keep many views per database (dashboards,
per-dimension slices); the catalog coordinates their maintenance and the
end-of-period delta application.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.algebra.expressions import Expr
from repro.db.database import Database
from repro.db.maintenance import MaintenanceStrategy, choose_strategy, maintain
from repro.db.view import MaterializedView
from repro.errors import MaintenanceError


class Catalog:
    """Registry and maintenance coordinator for materialized views."""

    def __init__(self, database: Database):
        self.database = database
        self._views: Dict[str, MaterializedView] = {}

    def create_view(self, name: str, definition: Expr) -> MaterializedView:
        """Define, register and materialize a view."""
        if name in self._views:
            raise MaintenanceError(f"view {name!r} already exists")
        view = MaterializedView(name, definition, self.database)
        view.materialize()
        self._views[name] = view
        return view

    def drop_view(self, name: str) -> None:
        """Remove a view from the catalog."""
        if name not in self._views:
            raise MaintenanceError(f"no view named {name!r}")
        del self._views[name]

    def view(self, name: str) -> MaterializedView:
        """Look up a registered view."""
        try:
            return self._views[name]
        except KeyError:
            raise MaintenanceError(f"no view named {name!r}") from None

    def views(self) -> List[MaterializedView]:
        """All registered views."""
        return list(self._views.values())

    def __iter__(self) -> Iterator[MaterializedView]:
        return iter(self._views.values())

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def maintain_all(
        self, strategies: Optional[Dict[str, MaintenanceStrategy]] = None,
        apply_deltas: bool = True, shards=None,
    ) -> None:
        """Run one maintenance period: update every view, fold deltas.

        ``strategies`` optionally overrides the per-view strategy (e.g. a
        pre-built one reused across periods).  ``shards`` overrides the
        global shard count for this period only (views whose structure
        does not admit partitioning still run single-shard).
        """
        from repro.distributed.shard import set_shard_count

        old = set_shard_count(shards) if shards is not None else None
        try:
            for view in self._views.values():
                strategy = None
                if strategies is not None:
                    strategy = strategies.get(view.name)
                if strategy is None:
                    strategy = choose_strategy(view)
                maintain(view, strategy)
        finally:
            if old is not None:
                set_shard_count(old)
        if apply_deltas:
            self.database.apply_deltas()
