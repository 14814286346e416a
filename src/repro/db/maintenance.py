"""Maintenance strategies M(S, D, ∂D) — paper §3.1 and Ex. 1.

A maintenance strategy is a *relational expression* that evaluates to the
up-to-date view S' given the stale view S, the (stale) base relations D,
and the delta relations ∂D.  Keeping M as an expression is what lets SVC
apply the hashing operator to it and push the sample down (§4.5).

Two strategies are implemented:

* **Change-table (incremental) maintenance** — the classic delta-table
  method of Gupta & Mumick used by the paper's experiments.  The change
  table is the telescoped delta of the view's select-project-join core

      Δ(E) = Σ_i  fresh(R_1..R_{i-1}) ⋈ δR_i ⋈ stale(R_{i+1}..R_k)

  where δR carries a signed multiplicity column ``__mult__`` (+1 for
  insertions, −1 for deletions).  For aggregate (SPJA) views the terms
  are aggregated into additive per-group contributions and merged into
  the stale view (sum/count add; avg via hidden sum/count; min/max via
  insert-only combiners).  For SPJ views the terms carry a term-priority
  column and the merge upserts the freshest version of each row.

* **Full recomputation** — the view definition with every base-relation
  leaf replaced by its fresh version ``(R − ∇R) ∪ ∆R``.  Used for views
  whose structure blocks change tables (nested aggregates, set operations,
  holistic aggregates, min/max under deletions).

Both strategies produce S' exactly; the property tests check them against
each other on randomized inputs.

Execution is batch-native end-to-end: the strategy expression evaluates
through the columnar engine (vectorized σ/Π/⋈/γ), the change-table fold
across dirty relations is a chain of ``Merge`` nodes
(``drop_empty=False``) and the final merge into the stale view a keyed
``Merge`` — all of which run the key-factorized columnar merge of
:mod:`repro.algebra.evaluator`, so a maintenance round needs no Python
per-row work unless a value genuinely does not vectorize.  When the
global shard count (:func:`repro.distributed.shard.set_shard_count`) is
above one, :func:`maintain` partitions the leaf environment per shard
and evaluates the same expression shard-parallel (see
``docs/maintenance.md`` and ``docs/sharding.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.compiler import CompiledPlan, compile_plan, compiled_evaluate
from repro.algebra.evaluator import GROUP_COUNT
from repro.algebra.expressions import (
    AggSpec,
    Aggregate,
    BaseRel,
    Combiner,
    Difference,
    Expr,
    Join,
    Merge,
    Output,
    Project,
    Select,
    Union,
)
from repro.algebra.predicates import Col, Const, Tup
from repro.db.deltas import deletions_name, insertions_name
from repro.errors import MaintenanceError

#: Signed multiplicity column threaded through change-table terms.
MULT = "__mult__"
#: Term-priority column for SPJ change tables (freshest term wins).
TERM = "__term__"

CHANGE_TABLE = "change_table"
RECOMPUTE = "recompute"


# ----------------------------------------------------------------------
# Structural helpers
# ----------------------------------------------------------------------
def is_spj(expr: Expr) -> bool:
    """True when ``expr`` uses only σ, Π, ⋈ over base relations."""
    if isinstance(expr, BaseRel):
        return True
    if isinstance(expr, (Select, Project)):
        return is_spj(expr.children()[0])
    if isinstance(expr, Join):
        return is_spj(expr.left) and is_spj(expr.right)
    return False


def replace_leaves(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace every BaseRel leaf whose name is in ``mapping``.

    Shared replacement nodes should be reused by the caller so the
    evaluator's per-call memoization can kick in.
    """
    if isinstance(expr, BaseRel):
        return mapping.get(expr.name, expr)
    kids = [replace_leaves(c, mapping) for c in expr.children()]
    return expr.with_children(kids)


def fresh_expr(name: str) -> Expr:
    """The fresh version of a base relation: ``(R − ∇R) ∪ ∆R``."""
    return Union(
        Difference(BaseRel(name), BaseRel(deletions_name(name))),
        BaseRel(insertions_name(name)),
    )


def signed_delta_expr(name: str, columns, term_index: Optional[int] = None) -> Expr:
    """δR: insertions with ``__mult__``=+1 union deletions with −1.

    When ``term_index`` is given a constant ``__term__`` column is added
    (used by SPJ change tables to rank contribution freshness).
    """
    def project(leaf_name: str, mult: int) -> Project:
        """Tag one delta leaf with its signed multiplicity column."""
        outputs = [Output(c, Col(c)) for c in columns]
        outputs.append(Output(MULT, Const(mult)))
        if term_index is not None:
            outputs.append(Output(TERM, Const(term_index)))
        return Project(BaseRel(leaf_name), outputs)

    return Union(project(insertions_name(name), 1), project(deletions_name(name), -1))


def _thread_extra(expr: Expr, extra: List[str], counter: List[int], target: int,
                  database, term_index: Optional[int], fresh_cache: Dict[str, Expr]):
    """Rewrite an SPJ core replacing leaf occurrence ``target`` with its
    signed delta, earlier occurrences with fresh versions, later ones kept
    stale; thread the ``extra`` columns up through projections.

    Returns (new_expr, contains_delta_branch).
    """
    if isinstance(expr, BaseRel):
        j = counter[0]
        counter[0] += 1
        if j == target:
            cols = database.relation(expr.name).schema.columns
            return signed_delta_expr(expr.name, cols, term_index), True
        if j < target:
            if expr.name not in fresh_cache:
                fresh_cache[expr.name] = fresh_expr(expr.name)
            return fresh_cache[expr.name], False
        return expr, False
    if isinstance(expr, Select):
        child, has = _thread_extra(
            expr.child, extra, counter, target, database, term_index, fresh_cache
        )
        return Select(child, expr.predicate), has
    if isinstance(expr, Project):
        child, has = _thread_extra(
            expr.child, extra, counter, target, database, term_index, fresh_cache
        )
        outputs = list(expr.outputs)
        if has:
            outputs.extend(Output(c, Col(c)) for c in extra)
        return Project(child, outputs), has
    if isinstance(expr, Join):
        left, lhas = _thread_extra(
            expr.left, extra, counter, target, database, term_index, fresh_cache
        )
        right, rhas = _thread_extra(
            expr.right, extra, counter, target, database, term_index, fresh_cache
        )
        return (
            Join(left, right, expr.on, expr.how, expr.foreign_key, expr.theta),
            lhas or rhas,
        )
    raise MaintenanceError(f"not an SPJ node: {type(expr).__name__}")


# ----------------------------------------------------------------------
# Strategy construction
# ----------------------------------------------------------------------
class MaintenanceStrategy:
    """A concrete maintenance strategy for one materialized view."""

    def __init__(self, view, kind: str, expr: Expr):
        self.view = view
        self.kind = kind
        self.expr = expr

    def __repr__(self):
        return f"<MaintenanceStrategy {self.view.name} kind={self.kind}>"


def classify_view(definition: Expr) -> str:
    """Which strategy the view structure admits (change table preferred)."""
    if isinstance(definition, Aggregate):
        core_ok = is_spj(definition.child)
        aggs_ok = all(
            a.func in ("count", "sum", "avg", "min", "max")
            for a in definition.aggs
        )
        if core_ok and aggs_ok:
            return CHANGE_TABLE
        return RECOMPUTE
    if is_spj(definition):
        return CHANGE_TABLE
    return RECOMPUTE


def build_strategy(view, kind: Optional[str] = None) -> MaintenanceStrategy:
    """Construct the maintenance strategy expression for a view.

    ``kind`` forces a strategy; by default the structure chooses (change
    table when possible, else recomputation).
    """
    definition = view.definition
    if kind is None:
        kind = classify_view(definition)
    if kind == RECOMPUTE:
        return MaintenanceStrategy(view, RECOMPUTE, recompute_strategy(view))
    if isinstance(definition, Aggregate):
        return MaintenanceStrategy(view, CHANGE_TABLE, _spja_strategy(view))
    return MaintenanceStrategy(view, CHANGE_TABLE, _spj_strategy(view))


def recompute_strategy(view) -> Expr:
    """M = the view definition over fresh base relations."""
    fresh_cache: Dict[str, Expr] = {}
    mapping = {}
    for leaf in view.definition.leaves():
        name = leaf.name
        if name in view.database.relation_names() and name not in mapping:
            if name not in fresh_cache:
                fresh_cache[name] = fresh_expr(name)
            mapping[name] = fresh_cache[name]
    return replace_leaves(view.definition, mapping)


def _dirty_occurrences(core: Expr, database) -> List[int]:
    """Leaf occurrences whose base relation has pending deltas.

    Change-table terms are only needed for dirty relations: a term whose
    delta leaf is empty evaluates to nothing but still forces the fresh
    versions of the other relations to materialize, so skipping clean
    occurrences keeps maintenance cost proportional to the update.
    """
    dirty = set(database.deltas.dirty_relations())
    return [
        i for i, leaf in enumerate(core.leaves()) if leaf.name in dirty
    ]


def _spja_strategy(view) -> Expr:
    """Change-table strategy for a top-level aggregate over an SPJ core."""
    definition: Aggregate = view.definition
    core = definition.child
    group_by = definition.group_by

    change_aggs: List[AggSpec] = []
    merge_combiners: List[Combiner] = [Combiner(g, "group") for g in group_by]
    fold_combiners: List[Combiner] = [Combiner(g, "group") for g in group_by]
    from repro.db.view import hidden_sum_name

    for spec in definition.aggs:
        if spec.func == "count":
            change_aggs.append(AggSpec(spec.name, "sum", Col(MULT)))
            merge_combiners.append(Combiner(spec.name, "add"))
            fold_combiners.append(Combiner(spec.name, "add"))
        elif spec.func == "sum":
            change_aggs.append(AggSpec(spec.name, "sum", spec.term * Col(MULT)))
            merge_combiners.append(Combiner(spec.name, "add"))
            fold_combiners.append(Combiner(spec.name, "add"))
        elif spec.func == "avg":
            merge_combiners.append(
                Combiner(spec.name, "ratio", (hidden_sum_name(spec.name), GROUP_COUNT))
            )
        elif spec.func in ("min", "max"):
            change_aggs.append(
                AggSpec(spec.name, f"delta_{spec.func}", Tup(Col(MULT), spec.term))
            )
            merge_combiners.append(Combiner(spec.name, spec.func))
            fold_combiners.append(Combiner(spec.name, spec.func))
        else:
            raise MaintenanceError(
                f"aggregate {spec.func!r} is not change-table maintainable"
            )

    fresh_cache: Dict[str, Expr] = {}
    change: Optional[Expr] = None
    for i in _dirty_occurrences(core, view.database):
        counter = [0]
        core_i, has = _thread_extra(
            core, [MULT], counter, i, view.database, None, fresh_cache
        )
        if not has:
            raise MaintenanceError("change-table term lost its delta branch")
        ct_i = Aggregate(core_i, group_by, change_aggs)
        if change is None:
            change = ct_i
        else:
            change = Merge(change, ct_i, group_by, fold_combiners, drop_empty=False)
    if change is None:
        # Nothing is dirty: maintenance is the identity on the stale view.
        return BaseRel(view.name)
    return Merge(BaseRel(view.name), change, view.key, merge_combiners)


def _spj_strategy(view) -> Expr:
    """Change-table strategy for a select-project-join view."""
    core = view.definition
    key = view.key
    leaves = view.database.leaves()
    from repro.algebra.keys import derive_schema

    core_schema = derive_schema(core, leaves)
    value_cols = [c for c in core_schema.columns if c not in key]

    fresh_cache: Dict[str, Expr] = {}
    terms: Optional[Expr] = None
    for i in _dirty_occurrences(core, view.database):
        counter = [0]
        core_i, has = _thread_extra(
            core, [MULT, TERM], counter, i, view.database, i, fresh_cache
        )
        if not has:
            raise MaintenanceError("change-table term lost its delta branch")
        if not isinstance(core_i, Project):
            # Bare joins/selects do not thread extra columns; wrap them.
            outputs = [Output(c, Col(c)) for c in core_schema.columns]
            outputs.append(Output(MULT, Col(MULT)))
            outputs.append(Output(TERM, Col(TERM)))
            core_i = Project(core_i, outputs)
        terms = core_i if terms is None else Union(terms, core_i)
    if terms is None:
        # Nothing is dirty: maintenance is the identity on the stale view.
        return BaseRel(view.name)

    # Priority: (term index + 1) signed by the multiplicity, so insertions
    # from fresher terms dominate and pure deletions rank negative.
    priority = (Col(TERM) + 1) * Col(MULT)
    aggs = [AggSpec(c, "pick", Tup(priority, Col(c))) for c in value_cols]
    aggs.append(AggSpec(GROUP_COUNT, "sum", Col(MULT)))
    change = Aggregate(terms, key, aggs)

    combiners = [Combiner(k, "group") for k in key]
    combiners.extend(Combiner(c, "replace") for c in value_cols)
    return Merge(BaseRel(view.name), change, key, combiners)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Entry cap for the per-view compiled-plan cache (distinct round
#: signatures per view are few: dirty-leaf subsets × the min/max flag).
VIEW_PLAN_CACHE_LIMIT = 8


def plan_signature(view) -> tuple:
    """What the shape of this round's strategy depends on.

    :func:`choose_strategy` builds one expression per (set of dirty view
    leaves, min/max-deletions flag): change-table terms exist only for
    dirty occurrences, and pending deletions under min/max force
    recomputation.  Rounds with equal signatures therefore share one
    strategy/plan pair.
    """
    database = view.database
    leaf_names = {leaf.name for leaf in view.definition.leaves()}
    dirty = frozenset(
        name
        for name in database.deltas.dirty_relations()
        if name in leaf_names
    )
    minmax_deletions = False
    if isinstance(view.definition, Aggregate) and any(
        a.func in ("min", "max") for a in view.definition.aggs
    ):
        for name in dirty:
            delta = database.deltas.get(name)
            if delta is not None and delta.deleted:
                minmax_deletions = True
                break
    return (dirty, minmax_deletions)


def compiled_strategy(view) -> Tuple[MaintenanceStrategy, CompiledPlan]:
    """The view's cached (strategy, compiled plan) for the current round.

    The cache lives on the view (see ``MaterializedView.plan_cache``)
    keyed by :func:`plan_signature`; a hit is revalidated against the
    plan epoch and leaf schemas before reuse, so toggle flips and schema
    changes recompile instead of serving a stale pipeline.
    """
    signature = plan_signature(view)
    cache = view.plan_cache
    hit = cache.get(signature)
    if hit is not None:
        strategy, plan = hit
        if plan.valid_for(view.database.leaves()):
            return strategy, plan
    strategy = choose_strategy(view)
    plan = compile_plan(strategy.expr, view.database.leaves())
    if len(cache) >= VIEW_PLAN_CACHE_LIMIT:
        cache.clear()
    cache[signature] = (strategy, plan)
    return strategy, plan


def choose_strategy(view) -> MaintenanceStrategy:
    """Pick a strategy valid for the *current* deltas.

    min/max change tables are insert-only; when deletions are pending the
    view falls back to recomputation for this round.
    """
    kind = classify_view(view.definition)
    if kind == CHANGE_TABLE and isinstance(view.definition, Aggregate):
        has_minmax = any(a.func in ("min", "max") for a in view.definition.aggs)
        if has_minmax:
            dirty = view.database.deltas.dirty_relations()
            for name in dirty:
                delta = view.database.deltas.get(name)
                if delta is not None and delta.deleted:
                    return build_strategy(view, RECOMPUTE)
    return build_strategy(view, kind)


def maintain(view, strategy: Optional[MaintenanceStrategy] = None):
    """Bring one materialized view up to date; returns the new relation.

    When the global shard count (:func:`repro.distributed.shard.
    set_shard_count`) is above one and the view's structure admits
    partitioning, maintenance runs shard-parallel and the per-shard
    results are concatenated; otherwise this is the single-shard
    reference path.  Does not fold the deltas into the base relations —
    call ``database.apply_deltas()`` once every registered view (and
    every SVC sample) has been maintained for the period.

    When auto-tuning is enabled (:func:`repro.tuning.set_auto_tune` —
    off by default), the round is routed through the tuner: it picks
    the shard/engine configuration its cost model predicts cheapest for
    this round's workload, runs the identical maintenance logic under
    it, and learns from the observed cost.  The tuner only moves the
    existing global toggles, so the maintained result is the same
    relation either way (``tests/tuning/test_decision_equivalence.py``).
    """
    from repro.tuning.tuner import active_tuner

    tuner = active_tuner()
    if tuner is not None:
        return tuner.run_round(view, lambda: _maintain_impl(view, strategy))
    return _maintain_impl(view, strategy)


def _maintain_impl(view, strategy: Optional[MaintenanceStrategy] = None):
    """The untuned maintenance round (see :func:`maintain`)."""
    plan = None
    if strategy is None:
        strategy, plan = compiled_strategy(view)
    source = view.state()
    result = None
    from repro.distributed.shard import get_shard_count

    if get_shard_count() > 1:
        from repro.distributed.shard import maintain_sharded

        result = maintain_sharded(view, strategy)
    if result is None:
        leaves = view.database.leaves()
        if plan is not None and plan.valid_for(leaves):
            result = plan.execute(leaves)
        else:
            # Caller-supplied strategies still compile (and hit the
            # global fingerprint-keyed cache on repeats).
            result = compiled_evaluate(strategy.expr, leaves)
    return view.set_data(result, maintained_from=source)
