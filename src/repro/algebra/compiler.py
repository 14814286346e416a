"""Plan compilation: maintenance expressions as fused columnar pipelines.

:func:`compile_plan` turns one expression tree into a
:class:`CompiledPlan` — a topologically ordered list of *stages* over a
``materialized`` slot table — so a steady-state maintenance round no
longer re-walks the strategy tree operator by operator:

* **Structural CSE.**  Nodes are fingerprinted by :func:`plan_key`
  (shape + predicates + literals, not object identity), so subtrees the
  strategy builder duplicated — the fresh version of a base relation
  appearing in several change-table terms — compile to *one* stage whose
  result every consumer reads from the ``materialized`` map.  This
  subsumes the interpreter's per-call ``id()`` memo: identical subtrees
  are shared even when they are distinct objects.
* **σ/Π chain fusion.**  A run of selections and projections whose
  intermediate results have no other consumer compiles into one
  :class:`_ChainStage`: the selection masks are combined and applied as
  a single gather over the input batch and projections ride the same
  batch, so no intermediate relation is ever assembled.
* **Reference fallback per stage.**  Every fused stage wraps its fast
  body in the same contract as the interpreter's columnar paths: any
  failure demotes *that stage* to :func:`repro.algebra.evaluator._eval`
  with the already-materialized inputs seeded into the memo, which
  reproduces the reference result or raises the reference error.
  Operators without a fusion rule (joins, aggregates, merges, η, set
  ops) compile to :class:`_NodeStage`, which delegates straight to the
  interpreter's operator implementation — columnar fast paths, leaf
  sample caches and row fallbacks included — so compiled execution is
  value-identical to :func:`repro.algebra.evaluator.evaluate` by
  construction.  That includes the disjoint-union concatenation, which
  lives in the evaluator so interpreted plans take it too.

Plans are cached and invalidated, never mutated:

* a global **plan epoch** (:func:`plan_epoch`) is bumped by every toggle
  that changes evaluation semantics or environment layout —
  ``set_columnar_enabled``, ``set_hash_family``, ``set_shard_count`` —
  and every cached plan checks it before reuse;
* each plan records a **leaf signature** (schema + key per referenced
  leaf), so schema changes invalidate without an explicit hook;
* :func:`compiled_evaluate` is the drop-in replacement for ``evaluate``
  backed by a bounded fingerprint-keyed cache — shard workers call it
  per task, so a pool compiles each strategy shape once per lifetime.

See ``docs/compiler.md`` for the lifecycle and the fusion-rule table.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.algebra import evaluator as _ev
from repro.algebra.expressions import (
    Aggregate,
    BaseRel,
    Difference,
    Expr,
    Hash,
    Intersect,
    Join,
    Merge,
    Project,
    Select,
    Union,
)
from repro.algebra.keys import derive_key
from repro.algebra.predicates import (
    And,
    Between,
    BinOp,
    Col,
    Comparison,
    Const,
    Func,
    IsIn,
    Not,
    Or,
    TruePredicate,
    Tup,
)
from repro.algebra.relation import Relation
from repro.caches import invalidate_caches, register_cache
from repro.errors import KeyDerivationError

# ----------------------------------------------------------------------
# Plan epoch: global invalidation for every toggle that changes
# evaluation semantics or environment layout.
# ----------------------------------------------------------------------
_EPOCH = [0]

#: Entry cap for the global fingerprint-keyed plan cache.
PLAN_CACHE_LIMIT = 256

_PLAN_CACHE: Dict[tuple, "CompiledPlan"] = {}

# Monotone counter of compile_plan calls — lets tests and benchmarks
# assert that steady-state rounds reuse plans instead of recompiling.
_COMPILE_COUNT = [0]


def plan_epoch() -> int:
    """The current plan epoch; cached plans from older epochs are stale."""
    return _EPOCH[0]


def bump_plan_epoch() -> int:
    """Invalidate every cached plan (toggle hooks call this); returns new epoch.

    The drain goes through the central :mod:`repro.caches` registry, so
    every cache subscribed to the ``"plan_epoch"`` reason — this
    module's plan cache, the mini-batch calibration memo, and anything a
    future module registers — is dropped in one place instead of each
    toggle knowing every cache.
    """
    # repro: ignore[REP006] -- single-writer by contract: only the coordinator flips toggles; a forked worker applying coordinator toggles bumps its own copied epoch
    _EPOCH[0] += 1
    invalidate_caches("plan_epoch")
    return _EPOCH[0]


def compile_count() -> int:
    """Total number of plan compilations in this process (test hook)."""
    return _COMPILE_COUNT[0]


def clear_plan_cache() -> None:
    """Drop the global plan cache (tests)."""
    _PLAN_CACHE.clear()


register_cache(
    "algebra.compiler.plan_cache",
    clear=clear_plan_cache,
    invalidate_on=("plan_epoch",),
    size=lambda: len(_PLAN_CACHE),
    description="compiled maintenance pipelines keyed by plan fingerprint",
)


# ----------------------------------------------------------------------
# Structural fingerprints
# ----------------------------------------------------------------------
def _value_key(value) -> tuple:
    """Type-tagged literal key: ``1``, ``1.0`` and ``True`` must not unify
    (they compare equal, but project/compare to different output values)."""
    return (type(value).__name__, repr(value))


def _term_key(term):
    """Structural fingerprint of a predicate/term tree (hashable tuple)."""
    if term is None:
        return None
    if isinstance(term, Col):
        return ("col", term.name)
    if isinstance(term, Const):
        return ("const",) + _value_key(term.value)
    if isinstance(term, BinOp):
        return ("binop", term.op, _term_key(term.left), _term_key(term.right))
    if isinstance(term, Tup):
        return ("tup",) + tuple(_term_key(t) for t in term.terms)
    if isinstance(term, Func):
        # The function object itself is part of the key: two Funcs are
        # interchangeable only when they run the same code.  Holding the
        # reference (not just ``id``) keeps it alive against id reuse.
        return ("func", term.label, term.fn) + tuple(
            _term_key(a) for a in term.args
        )
    if isinstance(term, Comparison):
        return ("cmp", term.op, _term_key(term.left), _term_key(term.right))
    if isinstance(term, And):
        return ("and",) + tuple(_term_key(p) for p in term.parts)
    if isinstance(term, Or):
        return ("or",) + tuple(_term_key(p) for p in term.parts)
    if isinstance(term, Not):
        return ("not", _term_key(term.part))
    if isinstance(term, IsIn):
        values = tuple(sorted(_value_key(v) for v in term.values))
        return ("isin", _term_key(term.term), values)
    if isinstance(term, Between):
        return (
            "between",
            _term_key(term.term),
            _value_key(term.lo),
            _value_key(term.hi),
        )
    if isinstance(term, TruePredicate):
        return ("true",)
    # Unknown term type: fall back to identity (never merges wrongly).
    return ("opaque", id(term))


def plan_key(expr: Expr) -> tuple:
    """Structural fingerprint of an expression tree.

    Two trees with equal keys evaluate identically in every environment,
    so the key addresses both the CSE slot table and the plan cache.
    """
    return _plan_key(expr, {})


def _plan_key(expr: Expr, memo: dict) -> tuple:
    got = memo.get(id(expr))
    if got is None:
        got = _plan_key_inner(expr, memo)
        memo[id(expr)] = got
    return got


def _plan_key_inner(expr: Expr, memo: dict) -> tuple:
    if isinstance(expr, BaseRel):
        return ("base", expr.name)
    if isinstance(expr, Select):
        return ("select", _plan_key(expr.child, memo), _term_key(expr.predicate))
    if isinstance(expr, Project):
        outs = tuple((o.name, _term_key(o.term)) for o in expr.outputs)
        return ("project", _plan_key(expr.child, memo), outs)
    if isinstance(expr, Join):
        return (
            "join",
            _plan_key(expr.left, memo),
            _plan_key(expr.right, memo),
            tuple(expr.on),
            expr.how,
            bool(expr.foreign_key),
            _term_key(expr.theta),
        )
    if isinstance(expr, Aggregate):
        aggs = tuple((a.name, a.func, _term_key(a.term)) for a in expr.aggs)
        return ("agg", _plan_key(expr.child, memo), tuple(expr.group_by), aggs)
    if isinstance(expr, (Union, Intersect, Difference)):
        return (
            type(expr).__name__.lower(),
            _plan_key(expr.left, memo),
            _plan_key(expr.right, memo),
        )
    if isinstance(expr, Hash):
        return (
            "hash",
            _plan_key(expr.child, memo),
            tuple(expr.attrs),
            expr.ratio,
            expr.seed,
        )
    if isinstance(expr, Merge):
        combs = tuple((c.column, c.mode, c.args) for c in expr.combiners)
        return (
            "merge",
            _plan_key(expr.stale, memo),
            _plan_key(expr.change, memo),
            tuple(expr.key),
            combs,
            bool(expr.drop_empty),
        )
    return ("opaque", id(expr))


def leaf_signature(expr: Expr, leaves: Mapping) -> tuple:
    """Schema+key of every leaf the plan reads — its environment contract.

    A compiled plan bakes in compile-time schema decisions (combined
    masks, passthrough maps, the derived key), so it is only reusable
    while every referenced leaf still has the schema and key it was
    compiled against.
    """
    getter = leaves.get if hasattr(leaves, "get") else lambda _name: None
    sig = []
    for name in sorted({leaf.name for leaf in expr.leaves()}):
        rel = getter(name)
        if rel is None:
            sig.append((name, None, None))
        else:
            key = getattr(rel, "key", None)
            sig.append(
                (name, tuple(rel.schema.columns), tuple(key) if key else None)
            )
    return tuple(sig)


def _is_indexed_membership(expr: Select) -> bool:
    """The σ_{col ∈ K}(BaseRel) shape served by the leaf value index.

    That fast path returns rows in *key-set iteration order*, not scan
    order, so it must stay a generic stage — folding it into a mask
    chain would reorder its output.
    """
    return (
        isinstance(expr.child, BaseRel)
        and isinstance(expr.predicate, IsIn)
        and isinstance(expr.predicate.term, Col)
    )


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------
class _Stage:
    """One pipeline step: computes the relation for ``slot``.

    ``run`` reads its inputs from the ``materialized`` slot table and
    returns the stage's output relation; :meth:`CompiledPlan.execute`
    stores it back under ``slot``.
    """

    __slots__ = ("slot", "expr")
    kind = "node"

    def __init__(self, expr: Expr):
        self.slot = -1
        self.expr = expr

    def run(self, leaves: Mapping, materialized: list) -> Relation:
        raise NotImplementedError


class _LeafStage(_Stage):
    """A base-relation leaf, wrapped exactly as the interpreter wraps it
    (shared rows list and columnar cache — nothing is copied)."""

    __slots__ = ()
    kind = "leaf"

    def run(self, leaves, materialized):
        return _ev._eval_inner(self.expr, leaves, {})


class _NodeStage(_Stage):
    """One operator evaluated by the reference engine.

    The interpreter memo is pre-seeded with the already-materialized
    child slots, so ``_eval_inner`` resolves exactly this node — with
    its columnar fast paths, leaf caches and row fallbacks — and nothing
    below it.
    """

    __slots__ = ("inputs",)
    kind = "node"

    def __init__(self, expr: Expr, inputs: List[Tuple[Expr, int]]):
        super().__init__(expr)
        self.inputs = inputs

    def run(self, leaves, materialized):
        memo = {id(child): materialized[slot] for child, slot in self.inputs}
        return _ev._eval_inner(self.expr, leaves, memo)


class _ChainStage(_Stage):
    """A fused σ*/Π* chain over a single input batch.

    ``ops`` lists the chain bottom-up: ``("select", [predicates])``
    entries combine consecutive selection masks into one gather,
    ``("project", node)`` entries are the interpreter's column-lazy Π
    over the same batch.  Combined masks are evaluated over
    the *unfiltered* input — safe because a vectorized predicate that
    succeeds on a superset of rows yields identical per-row values on
    the subset — and any failure anywhere demotes the whole stage to the
    interpreter, which re-applies the chain operator by operator and
    reproduces the reference result or error.
    """

    __slots__ = ("ops", "child_expr", "child_slot")
    kind = "chain"

    def __init__(self, expr: Expr, ops: list, child_expr: Expr, child_slot: int):
        super().__init__(expr)
        self.ops = ops
        self.child_expr = child_expr
        self.child_slot = child_slot

    def run(self, leaves, materialized):
        child = materialized[self.child_slot]
        if _ev.columnar_enabled():
            out = self._fused(child)
            if out is not None:
                return out
        return _ev._eval(self.expr, leaves, {id(self.child_expr): child})

    def _fused(self, child: Relation) -> Optional[Relation]:
        try:
            rel = child
            for op, payload in self.ops:
                if op == "select":
                    if not len(rel):
                        # The row path validates predicate binding even
                        # on empty inputs; let the interpreter do that.
                        return None
                    combined = None
                    for pred in payload:
                        mask = _ev._try_mask(pred, rel)
                        if mask is None:
                            return None
                        mask = np.asarray(mask, dtype=bool)
                        combined = mask if combined is None else combined & mask
                    batch = rel.columnar().take(np.flatnonzero(combined))
                    rel = Relation.from_columnar(batch)
                else:
                    rel = _ev._try_project(payload, rel)
                    if rel is None:
                        return None
            return rel
        except Exception:
            return None


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class CompiledPlan:
    """A fused physical pipeline for one expression tree.

    ``stages`` are topologically ordered; :meth:`execute` runs them over
    a fresh ``materialized`` slot table and rebrands the root relation
    with the compile-time derived key.  :meth:`valid_for` gates reuse on
    the plan epoch (toggle invalidation) and the leaf signature (schema
    invalidation).
    """

    def __init__(self, expr, stages, root_slot, key, leaf_sig, epoch):
        self.expr = expr
        self.stages = stages
        self.root_slot = root_slot
        self.key = key
        self.leaf_sig = leaf_sig
        self.epoch = epoch

    def valid_for(self, leaves: Mapping) -> bool:
        """True while the plan may be reused against ``leaves``."""
        return self.epoch == _EPOCH[0] and (
            leaf_signature(self.expr, leaves) == self.leaf_sig
        )

    def execute(self, leaves: Mapping) -> Relation:
        """Run the pipeline; returns the keyed result relation."""
        materialized: List[Optional[Relation]] = [None] * len(self.stages)
        for stage in self.stages:
            materialized[stage.slot] = stage.run(leaves, materialized)
        rel = materialized[self.root_slot]
        rel.key = self.key
        return rel

    def stage_kinds(self) -> List[str]:
        """Stage kinds in execution order (``leaf``/``node``/``chain``)
        — lets tests assert which fusions fired."""
        return [stage.kind for stage in self.stages]

    def __repr__(self):
        return (
            f"<CompiledPlan stages={len(self.stages)} "
            f"epoch={self.epoch} key={self.key}>"
        )


def compile_plan(expr: Expr, leaves: Mapping) -> CompiledPlan:
    """Compile ``expr`` into a fused pipeline against ``leaves``.

    The environment only contributes schemas/keys (captured in the leaf
    signature); the returned plan can be executed against any leaf
    mapping with the same signature.
    """
    # repro: ignore[REP006] -- monotone test-hook counter; a lost increment under thread workers skews a diagnostic count, never a result
    _COMPILE_COUNT[0] += 1
    key_memo: Dict[int, tuple] = {}
    node_by_key: Dict[tuple, Expr] = {}
    refs: Dict[tuple, int] = {}

    # Pass 1: the structural DAG — one canonical node per fingerprint,
    # and per-key reference counts (a chain may only absorb a node whose
    # result no other parent reads).
    def visit(node: Expr) -> None:
        k = _plan_key(node, key_memo)
        if k in node_by_key:
            return
        node_by_key[k] = node
        for child in node.children():
            ck = _plan_key(child, key_memo)
            refs[ck] = refs.get(ck, 0) + 1
            visit(child)

    visit(expr)

    columnar = _ev.columnar_enabled()
    stages: List[_Stage] = []
    slot_by_key: Dict[tuple, int] = {}

    def chain_absorbs(node: Expr) -> bool:
        """May ``node`` be folded into a σ/Π chain (vs owning a slot)?"""
        if isinstance(node, Select):
            return not _is_indexed_membership(node)
        return isinstance(node, Project) and bool(node.outputs)

    def collect_chain(top: Expr):
        """The maximal absorbable chain under ``top`` (its own objects,
        so the demotion memo seeds by the identity the interpreter will
        actually descend through); returns (ops bottom-up, bottom child).
        """
        nodes = [top]
        cur = top
        while True:
            child = cur.children()[0]
            if (
                isinstance(child, (Select, Project))
                and refs.get(_plan_key(child, key_memo), 0) <= 1
                and chain_absorbs(child)
            ):
                nodes.append(child)
                cur = child
                continue
            break
        ops: list = []
        for node in reversed(nodes):
            if isinstance(node, Select):
                if ops and ops[-1][0] == "select":
                    ops[-1][1].append(node.predicate)
                else:
                    ops.append(("select", [node.predicate]))
            else:
                ops.append(("project", node))
        return ops, cur.children()[0]

    def compile_node(node: Expr) -> int:
        k = _plan_key(node, key_memo)
        got = slot_by_key.get(k)
        if got is not None:
            return got
        node = node_by_key[k]
        if isinstance(node, BaseRel):
            stage: _Stage = _LeafStage(node)
        elif columnar and chain_absorbs(node):
            ops, bottom = collect_chain(node)
            stage = _ChainStage(node, ops, bottom, compile_node(bottom))
        else:
            inputs = [(child, compile_node(child)) for child in node.children()]
            stage = _NodeStage(node, inputs)
        stage.slot = len(stages)
        slot_by_key[k] = stage.slot
        stages.append(stage)
        return stage.slot

    root_slot = compile_node(expr)
    try:
        key = derive_key(expr, leaves)
    except KeyDerivationError:
        key = None
    except Exception:
        # A broken environment (missing leaf) must surface the reference
        # error at *execution* time, exactly where evaluate() raises it.
        key = None
    return CompiledPlan(
        expr, stages, root_slot, key, leaf_signature(expr, leaves), _EPOCH[0]
    )


def compiled_evaluate(expr: Expr, leaves: Mapping) -> Relation:
    """Drop-in for :func:`repro.algebra.evaluator.evaluate` through the
    bounded global plan cache.

    Structurally identical expressions — e.g. the per-round strategy
    trees a shard worker receives — hit the same cached plan, so each
    shape compiles once per process (pool) lifetime.
    """
    key = plan_key(expr)
    plan = _PLAN_CACHE.get(key)
    if plan is None or not plan.valid_for(leaves):
        plan = compile_plan(expr, leaves)
        if len(_PLAN_CACHE) >= PLAN_CACHE_LIMIT:
            # repro: ignore[REP006] -- benign memo maintenance under the GIL: dict clear/set are atomic and a racing thread at worst recompiles
            _PLAN_CACHE.clear()
        # repro: ignore[REP006] -- benign memo write under the GIL: entries are idempotent per key (same expr fingerprint -> equivalent plan)
        _PLAN_CACHE[key] = plan
    return plan.execute(leaves)
