"""Expression evaluation: a batch-native columnar engine over a row core.

:func:`evaluate` executes an expression tree bottom-up against a leaf
resolver (mapping relation name -> :class:`Relation`) and returns a new
:class:`Relation` whose primary key is derived per Def 2.

Every operator has a reference row-at-a-time implementation that defines
the semantics.  The hot operators additionally have *columnar* fast
paths which exchange :class:`~repro.algebra.columnar.ColumnarRelation`
batches end-to-end: σ and η outputs are index gathers over their child's
batch, Π aliases its child's columns (computing only other terms, opaque
functions included), ∪ / ∩ / − compare only the rows their inputs can
share, equality ⋈ runs a vectorized hash join (key factorization via
``np.unique`` integer codes, grouped build offsets, fancy-indexed output
gathers), and γ reduces grouped columns ``reduceat``-style.  Row tuples
are only rebuilt at the evaluator boundary, when a consumer reads
``.rows`` — a multi-operator maintenance plan never rematerializes the
columns it already has.  Each fast path is abandoned (per operator, per
aggregate spec) whenever a value does not vectorize cleanly, so results
are identical to the row path by construction.
:func:`set_columnar_enabled` switches the fast paths off globally, which
the equivalence tests and the ``bench_vectorized_eval`` /
``bench_vectorized_join`` microbenchmarks use to compare the engines.

Implementation notes
--------------------
* Equality joins are hash joins (build on the right input).  The
  columnar path factorizes both sides' keys into dense integer codes
  (one ``np.unique`` over the concatenated key columns; multi-column
  keys re-factorize the stacked per-column codes), sorts the build side
  by code once, and expands each probe row's matches with pure index
  arithmetic — the output is a provider-backed batch whose columns are
  gathered on demand.  Object-dtype keys (``None``-bearing columns,
  exotic values), NaN keys, and int/float key pairs beyond 2**53 fall
  back to the reference row join; theta-only joins always use it.
* Outer joins pad the missing side with ``None`` (padded columns drop to
  object dtype, which downstream operators treat null-aware); equality
  columns that share a name on both sides collapse to a single output
  column which always carries the key value regardless of which side
  matched.
* The η operator filters rows whose key hash (``repro.stats.hashing``)
  falls below the sampling ratio.  For a named leaf the columnar path
  keeps the *draws* — one float per row per ``(attrs, seed, family)`` —
  on the leaf relation (:func:`eta_draws`), so the sample at any ratio
  is ``draws < m``; :meth:`Relation.patched` carries them to the leaf's
  successor (:func:`carry_draws`), so a maintenance period hashes only
  its delta rows.  :func:`eta_sample` is the one η kernel on top of
  them: the ``Hash(BaseRel)`` node, ``core.hashing.hash_sample`` and
  ``SampleView.advance()`` all go through it.  The row path memoizes
  per-key draws in a bounded, hash-family-aware cache
  (:func:`hash_draw`).
* Shared subtree objects are evaluated once per :func:`evaluate` call
  (maintenance strategies deliberately share the fresh-version subtrees
  across change-table terms).
* Set operators keep the row path's set semantics (hash, then identity
  or ``==``).  A ∪ of provably disjoint sides (distinct constant tags) is
  a concatenation; otherwise candidate row pairs share the left input's
  derived key, packed to int64 codes by the key index's packer, and
  whole rows are compared on those pairs alone.  Non-integer or repeated
  left keys, and NaNs a column batch can no longer tell apart, fall back
  to the row operators.  Outputs over row tuples stay row-backed, like
  an η sample of a base relation (see ``docs/columnar.md``).
* :class:`Merge` implements the change-table merge: a full outer equality
  join on the view key followed by per-column combination, with emptied
  groups (support count driven to zero or below) removed — exactly the
  Π(S ⟗ change) maintenance step of paper Ex. 1.  The columnar path
  factorizes both keys with the join's codes machinery
  (:func:`~repro.algebra.columnar.factorize_key_codes`), matches every
  stale row against the change table with one gather, applies the
  combiners as vectorized column ops (with a per-combiner row fallback),
  and assembles the output as lazy scatter/gather providers; object,
  NaN, and ≥2**53 keys fall back to the reference row merge wholesale.
"""

from __future__ import annotations

import operator
from typing import Mapping

import numpy as np

from repro.algebra.aggregates import get_aggregate
from repro.algebra.columnar import (
    ColumnarRelation,
    as_object_array,
    column_to_array,
    concat_column_parts,
    concat_columns,
    factorize_key_codes,
    group_ids,
    grouped_starts,
    int_key_radix,
    pack_int_key,
    rows_at,
    scatter_column,
)
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
from repro.algebra.keys import derive_key, derive_schema
from repro.algebra.predicates import (
    _FLOAT_EXACT,
    _INT64_SAFE,
    Col,
    Const,
    Tup,
    _int_bound,
)
from repro.algebra.relation import PER_ROW, Relation
from repro.algebra.schema import Schema
from repro.caches import register_cache
from repro.errors import EvaluationError, KeyDerivationError, SchemaError
from repro.stats.hashing import get_hash_family, linear_unit, unit_hash_batch

#: Hidden column carrying the group support count in aggregate views and
#: the net multiplicity in change tables.  Prefixed so user queries never
#: collide with it.
GROUP_COUNT = "__grpcount__"

# Columnar fast paths are on by default; set_columnar_enabled(False)
# forces the reference row-at-a-time implementations everywhere.
_COLUMNAR = [True]


def set_columnar_enabled(enabled: bool) -> bool:
    """Globally enable/disable the columnar fast paths; returns the old value."""
    old = _COLUMNAR[0]
    _COLUMNAR[0] = bool(enabled)
    if old != _COLUMNAR[0]:
        # Compiled plans bake fusion decisions in at compile time, so an
        # engine toggle invalidates every cached plan (lazy import: the
        # compiler imports this module).
        from repro.algebra.compiler import bump_plan_epoch

        bump_plan_epoch()
    return old


def columnar_enabled() -> bool:
    """True when the columnar fast paths are active."""
    return _COLUMNAR[0]


# Hash values are pure functions of (key values, seed, hash family);
# cleaning and correspondence checks re-hash the same keys every period,
# so memoize — but bound the cache (it previously grew without limit
# across maintenance periods) and invalidate it automatically when the
# active hash family changes.
_HASH_MEMO: dict = {}
_HASH_MEMO_FAMILY = [None]

#: Entry cap for the hash-draw memo; the cache is dropped wholesale when
#: it fills (hash draws are cheap to recompute relative to unbounded RSS).
HASH_MEMO_LIMIT = 1 << 20


def clear_hash_memo() -> None:
    """Drop cached hash draws (also done automatically on family change)."""
    _HASH_MEMO.clear()
    _HASH_MEMO_FAMILY[0] = None


register_cache(
    "algebra.evaluator.hash_memo",
    clear=clear_hash_memo,
    invalidate_on=("hash_family",),
    size=lambda: len(_HASH_MEMO),
    description="memoized per-key uniform draws for the η operator",
)


def hash_draw(values: tuple, seed: int) -> float:
    """Memoized uniform draw in [0,1) for a key tuple under ``seed``."""
    fam = get_hash_family()
    if fam is not _HASH_MEMO_FAMILY[0]:
        _HASH_MEMO.clear()
        _HASH_MEMO_FAMILY[0] = fam
    key = (values, seed)
    got = _HASH_MEMO.get(key)
    if got is None:
        if len(_HASH_MEMO) >= HASH_MEMO_LIMIT:
            _HASH_MEMO.clear()
        got = fam(values, seed)
        _HASH_MEMO[key] = got
    return got


def _draws(columns, seed: int) -> np.ndarray:
    """One uniform draw per row of the key ``columns``.

    The linear family hashes all rows in one numpy pass; cryptographic
    families (where per-row hashing dwarfs dict overhead) go through the
    memoized :func:`hash_draw`.
    """
    if get_hash_family() is linear_unit:
        return unit_hash_batch(columns, seed)
    return np.fromiter(
        (hash_draw(key, seed) for key in zip(*columns)),
        dtype=np.float64,
        count=len(columns[0]),
    )


def eta_mask(columns, ratio: float, seed: int):
    """Per-row sampling decisions for η over key ``columns``."""
    return _draws(columns, seed) < ratio


def eta_draws(rel: Relation, attrs, seed: int) -> np.ndarray:
    """The η draws of ``rel``'s rows on ``attrs``, cached on the relation.

    One float per row under the active hash family; the sample at any
    ratio m is ``draws < m`` (the nested-sample property adaptive
    cleaning relies on).  The family is part of the cache key, so a
    ``set_hash_family`` switch needs no invalidation — entries of the
    other family are simply not looked up.
    """
    attrs = tuple(attrs)
    cache = rel.sample_cache()
    key = (PER_ROW, "draws", attrs, seed, get_hash_family())
    draws = cache.get(key)
    if draws is None:
        cols = rel.columnar()
        draws = cache[key] = _draws([cols.pycolumn(a) for a in attrs], seed)
    return draws


def carry_draws(base: Relation, tail: Relation) -> None:
    """Hash ``tail`` wherever ``base`` holds draws, ahead of
    ``base.patched(..., tail)`` — the inserted rows are the only ones a
    period hashes (once: η(ΔR) of the same period already left them on
    the delta relation)."""
    fam = get_hash_family()
    for key in list(base.sample_cache()):
        if isinstance(key, tuple) and key[:2] == (PER_ROW, "draws"):
            if key[4] is fam:
                eta_draws(tail, key[2], key[3])


def eta_sample(
    rel: Relation, attrs, ratio: float, seed: int, positions=None
) -> ColumnarRelation:
    """η_{attrs,ratio}(``rel``) as a batch.

    Memoized on the relation per ``(attrs, ratio, seed, family)`` — a
    thin memo over ``eta_draws(...) < ratio`` that keeps the sample's
    columns warm across evaluations.  ``positions`` installs a
    membership the caller has proved (``SampleView.advance()`` adopting
    a clean sample) in place of hashing ``rel``.

    Out of a row-backed relation the sample is a row-backed batch over
    its own tuples: a column is converted from the sampled rows, so the
    cost is proportional to the sample and no full-column array of
    ``rel`` is built for a column only the sample needs.  Out of a
    columnar relation it is a gather (:meth:`ColumnarRelation.take`).
    Which of the two is fixed by how ``rel`` was built, not by what it
    has cached.
    """
    attrs = tuple(attrs)
    cache = rel.sample_cache()
    key = (attrs, ratio, seed, get_hash_family())
    batch = cache.get(key)
    if not isinstance(batch, ColumnarRelation):
        if positions is None:
            positions = np.flatnonzero(eta_draws(rel, attrs, seed) < ratio)
        cols = rel.columnar()
        if cols.row_backed:
            batch = ColumnarRelation.from_rows(
                rel.schema, rows_at(rel.rows, positions)
            )
        else:
            batch = cols.take(positions)
        cache[key] = batch
    return batch


def evaluate(expr: Expr, leaves: Mapping) -> Relation:
    """Evaluate ``expr`` against ``leaves`` and return a keyed Relation."""
    rel = _eval(expr, leaves, {})
    try:
        rel.key = derive_key(expr, leaves)
    except KeyDerivationError:
        rel.key = None
    return rel


def _eval(expr: Expr, leaves: Mapping, memo: dict) -> Relation:
    """Evaluate with per-call memoization on node identity.

    Maintenance strategies share subtree objects (e.g. the fresh version
    of a base relation appears in several change-table terms); evaluating
    each shared node once makes the change-table cost proportional to the
    delta size rather than the term count.
    """
    key = id(expr)
    got = memo.get(key)
    if got is None:
        got = _eval_inner(expr, leaves, memo)
        memo[key] = got
    return got


def _eval_inner(expr: Expr, leaves: Mapping, memo: dict) -> Relation:
    if isinstance(expr, BaseRel):
        try:
            rel = leaves[expr.name]
        except KeyError:
            raise EvaluationError(f"unknown base relation {expr.name!r}") from None
        if isinstance(rel, Relation):
            if not rel.is_materialized:
                # A columnar-backed leaf (e.g. a maintained view that was
                # never read row-wise) stays columnar.
                return Relation.from_columnar(
                    rel.columnar(), key=rel.key, name=expr.name
                )
            # Leaf wrapping shares the (validated, immutable) rows list
            # and the leaf's columnar cache, so neither rows nor column
            # arrays are rebuilt across repeated queries.
            out = Relation.trusted(rel.schema, rel.rows, key=rel.key, name=expr.name)
            out._columnar = rel.columnar()
            return out
        return Relation(rel.schema, rel.rows, key=rel.key, name=expr.name)
    if isinstance(expr, Select):
        fast = _indexed_membership_select(expr, leaves)
        if fast is not None:
            return fast
        child = _eval(expr.child, leaves, memo)
        if _COLUMNAR[0] and len(child):
            mask = _try_mask(expr.predicate, child)
            if mask is not None:
                # The output is the child batch plus a gather index; no
                # row tuples are built here.
                batch = child.columnar().take(np.flatnonzero(mask))
                return Relation.from_columnar(batch)
        pred = expr.predicate.bind(child.schema)
        return Relation.trusted(child.schema, [r for r in child.rows if pred(r)])
    if isinstance(expr, Project):
        child = _eval(expr.child, leaves, memo)
        schema = Schema([o.name for o in expr.outputs])
        if _COLUMNAR[0]:
            fast = _try_project(expr, child)
            if fast is not None:
                return fast
        fns = [o.term.bind(child.schema) for o in expr.outputs]
        rows = [tuple(fn(row) for fn in fns) for row in child.rows]
        return Relation(schema, rows)
    if isinstance(expr, Join):
        return _eval_join(expr, leaves, memo)
    if isinstance(expr, Aggregate):
        return _eval_aggregate(expr, leaves, memo)
    if isinstance(expr, (Union, Intersect, Difference)):
        left, right = _eval_setop_inputs(expr, leaves, memo)
        if _COLUMNAR[0]:
            fast = _try_setop(expr, left, right, leaves)
            if fast is not None:
                return fast
        return _setop_rows(expr, left, right)
    if isinstance(expr, Hash):
        # Draws and samples of named leaves are cached on the leaf
        # relation — the in-memory analogue of a hash index over the
        # sampling key (relations are immutable, so neither goes stale).
        leaf = None
        if isinstance(expr.child, BaseRel) and hasattr(leaves, "get"):
            leaf = leaves.get(expr.child.name)
            if not isinstance(leaf, Relation):
                leaf = None
        ratio, seed = expr.ratio, expr.seed
        if _COLUMNAR[0] and leaf is not None and len(leaf):
            batch = eta_sample(leaf, expr.attrs, ratio, seed)
            return Relation.from_columnar(batch, key=leaf.key)
        child = _eval(expr.child, leaves, memo)
        if _COLUMNAR[0] and len(child):
            # An intermediate result is hashed in one batched pass; the
            # sampled output is a gather over the child batch.
            cols = child.columnar()
            mask = eta_mask([cols.pycolumn(a) for a in expr.attrs], ratio, seed)
            batch = cols.take(np.flatnonzero(mask))
            return Relation.from_columnar(batch, key=child.key)
        cache = cache_key = None
        if leaf is not None:
            # The family is part of the key: cached samples must not
            # survive set_hash_family.
            cache = leaf.sample_cache()
            cache_key = (expr.attrs, ratio, seed, get_hash_family())
            hit = cache.get(cache_key)
            if isinstance(hit, list):
                return Relation.trusted(leaf.schema, hit, key=leaf.key)
        idx = child.schema.indexes(expr.attrs)
        rows = [
            row
            for row in child.rows
            if hash_draw(tuple(row[i] for i in idx), seed) < ratio
        ]
        if cache is not None:
            cache[cache_key] = rows
        return Relation.trusted(child.schema, rows, key=child.key)
    if isinstance(expr, Merge):
        return _eval_merge(expr, leaves, memo)
    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _indexed_membership_select(expr: Select, leaves) -> Relation:
    """Fast path: σ_{col ∈ K}(BaseRel) through a cached value index.

    Key-set pulls (outlier-index materialization, §6.2) select a small
    number of key values from a base relation; a database would serve
    them from a B-tree.  We cache a value→rows index on the (immutable)
    leaf relation so the selection costs O(|K| + output) instead of a
    full scan.
    """
    from repro.algebra.predicates import Col, IsIn

    pred = expr.predicate
    if not (isinstance(expr.child, BaseRel) and isinstance(pred, IsIn)
            and isinstance(pred.term, Col)):
        return None
    leaf = leaves.get(expr.child.name) if hasattr(leaves, "get") else None
    if leaf is None:
        return None
    cache = leaf.sample_cache()
    cache_key = ("__valindex__", pred.term.name)
    index = cache.get(cache_key)
    if index is None:
        pos = leaf.schema.index(pred.term.name)
        index = {}
        for row in leaf.rows:
            index.setdefault(row[pos], []).append(row)
        cache[cache_key] = index
    rows = []
    for value in pred.values:
        rows.extend(index.get(value, ()))
    return Relation(leaf.schema, rows, key=leaf.key)


def _try_mask(predicate, relation):
    """Vectorized selection mask, or None to fall back to the row path.

    Any failure — no columnar form, mixed-type comparison errors, float
    divide/invalid signals — defers to the row loop, which either
    produces the reference result or raises the reference error.
    """
    try:
        mask = predicate.mask(relation)
    except Exception:
        return None
    if len(mask) != len(relation):
        return None
    return mask


def _try_project(expr: Project, child: Relation):
    """Column-lazy generalized Π as a provider-backed batch, or None to
    fall back to the row loop.

    A ``Col`` output aliases the child's column and a row-independent
    output (a scalar ``Const``) is a constant column built on demand, so
    the Π converts only the columns something downstream reads.  Every
    other output is computed here, under the mask contract: float
    divide/invalid raise instead of flowing inf/nan into projected
    values, and any failure defers to the row loop (which produces the
    reference result or error).
    """
    n = len(child)
    if not n or not expr.outputs:
        return None
    cols = child.columnar()
    providers = {}
    try:
        with np.errstate(divide="raise", invalid="raise"):
            for o in expr.outputs:
                if isinstance(o.term, Col):
                    child.schema.index(o.term.name)
                    providers[o.name] = lambda src=o.term.name: cols.array(src)
                    continue
                val = o.term.vector(cols)
                if isinstance(val, np.ndarray) and val.ndim == 1:
                    if len(val) != n:
                        return None
                    providers[o.name] = lambda val=val: val
                else:
                    providers[o.name] = lambda val=val: _const_column(val, n)
    except Exception:
        return None
    schema = Schema([o.name for o in expr.outputs])
    return Relation.from_columnar(
        ColumnarRelation.from_providers(schema, providers, n)
    )


def _const_column(value, n: int) -> np.ndarray:
    """A length-``n`` column holding one row-independent value."""
    if isinstance(value, bool) or isinstance(value, (float, str)) or (
        isinstance(value, int) and -(1 << 63) <= value < (1 << 63)
    ):
        return np.full(n, value)
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = value
    return out


def _join_keys(rel, cols):
    """Join keys for all rows, extracted column-wise in bulk.

    Single-column keys are the bare column values (no per-row tuple
    allocation); multi-column keys are tuples via one zip pass.
    """
    columnar = rel.columnar()
    if len(cols) == 1:
        return columnar.pycolumn(cols[0])
    return list(zip(*(columnar.pycolumn(c) for c in cols)))


def _eval_setop_inputs(expr, leaves, memo):
    left = _eval(expr.left, leaves, memo)
    right = _eval(expr.right, leaves, memo)
    if left.schema != right.schema:
        raise SchemaError(
            f"set operation requires identical schemas: "
            f"{left.schema!r} vs {right.schema!r}"
        )
    return left, right


# ----------------------------------------------------------------------
# Set operators
# ----------------------------------------------------------------------
def _setop_rows(expr, left, right) -> Relation:
    """Reference row-at-a-time ∪ / ∩ / − over whole row tuples (Python
    set membership; ∩ and − also drop repeated left rows)."""
    if isinstance(expr, Union):
        if not len(right):
            return Relation.trusted(left.schema, list(left.rows))
        seen = set(left.rows)
        rows = list(left.rows) + [r for r in right.rows if r not in seen]
        return Relation.trusted(left.schema, rows)
    if isinstance(expr, Intersect):
        rset = set(right.rows)
        rows = [r for r in dict.fromkeys(left.rows) if r in rset]
        return Relation.trusted(left.schema, rows)
    if not len(right):
        return Relation.trusted(left.schema, list(left.rows))
    rset = set(right.rows)
    rows = [r for r in dict.fromkeys(left.rows) if r not in rset]
    return Relation.trusted(left.schema, rows)


def _try_setop(expr, left, right, leaves):
    """Columnar ∪ / ∩ / −, or None to fall back to the row path.

    The row path hashes every row tuple of both inputs.  Here a ∪ whose
    sides :func:`_union_disjoint` proves disjoint is a concatenation,
    with no probe at all; otherwise the rows the two sides share are
    found by :func:`_try_key_matches` — candidate pairs by the left
    input's derived key, whole-row equality on those pairs only — and
    the output is the left rows minus (−) or restricted to (∩) the
    matched ones, or the left rows followed by the unmatched right rows
    (∪), in the row path's order.
    """
    if not len(right) and not isinstance(expr, Intersect):
        return _same_rows(left)
    if isinstance(expr, Union) and _union_disjoint(expr, left.schema, leaves):
        return _concat_rows(left, right, None)
    try:
        key = derive_key(expr.left, leaves)
    except (KeyDerivationError, SchemaError):
        return None
    matched = _try_key_matches(left, right, key)
    if matched is None:
        return None
    lhit, rhit, lkeys, rkeys = matched
    if isinstance(expr, Union):
        kept = np.flatnonzero(~rhit)
        return _concat_rows(left, right, kept, key, lkeys, rkeys)
    keep = lhit if isinstance(expr, Intersect) else ~lhit
    return _pick_rows(left, np.flatnonzero(keep), key, lkeys)


def _try_key_matches(left, right, key):
    """Which rows of each side equal a row of the other, or None.

    Candidate pairs share ``key``: machine-integer key columns pack
    into int64 codes (:func:`~repro.algebra.columnar.pack_int_key`, the
    key index's packer), the left codes are sorted once and every right
    code is looked up in them.  The left codes must be unique — then a
    right row has at most one candidate, and the left rows are distinct,
    so ∩ / − need no deduplication — and any other key (object, bool,
    float, string, mixed kinds, or a range past the packer's) falls
    back.  Whole-row equality is then checked on the candidate pairs
    alone, as the row path checks it (:func:`_try_rows_at`).  Returns
    ``(left hits, right hits, left key arrays, right key arrays)``.
    """
    try:
        lkeys = left.columnar().arrays(key)
        rkeys = right.columnar().arrays(key)
        radix = int_key_radix(lkeys, rkeys)
        if radix is None:
            return None
        lcodes = pack_int_key(lkeys, radix)
        order = np.argsort(lcodes)
        ordered = lcodes[order]
        if bool((ordered[1:] == ordered[:-1]).any()):
            return None
        lhit = np.zeros(len(left), dtype=bool)
        rhit = np.zeros(len(right), dtype=bool)
        if len(left):
            rcodes = pack_int_key(rkeys, radix)
            at = np.minimum(np.searchsorted(ordered, rcodes), len(ordered) - 1)
            cand = np.flatnonzero(ordered[at] == rcodes)
            lpos = order[at[cand]]
            lrows = _try_rows_at(left, lpos)
            rrows = _try_rows_at(right, cand)
            if lrows is None or rrows is None:
                return None
            equal = np.fromiter(
                map(operator.eq, lrows, rrows), dtype=bool, count=len(cand)
            )
            lhit[lpos[equal]] = True
            rhit[cand[equal]] = True
    except Exception:
        # An exotic value whose == raises: the row path raises it too,
        # or decides by hash first — either way it is the reference.
        return None
    return lhit, rhit, lkeys, rkeys


def _try_rows_at(rel, positions):
    """``rel``'s rows at ``positions``, as the tuples the row path's set
    membership compares, or None.

    Row tuples a relation holds are used as they are.  Tuples rebuilt
    from typed arrays hold fresh Python values, which compare like the
    originals except for NaN: row-wise a NaN equals only the very same
    object, and the array no longer says which object that was — so a
    NaN in a typed float column falls back.
    """
    batch = rel.columnar()
    if rel.is_materialized or batch.row_backed:
        return rows_at(rel.rows, positions)
    columns = []
    for name in rel.schema.columns:
        part = batch.array(name)[positions]
        if part.dtype.kind == "f" and bool(np.isnan(part).any()):
            return None
        columns.append(part.tolist())
    return list(zip(*columns))


def _row_backed(schema, rows: list, providers=None) -> Relation:
    """A relation over ``rows`` whose batch converts its columns from
    them, apart from the ready ``providers``."""
    out = Relation.trusted(schema, rows)
    out._columnar = ColumnarRelation.from_rows(schema, rows, providers)
    return out


def _same_rows(rel: Relation) -> Relation:
    """A new relation sharing ``rel``'s rows and batch."""
    if rel.is_materialized:
        out = Relation.trusted(rel.schema, rel.rows)
        out._columnar = rel.columnar()
        return out
    return Relation.from_columnar(rel.columnar())


def _pick_rows(rel, positions, key, key_arrays) -> Relation:
    """``rel``'s rows at ``positions``.

    How the output looks follows how ``rel``'s batch was built, never
    what it has cached — the rule of :func:`eta_sample`.  Over row
    tuples (a base relation, or a set-op output over one) the output
    picks the tuples and converts a column from them when read, so no
    full-column array of the input is built for a column only the
    output needs; its key columns come gathered from the arrays the
    candidate search already read.  Over columns it is a ``take``.
    """
    batch = rel.columnar()
    if not batch.row_backed:
        return Relation.from_columnar(batch.take(positions))
    providers = None
    if len(positions):
        providers = {
            k: (lambda arr=arr: arr[positions]) for k, arr in zip(key, key_arrays)
        }
    return _row_backed(rel.schema, rows_at(rel.rows, positions), providers)


def _concat_rows(left, right, kept, key=(), lkeys=(), rkeys=()) -> Relation:
    """``left``'s rows followed by ``right``'s at ``kept`` (None: all).

    Over two row-backed inputs the output concatenates the row lists
    (key columns, when given, as concatenated key arrays); otherwise
    every column is one concatenation of the two sides' arrays, built
    when read.  Empty parts are skipped so a column keeps its dtype.
    """
    lbatch, rbatch = left.columnar(), right.columnar()
    n = len(left) + (len(right) if kept is None else len(kept))

    def concat(head, tail):
        """One output column: ``head`` then ``tail`` at ``kept``."""
        if kept is not None:
            tail = tail[kept]
        parts = [p for p in (head, tail) if len(p)]
        return concat_column_parts(parts) if parts else head

    if lbatch.row_backed and rbatch.row_backed:
        tail = right.rows if kept is None else rows_at(right.rows, kept)
        providers = None
        if n:
            providers = {
                k: (lambda la=la, ra=ra: concat(la, ra))
                for k, la, ra in zip(key, lkeys, rkeys)
            }
        return _row_backed(left.schema, left.rows + tail, providers)
    providers = {
        name: (lambda name=name: concat(lbatch.array(name), rbatch.array(name)))
        for name in left.schema.columns
    }
    return Relation.from_columnar(
        ColumnarRelation.from_providers(left.schema, providers, n)
    )


def _const_domain(expr: Expr, name: str, leaves, schemas: dict):
    """The provably constant values column ``name`` can take, or None.

    Only constants introduced by projections are traced (through σ, η,
    unions and join sides); anything else is "unknown" and blocks the
    disjointness proof.  The returned tuple may repeat values.
    ``schemas`` memoizes join input schemas for one proof.
    """
    if isinstance(expr, Project):
        for o in expr.outputs:
            if o.name == name:
                if isinstance(o.term, Const):
                    return (o.term.value,)
                if isinstance(o.term, Col):
                    return _const_domain(expr.child, o.term.name, leaves, schemas)
                return None
        return None
    if isinstance(expr, (Select, Hash)):
        return _const_domain(expr.children()[0], name, leaves, schemas)
    if isinstance(expr, Union):
        left = _const_domain(expr.left, name, leaves, schemas)
        if left is None:
            return None
        right = _const_domain(expr.right, name, leaves, schemas)
        if right is None:
            return None
        return left + right
    if isinstance(expr, Join):
        left_schema = schemas.get(id(expr))
        if left_schema is None:
            try:
                left_schema = derive_schema(expr.left, leaves)
            except Exception:
                return None
            schemas[id(expr)] = left_schema
        side = expr.left if name in left_schema else expr.right
        return _const_domain(side, name, leaves, schemas)
    return None


def _domains_disjoint(left: tuple, right: tuple) -> bool:
    """True when no value pair across the two domains compares equal.

    Comparison is by ``==`` (the row path deduplicates through tuple
    equality, under which ``1 == True == 1.0``), so mixed-type literals
    only count as disjoint when they are unequal under Python equality.
    """
    for a in left:
        for b in right:
            try:
                if bool(a == b):
                    return False
            except Exception:
                return False
    return True


def _union_disjoint(expr: Union, schema: Schema, leaves) -> bool:
    """True when the two sides of ``expr`` (both of ``schema``) are
    provably row-disjoint.

    If some column carries disjoint constant-value domains on the two
    sides — the shape of every change-table union, whose branches carry
    distinct ``__mult__`` / ``__term__`` literals — no left row can
    equal a right row, so the reference semantics (left rows, then right
    rows not seen on the left, right-internal duplicates kept) reduce to
    plain concatenation.
    """
    schemas: dict = {}
    for name in schema.columns:
        left = _const_domain(expr.left, name, leaves, schemas)
        if left is None:
            continue
        right = _const_domain(expr.right, name, leaves, schemas)
        if right is not None and _domains_disjoint(left, right):
            return True
    return False


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
def _eval_join(expr: Join, leaves, memo) -> Relation:
    left = _eval(expr.left, leaves, memo)
    right = _eval(expr.right, leaves, memo)
    lcols = expr.left_on()
    rcols = expr.right_on()
    if lcols:
        # Validate equality columns up front (before any fast path).
        left.schema.indexes(lcols)
        right.schema.indexes(rcols)

    collapsed = expr.collapsed_columns()
    kept_right = [c for c in right.schema.columns if c not in collapsed]
    out_schema = left.schema.concat(right.schema, drop_right=collapsed)

    if expr.how == "inner" and (not len(left) or not len(right)):
        return Relation(out_schema, [])

    if _COLUMNAR[0] and lcols:
        fast = _join_columnar(expr, left, right, out_schema, kept_right)
        if fast is not None:
            return fast
    return _join_rows(expr, left, right, out_schema, kept_right)


def _expand_matches(lcodes, mcounts, eff, starts, order):
    """Expand per-probe match counts into flat output index vectors.

    Returns ``(left_idx, right_idx, valid)`` where row ``k`` of the join
    output joins left row ``left_idx[k]`` with build row ``right_idx[k]``
    when ``valid[k]``, and is a left row padded with NULLs otherwise
    (``eff`` reserves one output slot for padded probe rows).  Matches
    appear in probe order and, within one probe row, in build row order —
    exactly the nested-loop order of the reference row join.
    """
    total = int(eff.sum())
    left_idx = np.repeat(np.arange(len(lcodes), dtype=np.intp), eff)
    run_start = np.cumsum(eff) - eff
    offs = np.arange(total, dtype=np.intp) - np.repeat(run_start, eff)
    valid = offs < np.repeat(mcounts, eff)
    if len(order):
        gath = np.repeat(starts[lcodes], eff) + offs
        right_idx = order[np.where(valid, gath, 0)]
    else:
        right_idx = np.zeros(total, dtype=np.intp)
    return left_idx, right_idx, valid


def _join_output_batch(
    expr, left, right, out_schema, kept_right, left_idx, right_idx, valid, tail
):
    """The join output as a provider-backed batch of fancy-indexed gathers.

    The output has a *main* region (probe matches plus NULL-padded probe
    rows, interleaved in probe order) and a *tail* region (unmatched
    build rows of right/full outer joins).  Every column is one or two
    gathers, built only when read; columns that need NULL padding drop
    to object dtype holding Python values (see ``as_object_array``), so
    downstream null-aware fallbacks see exactly the row path's values.
    """
    lbatch = left.columnar()
    rbatch = right.columnar()
    n_main = len(left_idx)
    n_tail = len(tail)
    invalid = None if bool(valid.all()) else ~valid
    collapse = expr.collapse_map()

    def gather(arr, idx):
        if len(arr) == 0 and len(idx):
            # Gathers from an empty side only happen at padded positions;
            # the pad overwrite below fills every entry.
            return np.empty(len(idx), dtype=object)
        return arr[idx]

    def left_column(c):
        def build():
            main = gather(lbatch.array(c), left_idx)
            if not n_tail:
                return main
            src = collapse.get(c)
            if src is not None:
                # Collapsed equality column: right-only rows carry the
                # key value from the right side.
                tail_vals = gather(rbatch.array(src), tail)
            else:
                tail_vals = np.empty(n_tail, dtype=object)  # all None
            return concat_columns(main, tail_vals)

        return build

    def right_column(c):
        def build():
            arr = rbatch.array(c)
            main = gather(arr, right_idx)
            if invalid is not None:
                main = as_object_array(main)
                main[invalid] = None
            if not n_tail:
                return main
            return concat_columns(main, gather(arr, tail))

        return build

    providers = {c: left_column(c) for c in left.schema.columns}
    for c in kept_right:
        providers[c] = right_column(c)
    return ColumnarRelation.from_providers(out_schema, providers, n_main + n_tail)


def _join_columnar(expr: Join, left, right, out_schema, kept_right):
    """Vectorized equality hash join, or None to fall back to the row path.

    Build/probe works on dense integer key codes: the build (right) side
    is stable-sorted by code once, per-code start offsets come from a
    cumulative count, and each probe row's matches are expanded with
    index arithmetic — no per-row tuple allocation anywhere.  Inner,
    left, right and full outer joins all run here; an extra theta
    predicate is applied as a vectorized mask over the match batch when
    it has a columnar form (otherwise the whole join falls back).
    """
    nl, nr = len(left), len(right)
    lbatch = left.columnar()
    rbatch = right.columnar()
    codes = factorize_key_codes(lbatch, rbatch, expr.left_on(), expr.right_on())
    if codes is None:
        return None
    lcodes, rcodes, n_keys = codes

    counts = np.bincount(rcodes, minlength=n_keys)
    order = np.argsort(rcodes, kind="stable")
    starts = np.zeros(n_keys + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    mcounts = counts[lcodes]

    pad_left = expr.how in ("left", "full")
    if expr.theta is None:
        eff = np.maximum(mcounts, 1) if pad_left else mcounts
        left_idx, right_idx, valid = _expand_matches(
            lcodes, mcounts, eff, starts, order
        )
    else:
        left_idx, right_idx, valid = _expand_matches(
            lcodes, mcounts, mcounts, starts, order
        )
        pair_batch = _join_output_batch(
            expr, left, right, out_schema, kept_right,
            left_idx, right_idx, valid, np.zeros(0, dtype=np.intp),
        )
        tmask = _try_mask(expr.theta, Relation.from_columnar(pair_batch))
        if tmask is None:
            return None
        tmask = np.asarray(tmask, dtype=bool)
        left_idx = left_idx[tmask]
        right_idx = right_idx[tmask]
        valid = np.ones(len(left_idx), dtype=bool)
        if pad_left:
            hit = np.zeros(nl, dtype=bool)
            hit[left_idx] = True
            pads = np.flatnonzero(~hit)
            if len(pads):
                # Interleave pad rows at their probe position (stable by
                # left index; a padded row never shares one with a match).
                li = np.concatenate([left_idx, pads])
                ri = np.concatenate([right_idx, np.zeros(len(pads), dtype=np.intp)])
                vd = np.concatenate([valid, np.zeros(len(pads), dtype=bool)])
                perm = np.argsort(li, kind="stable")
                left_idx, right_idx, valid = li[perm], ri[perm], vd[perm]

    tail = np.zeros(0, dtype=np.intp)
    if expr.how in ("right", "full"):
        rhit = np.zeros(nr, dtype=bool)
        if len(right_idx):
            rhit[right_idx[valid]] = True
        tail = np.flatnonzero(~rhit)

    batch = _join_output_batch(
        expr, left, right, out_schema, kept_right, left_idx, right_idx, valid, tail
    )
    return Relation.from_columnar(batch)


def _join_rows(expr: Join, left, right, out_schema, kept_right) -> Relation:
    """Reference row-at-a-time join (hash join on equality columns)."""
    lcols = expr.left_on()
    rcols = expr.right_on()
    kept_ridx = right.schema.indexes(kept_right)
    left_width = len(left.schema)

    # Positions in the output where collapsed equality columns live, paired
    # with the right-side source index — used to fill key values for rows
    # that only matched on the right (right/full outer joins).
    collapse_fill = []
    for lc, rc in expr.on:
        if lc == rc:
            collapse_fill.append((left.schema.index(lc), right.schema.index(rc)))

    theta = expr.theta.bind(out_schema) if expr.theta is not None else None

    rows = []
    matched_right = set()
    if lcols:
        if _COLUMNAR[0]:
            # Bulk column-wise build/probe key extraction (no per-row
            # tuple construction for single-column equality joins).
            build_keys = _join_keys(right, rcols)
            probe_keys = _join_keys(left, lcols)
        else:
            ridx = right.schema.indexes(rcols)
            lidx = left.schema.indexes(lcols)
            build_keys = [tuple(row[i] for i in ridx) for row in right.rows]
            probe_keys = [tuple(row[i] for i in lidx) for row in left.rows]
        build = {}
        for j, bkey in enumerate(build_keys):
            build.setdefault(bkey, []).append(j)
        right_rows = right.rows
        pad = (None,) * len(kept_right)
        for lrow, key in zip(left.rows, probe_keys):
            hit = False
            for j in build.get(key, ()):
                out = lrow + tuple(right_rows[j][i] for i in kept_ridx)
                if theta is None or theta(out):
                    rows.append(out)
                    matched_right.add(j)
                    hit = True
            if not hit and expr.how in ("left", "full"):
                rows.append(lrow + pad)
    else:
        # Pure theta join: nested loop.
        pad = (None,) * len(kept_right)
        for lrow in left.rows:
            hit = False
            for j, rrow in enumerate(right.rows):
                out = lrow + tuple(rrow[i] for i in kept_ridx)
                if theta is None or theta(out):
                    rows.append(out)
                    matched_right.add(j)
                    hit = True
            if not hit and expr.how in ("left", "full"):
                rows.append(lrow + pad)
    if expr.how in ("right", "full"):
        pad_left = [None] * left_width
        for j, rrow in enumerate(right.rows):
            if j in matched_right:
                continue
            out = list(pad_left)
            for out_pos, src_idx in collapse_fill:
                out[out_pos] = rrow[src_idx]
            rows.append(tuple(out) + tuple(rrow[i] for i in kept_ridx))
    return Relation(out_schema, rows)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _eval_aggregate(expr: Aggregate, leaves, memo) -> Relation:
    child = _eval(expr.child, leaves, memo)
    out_schema = Schema(expr.group_by + tuple(a.name for a in expr.aggs))
    if _COLUMNAR[0]:
        fast = _aggregate_columnar(expr, child, out_schema)
        if fast is not None:
            return fast
    gidx = child.schema.indexes(expr.group_by)
    groups = {}
    for row in child.rows:
        groups.setdefault(tuple(row[i] for i in gidx), []).append(row)
    specs = []
    for a in expr.aggs:
        fn = get_aggregate(a.func)
        term = a.term.bind(child.schema) if a.term is not None else None
        specs.append((fn, term))
    rows = []
    if not groups and not expr.group_by and expr.aggs:
        # Global aggregate over an empty input still yields one row.
        groups = {(): []}
    for gkey, grows in groups.items():
        vals = []
        for fn, term in specs:
            if term is None:
                vals.append(fn.compute(grows))
            else:
                vals.append(fn.compute([term(r) for r in grows]))
        rows.append(gkey + tuple(vals))
    return Relation(out_schema, rows)


def _aggregate_columnar(expr: Aggregate, child: Relation, out_schema):
    """Columnar γ: grouped reduceat-style reductions, or None to fall back.

    Group ids come from :func:`repro.algebra.columnar.group_ids` in
    first-appearance order (identical to the dict grouping of the row
    path).  Each aggregate spec vectorizes independently: specs whose
    input term or dtype does not qualify are computed per group with the
    reference ``compute`` over stably-ordered row values, so a single
    exotic column never forces the whole γ back to the row loop.  The
    child's rows are only materialized if such a per-spec fallback runs.
    """
    n = len(child)
    if n == 0 or (not expr.group_by and not expr.aggs):
        return None
    try:
        cols = child.columnar()
        if expr.group_by:
            gid, group_keys = group_ids(cols, expr.group_by)
        else:
            gid = np.zeros(n, dtype=np.intp)
            group_keys = [()]
        ngroups = len(group_keys)
        counts = np.bincount(gid, minlength=ngroups)
        order = starts = split = None
        winners: dict = {}
        agg_cols = []
        for a in expr.aggs:
            fn = get_aggregate(a.func)
            if fn.name == "pick":
                if order is None:
                    order, starts = grouped_starts(gid, counts)
                picked = _try_pick_columnar(a.term, cols, order, starts, winners)
                if picked is not None:
                    agg_cols.append(picked)
                    continue
            values = None
            if fn.grouped is not None and a.term is not None:
                values = _vector_values(a.term, cols, fn.name)
            if fn.grouped is not None and (a.term is None or values is not None):
                if order is None:
                    order, starts = grouped_starts(gid, counts)
                sorted_vals = values[order] if values is not None else None
                agg_cols.append(fn.grouped(sorted_vals, starts, counts).tolist())
                continue
            # Per-spec fallback: reference compute over each group's
            # values, in row order (stable sort preserves it).
            if split is None:
                if order is None:
                    order, starts = grouped_starts(gid, counts)
                split = np.split(order, np.asarray(starts[1:]))
            rows = child.rows
            bound = a.term.bind(child.schema) if a.term is not None else None
            out = []
            for g in range(ngroups):
                if bound is None:
                    vals = [rows[i] for i in split[g]]
                else:
                    vals = [bound(rows[i]) for i in split[g]]
                out.append(fn.compute(vals))
            agg_cols.append(out)
    except Exception:
        return None
    out_rows = [
        gkey + tuple(col[g] for col in agg_cols)
        for g, gkey in enumerate(group_keys)
    ]
    return Relation(out_schema, out_rows)


def _try_pick_columnar(term, cols, order, starts, winners: dict):
    """One ``pick`` spec as a gather at each group's winning row, or None.

    A change table for an SPJ view carries one ``pick`` over
    ``tup(priority, column)`` per value column, all with the same
    priority term: the winning row per group is found once (``winners``,
    keyed by the priority term, lives for one γ) and every spec is one
    gather of its payload column.  Anything else — a payload that is not
    a plain column, a priority that is not integer-valued — keeps the
    per-group ``compute`` fallback.
    """
    if not (
        isinstance(term, Tup)
        and len(term.terms) == 2
        and isinstance(term.terms[1], Col)
    ):
        return None
    priority, payload = term.terms
    memo_key = repr(priority)
    if memo_key not in winners:
        winners[memo_key] = _pick_winners(priority, cols, order, starts)
    won = winners[memo_key]
    if won is None:
        return None
    rows, deleted = won
    out = cols.array(payload.name)[rows].tolist()
    for g in deleted:
        out[g] = None
    return out


def _pick_winners(priority, cols, order, starts):
    """``(winning row per group, groups with no winner)`` — :func:`_pick`.

    The winner is the first row, in row order, holding the group's
    highest priority; a group whose priorities are all negative (pure
    deletions) has none.  None when the priority has no integer vector.
    """
    prio = _vector_values(priority, cols, "pick")
    if prio is None or prio.dtype.kind not in "iu":
        return None
    n = len(order)
    sorted_prio = prio[order]
    best = np.maximum.reduceat(sorted_prio, starts)
    sizes = np.diff(np.append(starts, n))
    position = np.where(
        sorted_prio == np.repeat(best, sizes), np.arange(n), n
    )
    rows = order[np.minimum.reduceat(position, starts)]
    return rows, np.flatnonzero(best < 0).tolist()


def _vector_values(term, cols, func_name):
    """A numeric value array for one aggregate input, or None to fall back.

    Float divide/invalid raise (mirroring the row path's ZeroDivisionError)
    instead of silently flowing inf/nan into the reductions.
    """
    try:
        with np.errstate(divide="raise", invalid="raise"):
            arr = term.vector(cols)
    except Exception:
        return None
    if np.ndim(arr) == 0 or not isinstance(arr, np.ndarray):
        return None
    if arr.dtype.kind == "b":
        if func_name in ("min", "max"):
            # min/max over bools must return False/True, not 0/1.
            return None
        return arr.astype(np.int64)
    if arr.dtype.kind in "iu":
        if func_name in ("sum", "avg") and arr.size:
            bound = max(abs(int(arr.min())), abs(int(arr.max())))
            # Sums that could wrap int64 must use Python's big ints;
            # avg additionally divides through float64, which stops
            # being exactly rounded once the sum can exceed 2**53.
            limit = _FLOAT_EXACT if func_name == "avg" else _INT64_SAFE
            if bound * arr.size >= limit:
                return None
        return arr
    if arr.dtype.kind == "f":
        if func_name in ("min", "max") and np.isnan(arr).any():
            # Python min/max over NaNs is order-dependent; defer.
            return None
        return arr
    return None


# ----------------------------------------------------------------------
# Change-table merge
# ----------------------------------------------------------------------
def _eval_merge(expr: Merge, leaves, memo) -> Relation:
    stale = _eval(expr.stale, leaves, memo)
    change = _eval(expr.change, leaves, memo)
    if _COLUMNAR[0] and expr.key and len(stale) + len(change):
        try:
            fast = _merge_columnar(expr, stale, change)
        except Exception:
            # Anything the fast path cannot handle (exotic support
            # values, ragged pieces) defers to the row loop, which
            # produces the reference result or raises the reference
            # error.
            fast = None
        if fast is not None:
            return fast
    return _merge_rows(expr, stale, change)


def _merge_rows(expr: Merge, stale, change) -> Relation:
    """Reference row-at-a-time merge (dict lookup per stale row)."""
    out_schema = stale.schema
    key_idx_stale = stale.schema.indexes(expr.key)
    key_idx_change = change.schema.indexes(expr.key)

    change_by_key = {}
    for row in change.rows:
        change_by_key[tuple(row[i] for i in key_idx_change)] = row

    has_explicit_count = GROUP_COUNT in stale.schema
    grp_idx_change = (
        change.schema.index(GROUP_COUNT) if GROUP_COUNT in change.schema else None
    )

    plans, ratio_plans = expr.resolve_plans(stale.schema, change.schema)

    def combine_row(old_row, change_row):
        out = list(old_row)
        for out_pos, mode, change_pos in plans:
            delta = change_row[change_pos]
            old = out[out_pos]
            if mode == "add":
                out[out_pos] = (old or 0) + (delta or 0)
            elif mode == "replace":
                out[out_pos] = delta if delta is not None else old
            elif mode == "min":
                if delta is not None:
                    out[out_pos] = delta if old is None else min(old, delta)
            elif mode == "max":
                if delta is not None:
                    out[out_pos] = delta if old is None else max(old, delta)
        for out_pos, num_pos, den_pos in ratio_plans:
            den = out[den_pos]
            out[out_pos] = (out[num_pos] / den) if den else float("nan")
        return tuple(out)

    def insert_row(change_row):
        # A missing row: synthesize a stale-side identity row, then combine.
        old = [None] * len(out_schema)
        for s_i, c_i in zip(key_idx_stale, key_idx_change):
            old[s_i] = change_row[c_i]
        return combine_row(tuple(old), change_row)

    grp_idx_stale = stale.schema.index(GROUP_COUNT) if has_explicit_count else None
    drop = expr.drop_empty

    rows = []
    seen = set()
    for row in stale.rows:
        key = tuple(row[i] for i in key_idx_stale)
        change_row = change_by_key.get(key)
        if change_row is None:
            rows.append(row)
            continue
        seen.add(key)
        merged = combine_row(row, change_row)
        if not drop:
            rows.append(merged)
            continue
        if has_explicit_count:
            support = merged[grp_idx_stale]
        elif grp_idx_change is not None:
            # SPJ views: stale rows have implicit multiplicity one.
            support = 1 + (change_row[grp_idx_change] or 0)
        else:
            support = 1
        if support is None or support > 0:
            rows.append(merged)
    for key, change_row in change_by_key.items():
        if key in seen:
            continue
        merged = insert_row(change_row)
        if not drop:
            rows.append(merged)
            continue
        if has_explicit_count:
            support = merged[grp_idx_stale]
        elif grp_idx_change is not None:
            support = change_row[grp_idx_change] or 0
        else:
            support = 1
        if support is None or support > 0:
            rows.append(merged)
    return Relation(out_schema, rows, key=expr.key)


def _merged_values(mode, old, delta):
    """Vectorized combine of matched old/delta arrays, or None to fall back.

    Each guard marks a place where numpy semantics would diverge from the
    row path's ``combine_row``: object columns may carry ``None`` (which
    ``add`` treats as 0 and ``replace``/``min``/``max`` skip), bool
    addition is logical in numpy but numeric in Python, int64 sums can
    wrap where Python's big ints don't, ``(x or 0) + (y or 0)`` yields
    the *int* 0 when both float sides are zero, mixed-kind ``min``/
    ``max`` would promote the int the row path returns unchanged, and
    NaN/signed-zero comparisons are order-dependent in Python.
    """
    ok, dk = old.dtype.kind, delta.dtype.kind
    if dk == "O":
        return None
    if mode == "replace":
        # Typed change columns cannot hold None: the delta always wins.
        return delta
    if ok == "O":
        return None
    if mode == "add":
        if ok not in "iuf" or dk not in "iuf":
            return None
        if ok in "iu" and dk in "iu":
            if old.size and _int_bound(old) + _int_bound(delta) >= _INT64_SAFE:
                return None
            out = old + delta
            # int64 ⊕ uint64 promotes to float64 — not value-faithful.
            return out if out.dtype.kind in "iu" else None
        # ``(x or 0)`` collapses a zero *float* to the int 0, so a float
        # zero against an int side makes the row path produce an int sum
        # (int + 0), and two float zeros the int 0 itself — both places
        # where the vectorized float result would diverge in type.
        if old.size:
            if ok in "iu":
                diverges = (delta == 0).any()
            elif dk in "iu":
                diverges = (old == 0).any()
            else:
                diverges = ((old == 0) & (delta == 0)).any()
            if bool(diverges):
                return None
        return old + delta
    # min / max
    if ok != dk:
        return None  # Python min(2, 2.5) keeps the int; numpy promotes
    if ok == "f":
        for arr in (old, delta):
            if arr.size and (
                np.isnan(arr).any() or bool((np.signbit(arr) & (arr == 0)).any())
            ):
                return None  # NaN/±0.0 ties are order-dependent row-wise
    try:
        return np.minimum(old, delta) if mode == "min" else np.maximum(old, delta)
    except TypeError:
        return None  # e.g. string min/max on numpy builds without str ufuncs


def _inserted_values(mode, delta):
    """Vectorized combine against an all-``None`` old side (insertions)."""
    dk = delta.dtype.kind
    if dk == "O":
        return None
    if mode == "add":
        if dk not in "iuf":
            return None
        if dk == "f" and delta.size and bool((delta == 0).any()):
            return None  # row path: 0 + (0.0 or 0) == int 0
    # replace / min / max against None all reduce to the delta itself.
    return delta


def _combine_fallback(mode, old_vals, delta_vals):
    """The row path's per-cell combine over Python value lists."""
    out = []
    if mode == "add":
        for old, delta in zip(old_vals, delta_vals):
            out.append((old or 0) + (delta or 0))
    elif mode == "replace":
        for old, delta in zip(old_vals, delta_vals):
            out.append(delta if delta is not None else old)
    else:
        pick = min if mode == "min" else max
        for old, delta in zip(old_vals, delta_vals):
            if delta is None:
                out.append(old)
            else:
                out.append(delta if old is None else pick(old, delta))
    return out


def _piece_values(piece, n):
    """One merge piece as a list of Python values (``None`` = all-None)."""
    if piece is None:
        return [None] * n
    if isinstance(piece, np.ndarray):
        return piece.tolist() if piece.dtype != object else list(piece)
    return piece


def _ratio_values(num, den):
    """Vectorized ``num/den if den else nan``, or None to fall back.

    Python divides int/int through the exact rational (correctly
    rounded), numpy through float64 operands — beyond 2**53 they differ,
    so big-int ratios fall back; ``None`` operands (object pieces) do
    too.  Zero/False denominators yield NaN exactly like the row path.
    """
    num = num if isinstance(num, np.ndarray) else column_to_array(num)
    den = den if isinstance(den, np.ndarray) else column_to_array(den)
    nk, dk = num.dtype.kind, den.dtype.kind
    if nk not in "biuf" or dk not in "biuf":
        return None
    if nk in "biu" and dk in "biu":
        if max(_int_bound(num), _int_bound(den)) >= _FLOAT_EXACT:
            return None
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.true_divide(num, den)
    return np.where(den == 0, np.nan, out)


def _support_keep(piece, n):
    """Per-row keep decisions from support values (None keeps the row)."""
    if piece is None:
        return np.ones(n, dtype=bool)
    if isinstance(piece, np.ndarray) and piece.dtype.kind in "biuf":
        return piece > 0
    return np.fromiter(
        (v is None or v > 0 for v in _piece_values(piece, n)),
        dtype=bool,
        count=n,
    )


def _merge_columnar(expr: Merge, stale, change):
    """Key-factorized columnar merge, or None to fall back to the row path.

    The stale-view and change-table keys are factorized into one dense
    integer code space (:func:`~repro.algebra.columnar.
    factorize_key_codes` — the hash join's machinery, with the same
    object/NaN/≥2**53 fallback triggers).  Matched rows, stale-only rows
    and change-only keys then come from pure array arithmetic:

    * ``last[code]`` holds the change table's *last* row per key (the
      row dict insertion kept), so ``last[scodes]`` matches every stale
      row at once;
    * change-only keys are the codes no stale row carries, emitted in
      first-appearance order — exactly the row path's dict order;
    * each combiner produces one merged value array per region
      (matched / inserted) via :func:`_merged_values`, with a
      per-combiner Python fallback when a guard trips, so a single
      exotic column never forces the whole merge back to the row loop;
    * ``drop_empty`` evaluates the support rule (explicit
      ``__grpcount__``, implicit SPJ multiplicity, or always-keep) as a
      boolean mask.

    The output is a provider-backed batch: every column is a scatter of
    the merged values into the stale column, gathered through the kept
    positions, concatenated with the inserted rows' values — columns are
    assembled only when something reads them.
    """
    out_schema = stale.schema
    plans, ratio_plans = expr.resolve_plans(stale.schema, change.schema)
    out_cols = stale.schema.columns
    change_cols = change.schema.columns
    planned = [out_pos for out_pos, _, _ in plans] + [p[0] for p in ratio_plans]
    if len(set(planned)) != len(planned):
        return None  # duplicate combiners chain sequentially row-wise
    key_set = set(expr.key)
    if any(out_cols[pos] in key_set for pos in planned):
        # A value combiner on a key column sees the change key (not
        # None) as the old value of inserted rows; only the row path
        # models that.
        return None

    ns, nc = len(stale), len(change)
    if nc == 0:
        # Empty change table: the merge is the identity on the stale
        # relation (unmatched rows are never dropped).
        if stale.is_materialized:
            return Relation.trusted(out_schema, stale.rows, key=expr.key)
        return Relation.from_columnar(stale.columnar(), key=expr.key)

    sbatch = stale.columnar()
    cbatch = change.columnar()
    codes = factorize_key_codes(sbatch, cbatch, expr.key, expr.key)
    if codes is None:
        return None
    scodes, ccodes, n_keys = codes

    # The change table's last row per key (dict overwrite semantics).
    last = np.full(n_keys, -1, dtype=np.intp)
    last[ccodes] = np.arange(nc, dtype=np.intp)
    match_pos = last[scodes] if ns else np.zeros(0, dtype=np.intp)
    matched_idx = np.flatnonzero(match_pos >= 0)
    cmatch = match_pos[matched_idx]
    n_match = len(matched_idx)

    # Change-only keys in first-appearance order (dict insertion order).
    stale_has = np.zeros(n_keys, dtype=bool)
    if ns:
        stale_has[scodes] = True
    uniq_codes, first_occ = np.unique(ccodes, return_index=True)
    new_first = np.sort(first_occ[~stale_has[uniq_codes]])
    append_src = last[ccodes[new_first]]
    n_append = len(append_src)

    # ------------------------------------------------------------------
    # Merged value pieces per combined column: (matched, inserted).
    # ------------------------------------------------------------------
    pieces = {}
    for out_pos, mode, change_pos in plans:
        name = out_cols[out_pos]
        cname = change_cols[change_pos]
        delta_m = cbatch.array(cname)[cmatch]
        delta_a = cbatch.array(cname)[append_src]
        old_m = sbatch.array(name)[matched_idx]
        merged_m = _merged_values(mode, old_m, delta_m) if n_match else delta_m[:0]
        if merged_m is None:
            old_py = sbatch.pycolumn(name)
            delta_py = cbatch.pycolumn(cname)
            merged_m = _combine_fallback(
                mode,
                [old_py[i] for i in matched_idx],
                [delta_py[j] for j in cmatch],
            )
        merged_a = _inserted_values(mode, delta_a) if n_append else delta_a[:0]
        if merged_a is None:
            delta_py = cbatch.pycolumn(cname)
            merged_a = _combine_fallback(
                mode, [None] * n_append, [delta_py[j] for j in append_src]
            )
        pieces[name] = (merged_m, merged_a)

    def region_values(pos, region):
        """Merged values of one column in one region ('m'atched/'a'ppend).

        Columns without a value combiner keep the stale value when
        matched; inserted rows carry the change key values and ``None``
        everywhere else — exactly ``insert_row``'s synthetic old row.
        """
        name = out_cols[pos]
        got = pieces.get(name)
        if got is not None:
            return got[0] if region == "m" else got[1]
        if region == "m":
            return sbatch.array(name)[matched_idx]
        if name in key_set:
            return cbatch.array(name)[append_src]
        return None  # all-None

    for out_pos, num_pos, den_pos in ratio_plans:
        name = out_cols[out_pos]
        ratio_pieces = []
        for region, count in (("m", n_match), ("a", n_append)):
            num = region_values(num_pos, region)
            den = region_values(den_pos, region)
            if num is None or den is None:
                ratio = None
            else:
                ratio = _ratio_values(num, den)
            if ratio is None:
                nvals = _piece_values(num, count)
                dvals = _piece_values(den, count)
                ratio = [
                    (n_ / d) if d else float("nan") for n_, d in zip(nvals, dvals)
                ]
            ratio_pieces.append(ratio)
        pieces[name] = tuple(ratio_pieces)

    # ------------------------------------------------------------------
    # drop_empty: the support rule as keep masks over both regions.
    # ------------------------------------------------------------------
    if expr.drop_empty:
        if GROUP_COUNT in stale.schema:
            grp_pos = stale.schema.index(GROUP_COUNT)
            keep_m = _support_keep(region_values(grp_pos, "m"), n_match)
            keep_a = _support_keep(region_values(grp_pos, "a"), n_append)
        elif GROUP_COUNT in change.schema:
            # SPJ views: stale rows have implicit multiplicity one.
            gvals = cbatch.array(GROUP_COUNT)
            gm, ga = gvals[cmatch], gvals[append_src]
            if gvals.dtype.kind in "iu" and (
                not gvals.size or _int_bound(gvals) < _INT64_SAFE
            ):
                keep_m = (1 + gm) > 0
                keep_a = ga > 0
            elif gvals.dtype.kind == "f" and not (
                gvals.size and np.isnan(gvals).any()
            ):
                keep_m = (1 + gm) > 0
                keep_a = ga > 0
            else:
                keep_m = np.fromiter(
                    ((1 + (v or 0)) > 0 for v in _piece_values(gm, n_match)),
                    dtype=bool, count=n_match,
                )
                keep_a = np.fromiter(
                    ((v or 0) > 0 for v in _piece_values(ga, n_append)),
                    dtype=bool, count=n_append,
                )
        else:
            keep_m = np.ones(n_match, dtype=bool)
            keep_a = np.ones(n_append, dtype=bool)
        keep_mask = np.ones(ns, dtype=bool)
        keep_mask[matched_idx] = keep_m
        keep_idx = np.flatnonzero(keep_mask)
        app_keep = np.flatnonzero(keep_a)
    else:
        keep_idx = np.arange(ns, dtype=np.intp)
        app_keep = np.arange(n_append, dtype=np.intp)

    # ------------------------------------------------------------------
    # Output assembly: pure gathers/scatters, built lazily per column.
    # ------------------------------------------------------------------
    n_app_kept = len(app_keep)
    all_kept = len(keep_idx) == ns  # no dropped rows: skip the gather

    def piece_array(piece, gather_idx):
        if isinstance(piece, np.ndarray):
            return piece[gather_idx]
        return column_to_array([piece[i] for i in gather_idx])

    def make_provider(pos):
        name = out_cols[pos]

        def build():
            got = pieces.get(name)
            if got is not None:
                scattered = (
                    scatter_column(sbatch.array(name), matched_idx, got[0])
                    if n_match
                    else sbatch.array(name)
                )
                head = scattered if all_kept else scattered[keep_idx]
                if not n_app_kept:
                    return head
                return concat_columns(head, piece_array(got[1], app_keep))
            # Untouched column: share the stale array outright when every
            # row survives (batches are immutable, sharing is the norm).
            arr = sbatch.array(name)
            head = arr if all_kept else arr[keep_idx]
            if not n_app_kept:
                return head
            if name in key_set:
                tail = cbatch.array(name)[append_src][app_keep]
            else:
                tail = np.empty(n_app_kept, dtype=object)  # all None
            return concat_columns(head, tail)

        return build

    providers = {out_cols[pos]: make_provider(pos) for pos in range(len(out_cols))}
    batch = ColumnarRelation.from_providers(
        out_schema, providers, len(keep_idx) + n_app_kept
    )
    return Relation.from_columnar(batch, key=expr.key)
