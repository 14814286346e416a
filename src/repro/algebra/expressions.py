"""Relational expression trees.

View definitions, maintenance strategies, and cleaning expressions are all
trees of the operators from paper §3.1:

* :class:`BaseRel` — a leaf referencing a named relation,
* :class:`Select` — σ_φ,
* :class:`Project` — generalized projection Π (may compute new attributes),
* :class:`Join` — ⋈ (inner/left/right/full outer; equality plus optional
  theta condition; foreign-key joins are flagged for push-down),
* :class:`Aggregate` — γ_{f,A} (group-by aggregation; DISTINCT is the
  no-aggregate special case),
* :class:`Union` / :class:`Intersect` / :class:`Difference`,
* :class:`Hash` — the sampling operator η_{a,m} of §4.4,
* :class:`Merge` — the "change-table merge" Π(S ⟗ change): the full outer
  join of a stale relation with a keyed change relation followed by the
  generalized projection that combines them (paper Ex. 1 step 2–3).  It
  is kept as a single node so the push-down optimizer can treat it like
  the equality join it is.

Nodes are immutable; tree rewrites construct new nodes via
:meth:`Expr.with_children`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.algebra.predicates import Col, Predicate, _coerce
from repro.errors import SchemaError


class Expr:
    """Base class of all relational expression nodes."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        """Child expressions, left to right."""
        raise NotImplementedError

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """A copy of this node with the given children substituted."""
        raise NotImplementedError

    def leaves(self) -> Tuple["BaseRel", ...]:
        """All base-relation leaves in this subtree, in tree order."""
        if isinstance(self, BaseRel):
            return (self,)
        out = []
        for c in self.children():
            out.extend(c.leaves())
        return tuple(out)

    def depth(self) -> int:
        """Height of the expression tree (a leaf has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(c.depth() for c in kids)


class BaseRel(Expr):
    """A leaf referencing a relation by name in the evaluation context."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def children(self):
        return ()

    def with_children(self, children):
        if children:
            raise SchemaError("BaseRel has no children")
        return self

    def __repr__(self):
        return f"R({self.name})"


class Select(Expr):
    """σ_φ — keep rows satisfying a predicate."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: Expr, predicate: Predicate):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Select(child, self.predicate)

    def __repr__(self):
        return f"σ[{self.predicate!r}]({self.child!r})"


class Output:
    """One output attribute of a generalized projection.

    ``term`` may be a plain column reference (pass-through / rename) or an
    arithmetic transformation of other attributes.
    """

    __slots__ = ("name", "term")

    def __init__(self, name: str, term):
        self.name = name
        if isinstance(term, str):
            term = Col(term)
        self.term = _coerce(term)

    def source_column(self) -> Optional[str]:
        """The source column name for pass-through outputs, else None."""
        return self.term.name if isinstance(self.term, Col) else None

    def __repr__(self):
        return f"{self.name}={self.term!r}"


class Project(Expr):
    """Π — generalized projection (may add computed attributes)."""

    __slots__ = ("child", "outputs")

    def __init__(self, child: Expr, outputs: Sequence):
        self.child = child
        outs = []
        for o in outputs:
            if isinstance(o, Output):
                outs.append(o)
            elif isinstance(o, str):
                outs.append(Output(o, Col(o)))
            elif isinstance(o, tuple) and len(o) == 2:
                outs.append(Output(o[0], o[1]))
            else:
                raise SchemaError(f"bad projection output: {o!r}")
        self.outputs = tuple(outs)

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Project(child, self.outputs)

    def output_names(self) -> tuple:
        """Names of the projected attributes, in order."""
        return tuple(o.name for o in self.outputs)

    def passthrough_map(self) -> dict:
        """Map output name -> source column for pass-through outputs."""
        return {
            o.name: o.term.name for o in self.outputs if isinstance(o.term, Col)
        }

    def __repr__(self):
        return f"Π[{', '.join(map(repr, self.outputs))}]({self.child!r})"


class Join(Expr):
    """⋈ — equality join with optional theta condition and outer variants.

    Parameters
    ----------
    on:
        Sequence of ``(left_col, right_col)`` equality pairs.  When a pair
        shares one name, the join output keeps a single copy of it.
    how:
        ``inner`` | ``left`` | ``right`` | ``full``.
    foreign_key:
        True when the right side is a dimension table whose primary key is
        exactly the right-hand join columns — i.e. every left row matches
        at most one right row.  Enables the FK push-down special case.
    theta:
        Optional extra predicate applied to each joined row.
    """

    __slots__ = ("left", "right", "on", "how", "foreign_key", "theta")

    def __init__(
        self,
        left: Expr,
        right: Expr,
        on: Sequence[tuple],
        how: str = "inner",
        foreign_key: bool = False,
        theta: Optional[Predicate] = None,
    ):
        if how not in ("inner", "left", "right", "full"):
            raise SchemaError(f"unknown join type {how!r}")
        if not on and theta is None:
            raise SchemaError("join requires equality pairs or a theta predicate")
        self.left = left
        self.right = right
        self.on = tuple((str(lc), str(rc)) for lc, rc in on)
        self.how = how
        self.foreign_key = foreign_key
        self.theta = theta

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return Join(
            left, right, self.on, self.how, self.foreign_key, self.theta
        )

    def left_on(self) -> tuple:
        """Left-side equality columns."""
        return tuple(lc for lc, _ in self.on)

    def right_on(self) -> tuple:
        """Right-side equality columns."""
        return tuple(rc for _, rc in self.on)

    def collapsed_columns(self) -> tuple:
        """Right-side equality columns that collapse into the left copy.

        When an equality pair shares one name the join output keeps a
        single column, which always carries the key value regardless of
        which side matched (outer joins fill it from the surviving side).
        """
        return tuple(rc for lc, rc in self.on if lc == rc)

    def collapse_map(self) -> dict:
        """Map collapsed output column -> right-side source column."""
        return {lc: rc for lc, rc in self.on if lc == rc}

    def __repr__(self):
        tag = "fk⋈" if self.foreign_key else "⋈"
        cond = ", ".join(f"{lc}={rc}" for lc, rc in self.on)
        return f"{tag}[{self.how};{cond}]({self.left!r}, {self.right!r})"


class AggSpec:
    """One aggregate of a γ node: output name, function name, input term.

    ``term`` is ``None`` for ``count`` (count of rows in the group).
    """

    __slots__ = ("name", "func", "term")

    def __init__(self, name: str, func: str, term=None):
        self.name = name
        self.func = func
        if isinstance(term, str):
            term = Col(term)
        self.term = _coerce(term) if term is not None else None

    def columns(self) -> frozenset:
        """Columns read by this aggregate's input term."""
        return self.term.columns() if self.term is not None else frozenset()

    def __repr__(self):
        arg = repr(self.term) if self.term is not None else "*"
        return f"{self.name}={self.func}({arg})"


class Aggregate(Expr):
    """γ_{f,A} — group-by aggregation; DISTINCT when ``aggs`` is empty."""

    __slots__ = ("child", "group_by", "aggs")

    def __init__(self, child: Expr, group_by: Sequence[str], aggs: Sequence[AggSpec]):
        self.child = child
        self.group_by = tuple(group_by)
        self.aggs = tuple(aggs)
        names = self.group_by + tuple(a.name for a in self.aggs)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate output names in aggregate: {names!r}")

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Aggregate(child, self.group_by, self.aggs)

    def __repr__(self):
        return (
            f"γ[by={list(self.group_by)}; "
            f"{', '.join(map(repr, self.aggs))}]({self.child!r})"
        )


class _SetOp(Expr):
    """Common base for union/intersection/difference."""

    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return type(self)(left, right)

    def __repr__(self):
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Union(_SetOp):
    """R1 ∪ R2 (set union by full row value)."""

    symbol = "∪"


class Intersect(_SetOp):
    """R1 ∩ R2 (set intersection by full row value)."""

    symbol = "∩"


class Difference(_SetOp):
    """R1 − R2 (set difference by full row value)."""

    symbol = "−"


class Hash(Expr):
    """η_{a,m} — the deterministic sampling operator of §4.4.

    Keeps rows whose key-attribute hash (normalized to [0,1)) is below
    ``ratio``.  ``seed`` keys the hash family so repeated experiments can
    draw independent samples while staying deterministic within a run.
    """

    __slots__ = ("child", "attrs", "ratio", "seed")

    def __init__(self, child: Expr, attrs: Sequence[str], ratio: float, seed: int = 0):
        if not 0.0 <= ratio <= 1.0:
            raise SchemaError(f"sampling ratio must be in [0,1]: {ratio}")
        if not attrs:
            raise SchemaError("hash operator requires at least one attribute")
        self.child = child
        self.attrs = tuple(attrs)
        self.ratio = float(ratio)
        self.seed = int(seed)

    def children(self):
        return (self.child,)

    def with_children(self, children):
        (child,) = children
        return Hash(child, self.attrs, self.ratio, self.seed)

    def __repr__(self):
        return f"η[{','.join(self.attrs)};m={self.ratio:g}]({self.child!r})"


class Combiner:
    """How one view column merges with its change-table delta in a Merge.

    ``mode`` is one of

    * ``group`` — a group-by key column (join attribute of the merge);
    * ``add`` — numeric combine ``old + delta`` treating NULL as 0
      (sum/count change tables);
    * ``replace`` — take the change value when present, else the old value
      (recomputed groups for holistic aggregates, carried attributes);
    * ``min`` / ``max`` — combine by min/max (insert-only maintenance of
      extrema; deletions require recomputation);
    * ``ratio`` — derived column computed after the others as
      ``merged[args[0]] / merged[args[1]]`` (avg = sum/count).
    """

    __slots__ = ("column", "mode", "args")

    MODES = ("group", "add", "replace", "min", "max", "ratio")

    def __init__(self, column: str, mode: str, args: tuple = ()):
        if mode not in self.MODES:
            raise SchemaError(f"unknown combiner mode {mode!r}")
        if mode == "ratio" and len(args) != 2:
            raise SchemaError("ratio combiner needs (numerator, denominator)")
        self.column = column
        self.mode = mode
        self.args = tuple(args)

    def __repr__(self):
        if self.args:
            return f"{self.column}:{self.mode}{self.args!r}"
        return f"{self.column}:{self.mode}"


class Merge(Expr):
    """Π(stale ⟗ change) — the change-table merge of Ex. 1.

    Joins the stale relation with a change relation on ``key`` (full outer,
    equality) and combines columns per the :class:`Combiner` list.  Rows
    whose change-side ``__delcount__`` drives their group empty are removed
    (superfluous rows); change-only keys become insertions (missing rows).

    The change relation must contain the key columns, one column per
    combiner, and optionally ``__delcount__`` with the net count delta used
    to detect emptied groups.
    """

    __slots__ = ("stale", "change", "key", "combiners", "drop_empty")

    def __init__(
        self,
        stale: Expr,
        change: Expr,
        key: Sequence[str],
        combiners: Sequence[Combiner],
        drop_empty: bool = True,
    ):
        self.stale = stale
        self.change = change
        self.key = tuple(key)
        self.combiners = tuple(combiners)
        self.drop_empty = bool(drop_empty)

    def children(self):
        return (self.stale, self.change)

    def with_children(self, children):
        stale, change = children
        return Merge(stale, change, self.key, self.combiners, self.drop_empty)

    def resolve_plans(self, stale_schema, change_schema):
        """Bind the combiners to column positions of both input schemas.

        Returns ``(plans, ratio_plans)`` where ``plans`` is a list of
        ``(out_pos, mode, change_pos)`` value combiners applied first and
        ``ratio_plans`` a list of ``(out_pos, num_pos, den_pos)`` derived
        columns computed afterwards from the merged values (avg =
        hidden sum ÷ count).  ``group`` combiners resolve to nothing —
        the key columns are the merge's join attributes, not combined
        values.  Shared by the row and the columnar engines, so both
        surface the same :class:`~repro.errors.SchemaError` for a
        combiner naming a missing column.
        """
        plans = []
        ratio_plans = []
        for comb in self.combiners:
            out_pos = stale_schema.index(comb.column)
            if comb.mode == "group":
                continue
            if comb.mode == "ratio":
                num_pos = stale_schema.index(comb.args[0])
                den_pos = stale_schema.index(comb.args[1])
                ratio_plans.append((out_pos, num_pos, den_pos))
                continue
            change_pos = change_schema.index(comb.column)
            plans.append((out_pos, comb.mode, change_pos))
        return plans, ratio_plans

    def __repr__(self):
        return (
            f"Merge[key={list(self.key)}; "
            f"{', '.join(map(repr, self.combiners))}]"
            f"({self.stale!r}, {self.change!r})"
        )


def distinct(child: Expr, columns: Sequence[str]) -> Aggregate:
    """DISTINCT as the aggregation special case (paper §3.1)."""
    return Aggregate(child, columns, ())
