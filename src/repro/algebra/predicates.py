"""Scalar terms and boolean predicates over rows.

Generalized projection (paper §3.1) allows output attributes that are
arithmetic transformations of input attributes; selections need boolean
conditions.  Both are represented as small immutable term trees that can
be *bound* against a :class:`~repro.algebra.schema.Schema` to produce a
fast ``row -> value`` callable (index lookups are resolved once at bind
time instead of per row).

Terms additionally support *columnar* evaluation: :meth:`Term.vector`
computes the term over every row at once against a
:class:`~repro.algebra.columnar.ColumnarRelation`, and
:meth:`Predicate.mask` turns a predicate into a boolean selection mask.
An opaque :class:`Func` is mapped over the Python values of the columns
its arguments read; whatever it raises, the evaluator catches, and the
row path then raises the reference error.  A :class:`Tup` has a vector
form only as an :class:`IsIn` key-set probe; elsewhere it raises
:class:`~repro.errors.VectorizationError`, which the evaluator catches to
fall back to the row path — so the columnar path never changes results.

Terms report the set of columns they reference via :meth:`Term.columns`,
which the hash push-down optimizer uses to decide whether a projection
retains the sampling key.
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, Sequence

import numpy as np

from repro.algebra.schema import Schema
from repro.errors import VectorizationError

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

#: Largest |operand| product/sum allowed through int64 vector arithmetic;
#: beyond this the columnar path defers to Python's big ints (row path).
_INT64_SAFE = 1 << 62


def _int_bound(value) -> int:
    """Max absolute value of an integer array or scalar."""
    if isinstance(value, np.ndarray):
        if value.size == 0:
            return 0
        return max(abs(int(value.min())), abs(int(value.max())))
    return abs(int(value))


def _is_int_like(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biu"
    return isinstance(value, (bool, int, np.integer))


def _guard_int_overflow(op: str, left, right) -> None:
    """Refuse int64 vector arithmetic that could wrap (row path is exact)."""
    if op not in ("+", "-", "*"):
        return
    if not (_is_int_like(left) and _is_int_like(right)):
        return
    if not (isinstance(left, np.ndarray) or isinstance(right, np.ndarray)):
        return
    lb, rb = _int_bound(left), _int_bound(right)
    risk = lb * rb if op == "*" else lb + rb
    if risk >= _INT64_SAFE:
        raise VectorizationError(f"int64 overflow risk in vectorized {op!r}")


def _is_bool_like(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b"
    return isinstance(value, bool)


def _guard_bool_arith(op: str, left, right) -> None:
    """Refuse bool-with-bool vector arithmetic (numpy makes it logical).

    Python's ``True + True`` is ``2`` and ``True * True`` is ``1``;
    numpy's ``+``/``*`` on two bool operands are logical OR/AND, which
    would leak wrong values into masks and projected columns.  Mixed
    bool/int operands are safe (numpy promotes the bool side to int).
    """
    if op not in ("+", "-", "*"):
        return
    if not (_is_bool_like(left) and _is_bool_like(right)):
        return
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        raise VectorizationError(f"bool arithmetic {op!r} is logical in numpy")


def _kinds_match(a: str, b: str) -> bool:
    """True when two dtype kinds compare consistently under np.isin."""
    numeric = "biuf"
    text = "US"
    return (a in numeric and b in numeric) or (a in text and b in text)


def _has_nan(arr: np.ndarray) -> bool:
    return arr.dtype.kind == "f" and bool(np.isnan(arr).any())


#: Magnitude beyond which float64 cannot represent every integer, so
#: numpy's int→float comparison promotion diverges from Python's exact
#: int-vs-float comparison semantics.
_FLOAT_EXACT = 1 << 53


def _numeric_kind(value):
    """'i' / 'f' dtype-kind of an operand, or None if non-numeric."""
    if isinstance(value, np.ndarray):
        k = value.dtype.kind
        return "i" if k in "biu" else ("f" if k == "f" else None)
    if isinstance(value, (bool, int, np.integer)):
        return "i"
    if isinstance(value, float):
        return "f"
    return None


def _guard_exact_compare(left, right) -> None:
    """Refuse vector comparisons where int→float promotion loses exactness.

    Python compares int vs float exactly; numpy promotes the int side to
    float64 first, which differs once magnitudes reach 2**53.  Mixed
    int/float comparisons over that bound fall back to the row path.
    """
    lk, rk = _numeric_kind(left), _numeric_kind(right)
    if lk is None or rk is None or lk == rk:
        return
    if max(_int_bound(left), _int_bound(right)) >= _FLOAT_EXACT:
        raise VectorizationError("int/float comparison beyond 2**53")


def _guard_exact_divide(op: str, left, right) -> None:
    """Refuse int/int vector division whose operands exceed 2**53.

    Python's ``int / int`` is correctly rounded from the exact rational;
    numpy converts both sides to float64 *before* dividing, which can
    differ once either operand loses exactness.  Such divisions fall
    back to the row path (batch-projected values and selection masks
    must agree with the row engine bit-for-bit).
    """
    if op != "/":
        return
    if not (_is_int_like(left) and _is_int_like(right)):
        return
    if not (isinstance(left, np.ndarray) or isinstance(right, np.ndarray)):
        return  # scalar/scalar stays Python division — already exact
    if max(_int_bound(left), _int_bound(right)) >= _FLOAT_EXACT:
        raise VectorizationError("int/int division beyond 2**53")


class Term:
    """Base class for scalar terms and predicates."""

    def columns(self) -> FrozenSet[str]:
        """The set of column names this term reads."""
        raise NotImplementedError

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        """Compile this term against ``schema`` into a ``row -> value``."""
        raise NotImplementedError

    def vector(self, cols):
        """Columnar evaluation: the term over all rows of ``cols``.

        Returns an ndarray (or a scalar for row-independent terms).
        Terms with no vectorized form raise
        :class:`~repro.errors.VectorizationError`.
        """
        raise VectorizationError(
            f"{type(self).__name__} has no columnar evaluation"
        )

    # Operator sugar so callers can write ``col("x") + 1 > col("y")``.
    def __add__(self, other):
        return BinOp("+", self, _coerce(other))

    def __sub__(self, other):
        return BinOp("-", self, _coerce(other))

    def __mul__(self, other):
        return BinOp("*", self, _coerce(other))

    def __truediv__(self, other):
        return BinOp("/", self, _coerce(other))

    def __mod__(self, other):
        return BinOp("%", self, _coerce(other))

    def __radd__(self, other):
        return BinOp("+", _coerce(other), self)

    def __rsub__(self, other):
        return BinOp("-", _coerce(other), self)

    def __rmul__(self, other):
        return BinOp("*", _coerce(other), self)

    def __eq__(self, other):  # type: ignore[override]
        return Comparison("==", self, _coerce(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("!=", self, _coerce(other))

    def __lt__(self, other):
        return Comparison("<", self, _coerce(other))

    def __le__(self, other):
        return Comparison("<=", self, _coerce(other))

    def __gt__(self, other):
        return Comparison(">", self, _coerce(other))

    def __ge__(self, other):
        return Comparison(">=", self, _coerce(other))

    __hash__ = None


def _coerce(value) -> "Term":
    return value if isinstance(value, Term) else Const(value)


def _py_values(term: "Term", cols) -> list:
    """``term`` over every row of ``cols`` as Python values — the values
    a bound row function sees.  A column is read through ``pyvalues``
    (the row tuples' own objects where the batch has them) and a
    constant is repeated; any other term is vectorized."""
    if isinstance(term, Col):
        return cols.pyvalues(term.name)
    if isinstance(term, Const):
        return [term.value] * cols.nrows
    val = term.vector(cols)
    if isinstance(val, np.ndarray) and val.ndim == 1:
        return val.tolist()
    return [val] * cols.nrows


class Col(Term):
    """A reference to a column by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def columns(self):
        return frozenset((self.name,))

    def bind(self, schema):
        i = schema.index(self.name)
        return lambda row: row[i]

    def vector(self, cols):
        return cols.array(self.name)

    def __repr__(self):
        return f"col({self.name!r})"


class Const(Term):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def columns(self):
        return frozenset()

    def bind(self, schema):
        v = self.value
        return lambda row: v

    def vector(self, cols):
        # Sequence constants would broadcast elementwise under numpy
        # where the row path compares them as single values; only true
        # scalars have a columnar form.
        if isinstance(self.value, (list, tuple, set, frozenset, dict, np.ndarray)):
            raise VectorizationError("non-scalar constant")
        return self.value

    def __repr__(self):
        return f"lit({self.value!r})"


class BinOp(Term):
    """A binary arithmetic operation between two terms."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term):
        if op not in _OPS:
            raise ValueError(f"unsupported operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def bind(self, schema):
        fn = _OPS[self.op]
        lf = self.left.bind(schema)
        rf = self.right.bind(schema)
        return lambda row: fn(lf(row), rf(row))

    def vector(self, cols):
        left = self.left.vector(cols)
        right = self.right.vector(cols)
        _guard_int_overflow(self.op, left, right)
        _guard_exact_divide(self.op, left, right)
        _guard_bool_arith(self.op, left, right)
        return _OPS[self.op](left, right)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Func(Term):
    """An arbitrary scalar function of one or more terms.

    ``fn`` is an opaque Python callable; terms built from :class:`Func`
    are treated as *non key-preserving* transformations by the push-down
    optimizer unless the key column is passed through untouched elsewhere
    (this is how the V22-style "string transformation of a key" blocking
    case of the paper arises).
    """

    __slots__ = ("label", "fn", "args")

    def __init__(self, label: str, fn: Callable, args: Sequence[Term]):
        self.label = label
        self.fn = fn
        self.args = tuple(_coerce(a) for a in args)

    def columns(self):
        out = frozenset()
        for a in self.args:
            out |= a.columns()
        return out

    def bind(self, schema):
        fn = self.fn
        bound = [a.bind(schema) for a in self.args]
        return lambda row: fn(*(b(row) for b in bound))

    def vector(self, cols):
        """``fn`` mapped over the Python values of its arguments, in row
        order, as a :func:`~repro.algebra.columnar.column_to_array`
        column.  Only the columns the arguments read are touched; an
        exception from ``fn`` propagates, and the evaluator's row loop
        then raises the reference error."""
        from repro.algebra.columnar import column_to_array

        args = [_py_values(a, cols) for a in self.args]
        if not args:
            return column_to_array([self.fn() for _ in range(cols.nrows)])
        return column_to_array(list(map(self.fn, *args)))

    def __repr__(self):
        return f"{self.label}({', '.join(map(repr, self.args))})"


class Tup(Term):
    """A tuple-valued term ``(t1, t2, ...)``.

    Used by change-table aggregates that need (priority, value) or
    (multiplicity, value) pairs — see ``repro.algebra.aggregates.PICK``.
    """

    __slots__ = ("terms",)

    def __init__(self, *terms):
        self.terms = tuple(_coerce(t) for t in terms)

    def columns(self):
        out = frozenset()
        for t in self.terms:
            out |= t.columns()
        return out

    def bind(self, schema):
        bound = [t.bind(schema) for t in self.terms]
        return lambda row: tuple(b(row) for b in bound)

    def __repr__(self):
        return f"tup({', '.join(map(repr, self.terms))})"


# ----------------------------------------------------------------------
# Boolean predicates
# ----------------------------------------------------------------------
class Predicate(Term):
    """Base class for boolean terms; supports ``&``, ``|``, ``~``."""

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def mask(self, relation) -> np.ndarray:
        """Boolean selection mask of this predicate over ``relation``.

        Vectorized equivalent of binding the predicate and testing every
        row; raises :class:`~repro.errors.VectorizationError` (or the
        error row-wise evaluation would raise) when no columnar form
        exists.  Float divide-by-zero and invalid operations are raised
        rather than silently producing inf/nan, mirroring the row path.
        """
        cols = relation.columnar()
        with np.errstate(divide="raise", invalid="raise"):
            out = self.vector(cols)
        if np.ndim(out) == 0:
            return np.full(cols.nrows, bool(out))
        out = np.asarray(out)
        if out.dtype != np.bool_:
            out = out.astype(bool)
        return out


class Comparison(Predicate):
    """``left <op> right`` where op is a comparison operator."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        if op not in ("==", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"not a comparison operator: {op!r}")
        self.op = op
        self.left = _coerce(left)
        self.right = _coerce(right)

    def columns(self):
        return self.left.columns() | self.right.columns()

    def bind(self, schema):
        fn = _OPS[self.op]
        lf = self.left.bind(schema)
        rf = self.right.bind(schema)
        return lambda row: bool(fn(lf(row), rf(row)))

    def vector(self, cols):
        left = self.left.vector(cols)
        right = self.right.vector(cols)
        _guard_exact_compare(left, right)
        return _OPS[self.op](left, right)

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Predicate):
    """Logical conjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        self.parts = tuple(parts)

    def columns(self):
        out = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out

    def bind(self, schema):
        fns = [p.bind(schema) for p in self.parts]
        return lambda row: all(f(row) for f in fns)

    def vector(self, cols):
        out = True
        for p in self.parts:
            out = np.logical_and(out, p.vector(cols))
        return out

    def __repr__(self):
        return "(" + " & ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Logical disjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        self.parts = tuple(parts)

    def columns(self):
        out = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out

    def bind(self, schema):
        fns = [p.bind(schema) for p in self.parts]
        return lambda row: any(f(row) for f in fns)

    def vector(self, cols):
        out = False
        for p in self.parts:
            out = np.logical_or(out, p.vector(cols))
        return out

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    """Logical negation of a predicate."""

    __slots__ = ("part",)

    def __init__(self, part: Predicate):
        self.part = part

    def columns(self):
        return self.part.columns()

    def bind(self, schema):
        f = self.part.bind(schema)
        return lambda row: not f(row)

    def vector(self, cols):
        return np.logical_not(self.part.vector(cols))

    def __repr__(self):
        return f"~{self.part!r}"


class IsIn(Predicate):
    """``term IN (v1, v2, ...)`` membership test."""

    __slots__ = ("term", "values")

    def __init__(self, term, values):
        self.term = _coerce(term)
        self.values = frozenset(values)

    def columns(self):
        return self.term.columns()

    def bind(self, schema):
        f = self.term.bind(schema)
        vals = self.values
        return lambda row: f(row) in vals

    def vector(self, cols):
        vals = self.values
        if isinstance(self.term, Tup):
            # A multi-attribute key set: the row path's tuples, built
            # from the component columns alone.
            keys = zip(*(_py_values(t, cols) for t in self.term.terms))
            return np.fromiter((k in vals for k in keys), dtype=bool,
                               count=cols.nrows)
        arr = self.term.vector(cols)
        if np.ndim(arr) == 0:
            return arr in vals
        arr = np.asarray(arr)
        if arr.dtype != object:
            # Type-faithful conversion of the value set: mixed str/int
            # sets must become object arrays (np.asarray would silently
            # stringify the ints) so they take the set-membership path.
            from repro.algebra.columnar import column_to_array

            try:
                varr = column_to_array(list(vals))
            except (ValueError, TypeError, OverflowError):
                varr = None
            # np.isin uses ==-semantics; restrict it to like-kinded,
            # NaN-free inputs whose int→float promotion stays exact so it
            # agrees with set membership.
            if (
                varr is not None
                and varr.ndim == 1
                and _kinds_match(arr.dtype.kind, varr.dtype.kind)
                and not _has_nan(arr)
                and not _has_nan(varr)
                and (
                    _numeric_kind(arr) == _numeric_kind(varr)
                    or max(_int_bound(arr), _int_bound(varr)) < _FLOAT_EXACT
                )
            ):
                return np.isin(arr, varr)
        return np.fromiter(
            (v in vals for v in arr.tolist()), dtype=bool, count=len(arr)
        )

    def __repr__(self):
        return f"({self.term!r} in {sorted(self.values, key=repr)!r})"


class Between(Predicate):
    """``lo <= term <= hi`` (inclusive range test)."""

    __slots__ = ("term", "lo", "hi")

    def __init__(self, term, lo, hi):
        self.term = _coerce(term)
        self.lo = lo
        self.hi = hi

    def columns(self):
        return self.term.columns()

    def bind(self, schema):
        f = self.term.bind(schema)
        lo, hi = self.lo, self.hi
        return lambda row: lo <= f(row) <= hi

    def vector(self, cols):
        arr = self.term.vector(cols)
        _guard_exact_compare(self.lo, arr)
        _guard_exact_compare(arr, self.hi)
        return np.logical_and(self.lo <= arr, arr <= self.hi)

    def __repr__(self):
        return f"({self.lo!r} <= {self.term!r} <= {self.hi!r})"


class TruePredicate(Predicate):
    """A predicate that accepts every row (the trivial condition)."""

    __slots__ = ()

    def columns(self):
        return frozenset()

    def bind(self, schema):
        return lambda row: True

    def vector(self, cols):
        return True

    def __repr__(self):
        return "true"


# Convenience constructors mirroring a tiny SQL-ish DSL.
def col(name: str) -> Col:
    """Reference a column: ``col('price') * (1 - col('discount'))``."""
    return Col(name)


def lit(value) -> Const:
    """A literal constant term."""
    return Const(value)


def func(label: str, fn: Callable, *args) -> Func:
    """An opaque scalar function term (blocks key push-down)."""
    return Func(label, fn, args)


ALWAYS = TruePredicate()
