"""Random query generation over materialized views — paper §7.1.

For each view the paper generates 100 random sum/avg/count queries: a
random attribute a from the group-by clause supplies a range predicate
over a random subset of its domain, and a random numeric attribute b is
aggregated.  :class:`QueryGenerator` reproduces that scheme against any
keyed view relation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.algebra.predicates import ALWAYS, Between, IsIn, col
from repro.algebra.relation import Relation
from repro.core.estimators import AggQuery
from repro.errors import WorkloadError


class QueryGenerator:
    """Draws random predicated aggregate queries over one view.

    Parameters
    ----------
    view_data:
        The materialized view relation (domains are read from it).
    predicate_attrs:
        Attributes eligible for the random range predicate (typically the
        view's group-by attributes).
    aggregate_attrs:
        Numeric attributes eligible for aggregation.
    funcs:
        The aggregate functions to draw from.
    """

    def __init__(
        self,
        view_data: Relation,
        predicate_attrs: Sequence[str],
        aggregate_attrs: Sequence[str],
        funcs: Sequence[str] = ("sum", "count", "avg"),
        seed: int = 0,
        min_selectivity: float = 0.05,
    ):
        if not predicate_attrs or not aggregate_attrs:
            raise WorkloadError("need predicate and aggregate attributes")
        self.view_data = view_data
        self.predicate_attrs = list(predicate_attrs)
        self.aggregate_attrs = list(aggregate_attrs)
        self.funcs = list(funcs)
        self.rng = np.random.default_rng(seed)
        self.min_selectivity = min_selectivity

    def _predicate(self, attr: str):
        values = self.view_data.column(attr)
        if not values:
            return ALWAYS
        distinct, ordered = _domain(values)
        if len(distinct) <= 3:
            picks = self.rng.choice(
                len(distinct), size=max(1, len(distinct) // 2), replace=False
            )
            return IsIn(col(attr), [distinct[i] for i in picks])
        # A random contiguous subrange covering at least min_selectivity
        # of the domain (the paper's "countryCode > 50 and < 100" style).
        n = len(distinct)
        width = max(2, int(n * self.rng.uniform(self.min_selectivity, 0.6)))
        start = int(self.rng.integers(0, max(1, n - width)))
        if not ordered:
            # No order to take a range in: the same stretch of the domain
            # as a key set.
            return IsIn(col(attr), distinct[start:start + width])
        return Between(col(attr), distinct[start], distinct[start + width - 1])

    def draw(self, func: Optional[str] = None) -> AggQuery:
        """One random query (random predicate attr, agg attr, function)."""
        if func is None:
            func = self.funcs[int(self.rng.integers(0, len(self.funcs)))]
        pattr = self.predicate_attrs[
            int(self.rng.integers(0, len(self.predicate_attrs)))
        ]
        aattr = (
            None
            if func == "count"
            else self.aggregate_attrs[
                int(self.rng.integers(0, len(self.aggregate_attrs)))
            ]
        )
        pred = self._predicate(pattr)
        return AggQuery(func, aattr, pred, name=f"{func}({aattr or '*'})|{pattr}")

    def batch(self, n: int, func: Optional[str] = None) -> List[AggQuery]:
        """``n`` random queries (paper: 100 per view)."""
        return [self.draw(func) for _ in range(n)]


def _domain(values) -> tuple:
    """``(distinct values, in value order?)`` of one column.

    Value order when the values are totally ordered (numbers, strings),
    so a range between two of them selects everything in between.  A
    domain that is not — mixed types that do not compare, or NaN — is
    ordered by ``repr`` instead, where a "range" would select by
    accident.
    """
    distinct = list(set(values))
    try:
        ranked = sorted(distinct)
        if all(a < b for a, b in zip(ranked, ranked[1:])):
            return ranked, True
    except TypeError:
        pass
    return sorted(distinct, key=repr), False


def relative_error(estimate: float, truth: float) -> float:
    """|r − r'| / |r|, capped at 100% (paper §7.1.1, Fig 12's axis).

    Zero truth counts as exact iff the estimate is also zero; NaN
    estimates count as fully wrong.
    """
    if truth == 0:
        return 0.0 if estimate == 0 else 1.0
    if estimate != estimate:  # NaN estimate counts as fully wrong
        return 1.0
    return min(1.0, abs(estimate - truth) / abs(truth))


def median_relative_error(pairs) -> float:
    """Median of relative errors over (estimate, truth) pairs."""
    errs = [relative_error(e, t) for e, t in pairs]
    return float(np.median(errs)) if errs else 0.0


def max_relative_error(pairs) -> float:
    """Max of relative errors over (estimate, truth) pairs (Fig 12)."""
    errs = [relative_error(e, t) for e, t in pairs]
    return float(max(errs)) if errs else 0.0
