"""Query result estimation — paper Problem 2 and §5.

Two estimators over the corresponding samples (Ŝ dirty, Ŝ' clean):

* **SVC+AQP** — the direct estimate  q(S') ≈ s · q(Ŝ')  with the AQP
  scaling factor s (1/m for sum/count, 1 for avg).
* **SVC+CORR** — the correction estimate
  q(S') ≈ q(S) + (s·q(Ŝ') − s·q(Ŝ)), i.e. run the query on the *full
  stale view* and correct it by the estimated staleness c.

Both are unbiased for sum/count/avg (Lemma 1) and the correction has
lower variance while the view is only mildly stale (§5.2.2); group-by
variants apply the estimator per group.  median/percentile queries are
bounded by bootstrap (``repro.core.bootstrap``), min/max by Cantelli
corrections (``repro.core.extremes``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.algebra.aggregates import get_aggregate
from repro.algebra.predicates import ALWAYS, Predicate
from repro.algebra.relation import Relation
from repro.core.confidence import (
    DiffTable,
    Estimate,
    Side,
    _try_columns,
    diff_entries,
    diff_table,
    group_mean,
    group_spread,
    group_sums,
    ht_se,
    spread_se,
)
from repro.errors import EstimationError

SAMPLE_MEAN_FUNCS = ("sum", "count", "avg")


class AggQuery:
    """``SELECT f(attr) FROM view WHERE condition`` (paper Problem 2).

    Group-by is modeled separately (:func:`estimate_groups`) or folded
    into the condition, as in the paper.
    """

    def __init__(
        self,
        func: str,
        attr: Optional[str] = None,
        predicate: Predicate = ALWAYS,
        name: Optional[str] = None,
    ):
        if func != "count" and attr is None:
            raise EstimationError(f"aggregate {func!r} requires an attribute")
        self.func = func
        self.attr = attr
        self.predicate = predicate
        self.name = name or f"{func}({attr or '*'})"

    def evaluate(self, rel: Relation) -> float:
        """Exact evaluation on a full relation (no sampling)."""
        cols = _try_columns(rel, self)
        if cols is not None:
            return self._reduce(*cols)
        pred = self.predicate.bind(rel.schema)
        if self.func == "count":
            return float(sum(1 for row in rel.rows if pred(row)))
        idx = rel.schema.index(self.attr)
        values = [row[idx] for row in rel.rows if pred(row)]
        return float(_as_float(get_aggregate(self.func).compute(values)))

    def _reduce(self, mask: np.ndarray, values: Optional[np.ndarray]) -> float:
        """:meth:`evaluate` of one batch-kernel result.

        Integer and bool sums stay in integers, like Python's ``sum``;
        float sums are numpy's pairwise sums (last-bit differences).
        """
        if self.func == "count":
            return float(np.count_nonzero(mask))
        matched = values[mask]
        if self.func == "sum":
            return float(matched.sum())
        if self.func == "avg":
            if not len(matched):
                return float("nan")
            return float(matched.sum().item() / len(matched))
        return float(
            _as_float(get_aggregate(self.func).compute(matched.tolist()))
        )

    def matching_values(self, rel: Relation) -> np.ndarray:
        """Attribute values of rows satisfying the predicate."""
        cols = _try_columns(rel, self)
        if cols is not None:
            mask, values = cols
            if values is None:
                return np.ones(np.count_nonzero(mask))
            return values[mask].astype(float)
        pred = self.predicate.bind(rel.schema)
        if self.attr is None:
            return np.array([1.0 for row in rel.rows if pred(row)])
        idx = rel.schema.index(self.attr)
        return np.array(
            [row[idx] for row in rel.rows if pred(row)], dtype=float
        )

    def selectivity(self, rel: Relation) -> float:
        """Fraction p of rows satisfying the predicate (§5.2.3)."""
        if len(rel) == 0:
            return 0.0
        cols = _try_columns(rel, self)
        if cols is not None:
            return np.count_nonzero(cols[0]) / len(rel)
        pred = self.predicate.bind(rel.schema)
        return sum(1 for row in rel.rows if pred(row)) / len(rel)

    def __repr__(self):
        return f"AggQuery({self.name})"


def _as_float(value) -> float:
    if value is None:
        return float("nan")
    return float(value)


# ----------------------------------------------------------------------
# Reductions of the table (see repro.core.confidence.DiffTable), per group
# ----------------------------------------------------------------------
def _aqp(table: DiffTable, side: Side, se: bool = True):
    """``(point, se)`` of SVC+AQP over one side of the table; the SE is
    None unless asked for."""
    n = len(table.groups)
    if table.func == "avg":
        gid = side.gid if side.gid is None else side.gid[side.hit]
        if not se:
            return group_mean(gid, side.t[side.hit], n)[1], None
        k, mean, ssd = group_spread(gid, side.t[side.hit], n)
        return mean, spread_se(k, ssd)
    point = group_sums(side.gid, side.t, n)
    return point, ht_se(side.gid, side.t, n, table.ratio) if se else None


def _diff_se(table: DiffTable):
    """SE of the correction: Horvitz–Thompson, or of a mean for avg."""
    gid, diffs = diff_entries(table)
    n = len(table.groups)
    if table.func == "avg":
        k, _, ssd = group_spread(gid, diffs, n)
        return spread_se(k, ssd)
    return ht_se(gid, diffs, n, table.ratio)


def _corr(table: DiffTable, stale_value):
    """``(value, se)`` of SVC+CORR: q(S) plus the estimated staleness."""
    fresh, fresh_se = _aqp(table, table.fresh)
    was, _ = _aqp(table, table.stale, se=False)
    correction = fresh - was
    # Degenerate avg cases (no predicate-matching rows in a sample).
    # Nothing matches in the clean sample: the stale answer stands.
    # Rows match in the clean sample only (a group that entered the
    # sample this period): there is no dirty mean to correct from, so
    # the direct estimate is the answer, value and SE.
    degenerate = np.isnan(correction)
    direct = degenerate & ~np.isnan(fresh)
    value = np.where(
        direct, fresh, stale_value + np.where(degenerate, 0.0, correction)
    )
    return value, np.where(direct, fresh_se, _diff_se(table))


def _recommend(table: DiffTable) -> np.ndarray:
    """§5.2.2 break-even: "corr" while σ²_diff ≤ σ²_fresh, per group.

    Equivalently σ²_S ≤ 2 cov(S, S'); past the break-even point the
    direct estimate is more accurate.  Fewer than two values: "corr".
    """
    n = len(table.groups)

    def variance(gid, x):  # of the sum of len(x) values
        k, _, ssd = group_spread(gid, x, n)
        return k, np.divide(ssd, k - 1, out=np.zeros(n), where=k > 1) * k

    fresh = table.fresh
    rows = fresh.hit if table.func == "avg" else slice(None)
    k_diff, var_diff = variance(*diff_entries(table))
    k_fresh, var_fresh = variance(
        fresh.gid if fresh.gid is None else fresh.gid[rows], fresh.t[rows])
    corr = (k_diff < 2) | (k_fresh < 2) | (var_diff <= var_fresh)
    return np.where(corr, "corr", "aqp")


def merge_strata(sampled: DiffTable, exact: DiffTable,
                 stale_value: Optional[float] = None):
    """``(value, se)`` of one estimate from the sampled stratum and the
    exact one — the outlier rows, a table at ratio 1 (§6.3).

    sum/count add the strata; the exact one has no variance.  avg
    weighs each stratum's mean (0 when empty) by its share of the
    estimated matching rows W = Σ_reg 1/m + n_out, which is the ratio
    form v = (Σ_reg v/m + Σ_out v) / W.  With ``stale_value`` the same
    weights merge the per-stratum corrections into q(S) + c.
    """
    avg = sampled.func == "avg"

    def aqp(table, side, se=False):
        point, err = _aqp(table, side, se)
        return 0.0 if avg and not side.hit.any() else float(point[0]), err

    reg, reg_se = aqp(sampled, sampled.fresh, se=avg or stale_value is None)
    out, _ = aqp(exact, exact.fresh)
    if stale_value is not None:
        reg -= aqp(sampled, sampled.stale)[0]
        out -= aqp(exact, exact.stale)[0]
    if not avg:
        if stale_value is None:
            return reg + out, float(reg_se[0])
        return stale_value + reg + out, float(_diff_se(sampled)[0])
    n_out = np.count_nonzero(exact.fresh.hit)
    total = np.count_nonzero(sampled.fresh.hit) / sampled.ratio + n_out
    if total <= 0:
        raise EstimationError("no rows satisfy the query condition")
    share = n_out / total
    value = (1 - share) * reg + share * out
    if stale_value is not None:
        value = stale_value + value
    return float(value), float(reg_se[0]) * float(1 - share)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _sample_mean(query: AggQuery, who: str) -> None:
    if query.func not in SAMPLE_MEAN_FUNCS:
        raise EstimationError(
            f"{who} bounds sample means; use bootstrap/extremes for "
            f"{query.func!r}"
        )


def _view_key(clean: Relation, dirty: Relation, key) -> Sequence[str]:
    if key is None:
        key = clean.key or dirty.key
    if not key:
        raise EstimationError("svc_corr requires the view primary key")
    return key


def svc_aqp(
    clean_sample: Relation,
    query: AggQuery,
    ratio: float,
    confidence: float = 0.95,
) -> Estimate:
    """Direct estimate from the clean sample (paper §5.1, SVC+AQP)."""
    _sample_mean(query, "svc_aqp")
    table = diff_table(query, ratio, clean_sample)
    point, se = _aqp(table, table.fresh)
    return Estimate(float(point[0]), float(se[0]), confidence,
                    method="SVC+AQP", sample_rows=len(clean_sample))


def svc_corr(
    stale_view: Relation,
    dirty_sample: Relation,
    clean_sample: Relation,
    query: AggQuery,
    ratio: float,
    key: Sequence[str] = None,
    confidence: float = 0.95,
    stale_value: Optional[float] = None,
) -> Estimate:
    """Correction estimate (paper §5.1, SVC+CORR).

    ``stale_value`` may pass a precomputed q(S) to avoid rescanning the
    full view for every query in a sweep.
    """
    _sample_mean(query, "svc_corr")
    key = _view_key(clean_sample, dirty_sample, key)
    if stale_value is None:
        stale_value = query.evaluate(stale_view)
    table = diff_table(query, ratio, clean_sample, dirty_sample, key)
    value, se = _corr(table, stale_value)
    return Estimate(float(value[0]), float(se[0]), confidence,
                    method="SVC+CORR", sample_rows=len(clean_sample))


def partition(rel: Relation, group_by: Sequence[str]) -> Dict[tuple, Relation]:
    """Split a relation into per-group sub-relations."""
    idx = rel.schema.indexes(group_by)
    buckets: Dict[tuple, list] = {}
    for row in rel.rows:
        buckets.setdefault(tuple(row[i] for i in idx), []).append(row)
    return {
        k: Relation(rel.schema, rows, key=rel.key, name=rel.name)
        for k, rows in buckets.items()
    }


def estimate_groups(
    method: str,
    query: AggQuery,
    group_by: Sequence[str],
    ratio: float,
    clean_sample: Relation,
    dirty_sample: Optional[Relation] = None,
    stale_view: Optional[Relation] = None,
    confidence: float = 0.95,
) -> Dict[tuple, Estimate]:
    """Per-group estimates for a group-by aggregate query.

    ``method`` is ``"aqp"``, ``"corr"`` or ``"auto"`` (the §5.2.2
    break-even choice, group by group).  Groups present in the stale
    view but absent from both samples get a zero correction (CORR) — the
    stale value stands; AQP reports no estimate for groups it never saw.
    """
    if query.func not in SAMPLE_MEAN_FUNCS:
        return _point_estimate_groups(
            "corr" if method == "auto" else method, query, ratio,
            partition(clean_sample, group_by),
            partition(dirty_sample, group_by) if dirty_sample is not None else {},
            partition(stale_view, group_by) if stale_view is not None else {},
            confidence,
        )
    if method == "aqp":
        table = diff_table(query, ratio, clean_sample, group_by=group_by)
        value, se = _aqp(table, table.fresh)
        direct = np.ones(len(value), dtype=bool)
    elif method in ("corr", "auto"):
        if dirty_sample is None or stale_view is None:
            raise EstimationError(
                "corr estimation needs dirty sample + stale view")
        key = _view_key(clean_sample, dirty_sample, None)
        table = diff_table(query, ratio, clean_sample, dirty_sample, key,
                           group_by, stale_view)
        value, se = _corr(table, table.stale_value)
        direct = np.zeros(len(value), dtype=bool)
        if method == "auto":
            direct = _recommend(table) == "aqp"
            aqp_value, aqp_se = _aqp(table, table.fresh)
            value = np.where(direct, aqp_value, value)
            se = np.where(direct, aqp_se, se)
    else:
        raise EstimationError(f"unknown estimation method {method!r}")
    gid = table.fresh.gid
    rows = (np.bincount(gid, minlength=len(table.groups)) if gid is not None
            else np.array([len(clean_sample)]))
    return {
        g: Estimate(v, s, confidence, method=label, sample_rows=r)
        for g, v, s, label, r in zip(
            table.groups, value.tolist(), se.tolist(),
            np.where(direct, "SVC+AQP", "SVC+CORR").tolist(), rows.tolist(),
        )
    }


def _point_estimate_groups(
    method: str,
    query: AggQuery,
    ratio: float,
    clean_parts: Dict[tuple, Relation],
    dirty_parts: Dict[tuple, Relation],
    stale_parts: Dict[tuple, Relation],
    confidence: float,
) -> Dict[tuple, Estimate]:
    """Per-group point estimates for holistic aggregates (median etc.).

    Medians/percentiles are not scaled by 1/m; CORR applies the direct
    difference of sample aggregates to the stale group value (the
    bootstrap in ``repro.core.bootstrap`` bounds single queries; per
    group the point estimate is what Fig 13 reports).
    """
    out: Dict[tuple, Estimate] = {}
    groups = set(clean_parts) | (set(stale_parts) if method == "corr" else set())
    for g in groups:
        clean_part = clean_parts.get(g)
        clean_val = query.evaluate(clean_part) if clean_part is not None else float("nan")
        if method == "aqp":
            out[g] = Estimate(clean_val, float("nan"), confidence,
                              method="SVC+AQP(point)",
                              sample_rows=len(clean_part) if clean_part else 0)
            continue
        stale_part = stale_parts.get(g)
        stale_val = query.evaluate(stale_part) if stale_part is not None else 0.0
        dirty_part = dirty_parts.get(g)
        dirty_val = query.evaluate(dirty_part) if dirty_part is not None else float("nan")
        if np.isnan(clean_val):
            value = stale_val
        elif np.isnan(dirty_val) or stale_part is None:
            value = clean_val
        else:
            value = stale_val + (clean_val - dirty_val)
        out[g] = Estimate(value, float("nan"), confidence,
                          method="SVC+CORR(point)",
                          sample_rows=len(clean_part) if clean_part else 0)
    return out


# ----------------------------------------------------------------------
# Estimator selection (§5.2.2)
# ----------------------------------------------------------------------
def recommend_estimator(
    dirty_sample: Relation,
    clean_sample: Relation,
    query: AggQuery,
    ratio: float,
    key: Sequence[str] = None,
) -> str:
    """Pick "corr" or "aqp" from the break-even analysis of §5.2.2."""
    if key is None:
        key = clean_sample.key or dirty_sample.key
    table = diff_table(query, ratio, clean_sample, dirty_sample, key)
    return str(_recommend(table)[0])
