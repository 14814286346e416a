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
from repro.algebra.columnar import group_ids
from repro.algebra.predicates import ALWAYS, Predicate
from repro.algebra.relation import Relation
from repro.core.confidence import (
    Estimate,
    _keyed_columns,
    _trans_columns,
    _try_alignment,
    _try_columns,
    correspondence_subtract,
    diff_se,
    mean_se,
    sum_se,
    trans_values,
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
# SVC+AQP
# ----------------------------------------------------------------------
def svc_aqp(
    clean_sample: Relation,
    query: AggQuery,
    ratio: float,
    confidence: float = 0.95,
    se_method: str = "ht",
) -> Estimate:
    """Direct estimate from the clean sample (paper §5.1, SVC+AQP)."""
    if query.func not in SAMPLE_MEAN_FUNCS:
        raise EstimationError(
            f"svc_aqp bounds sample means; use bootstrap/extremes for "
            f"{query.func!r}"
        )
    values = trans_values(clean_sample, query, ratio)
    if query.func == "avg":
        point = float(values.mean()) if len(values) else float("nan")
        se = mean_se(values)
    else:
        point = float(values.sum())
        se = sum_se(values, ratio, se_method)
    return Estimate(
        point, se, confidence, method="SVC+AQP", sample_rows=len(clean_sample)
    )


# ----------------------------------------------------------------------
# SVC+CORR
# ----------------------------------------------------------------------
def svc_corr(
    stale_view: Relation,
    dirty_sample: Relation,
    clean_sample: Relation,
    query: AggQuery,
    ratio: float,
    key: Sequence[str] = None,
    confidence: float = 0.95,
    se_method: str = "ht",
    stale_value: Optional[float] = None,
) -> Estimate:
    """Correction estimate (paper §5.1, SVC+CORR).

    ``stale_value`` may pass a precomputed q(S) to avoid rescanning the
    full view for every query in a sweep.
    """
    if query.func not in SAMPLE_MEAN_FUNCS:
        raise EstimationError(
            f"svc_corr bounds sample means; use bootstrap/extremes for "
            f"{query.func!r}"
        )
    if key is None:
        key = clean_sample.key or dirty_sample.key
    if not key:
        raise EstimationError("svc_corr requires the view primary key")
    if stale_value is None:
        stale_value = query.evaluate(stale_view)

    fresh_est = svc_aqp(clean_sample, query, ratio, confidence, se_method)
    stale_est = svc_aqp(dirty_sample, query, ratio, confidence, se_method)
    correction = fresh_est.value - stale_est.value
    if np.isnan(correction):
        # Degenerate avg cases (no predicate-matching rows in a sample).
        # Nothing matches in the clean sample: the stale answer stands.
        # Rows match in the clean sample only (a group that entered the
        # sample this period): there is no dirty mean to correct from,
        # so the direct estimate is the answer, value and SE.
        if not np.isnan(fresh_est.value):
            return Estimate(
                fresh_est.value, fresh_est.se, confidence,
                method="SVC+CORR", sample_rows=len(clean_sample),
            )
        correction = 0.0

    diffs = correspondence_subtract(clean_sample, dirty_sample, query, ratio, key)
    se = diff_se(diffs, ratio, query.func, se_method)
    return Estimate(
        stale_value + correction,
        se,
        confidence,
        method="SVC+CORR",
        sample_rows=len(clean_sample),
    )


# ----------------------------------------------------------------------
# Group-by variants
# ----------------------------------------------------------------------
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

    ``method`` is ``"aqp"`` or ``"corr"``.  Groups present in the stale
    view but absent from both samples get a zero correction (CORR) — the
    stale value stands; AQP reports no estimate for groups it never saw.
    """
    fast = _try_estimate_groups_columns(
        method, query, group_by, ratio, clean_sample,
        dirty_sample, stale_view, confidence,
    )
    if fast is not None:
        return fast
    clean_parts = partition(clean_sample, group_by)
    if query.func not in SAMPLE_MEAN_FUNCS:
        return _point_estimate_groups(
            method, query, ratio, clean_parts,
            partition(dirty_sample, group_by) if dirty_sample is not None else {},
            partition(stale_view, group_by) if stale_view is not None else {},
            confidence,
        )
    if method == "aqp":
        return {
            g: svc_aqp(part, query, ratio, confidence)
            for g, part in clean_parts.items()
        }
    if method != "corr":
        raise EstimationError(f"unknown estimation method {method!r}")
    if dirty_sample is None or stale_view is None:
        raise EstimationError("corr estimation needs dirty sample + stale view")

    dirty_parts = partition(dirty_sample, group_by)
    stale_parts = partition(stale_view, group_by)
    key = clean_sample.key or dirty_sample.key
    empty = Relation(clean_sample.schema, [], key=key)

    out: Dict[tuple, Estimate] = {}
    for g in set(clean_parts) | set(dirty_parts) | set(stale_parts):
        stale_part = stale_parts.get(g)
        stale_value = query.evaluate(stale_part) if stale_part is not None else 0.0
        out[g] = svc_corr(
            stale_part if stale_part is not None else empty,
            dirty_parts.get(g, empty),
            clean_parts.get(g, empty),
            query,
            ratio,
            key=key,
            confidence=confidence,
            stale_value=stale_value,
        )
    return out


# Group-by on the batch kernel: one kernel result per relation, one set
# of group ids shared by the three relations, and every per-group
# reduction of svc_aqp / svc_corr as a bincount over those ids.  The
# loop above — one svc_corr per group — is its fallback and its oracle.
def _shared_group_ids(rels: Sequence[Relation], group_by: Sequence[str]):
    """Per-relation group ids over one numbering, and the group keys.

    Groups are numbered by first appearance, relation after relation;
    keys meet in a Python dict, so they match as the row path's do.
    """
    index: Dict[tuple, int] = {}
    gids = []
    for rel in rels:
        rel.schema.indexes(group_by)
        gid, keys = group_ids(rel.columnar(), group_by)
        shared = np.fromiter(
            (index.setdefault(k, len(index)) for k in keys),
            dtype=np.intp, count=len(keys),
        )
        gids.append(shared[gid])
    return gids, list(index)


def _group_sums(gid: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group sums in row order; integer and bool columns stay exact."""
    if values.dtype.kind == "f":
        return np.bincount(gid, weights=values, minlength=n_groups)
    out = np.zeros(n_groups, dtype=np.int64)
    np.add.at(out, gid, values.astype(np.int64))
    return out


def _group_mean_se(gid: np.ndarray, values: np.ndarray, n_groups: int):
    """Per-group ``(mean, mean_se)``: (NaN, inf) when empty, SE 0 for one."""
    k = np.bincount(gid, minlength=n_groups)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.bincount(gid, weights=values, minlength=n_groups) / k
        dev = values - mean[gid]
        ssd = np.bincount(gid, weights=dev * dev, minlength=n_groups)
        se = np.sqrt(ssd / (k - 1)) / np.sqrt(k)
    se[k == 1] = 0.0
    se[k == 0] = np.inf
    return mean, se


def _group_sum_se(gid: np.ndarray, values: np.ndarray, n_groups: int, ratio: float):
    """Per-group :func:`sum_se` (Horvitz–Thompson) of trans/diff values."""
    squares = np.bincount(gid, weights=values * values, minlength=n_groups)
    return np.sqrt(np.fmax(0.0, (1.0 - ratio) * squares))


def _group_aqp(cols, gid: np.ndarray, n_groups: int, func: str, ratio: float):
    """``(point, se)`` of :func:`svc_aqp` for every group of one sample."""
    mask, values = cols
    if func == "avg":
        return _group_mean_se(gid[mask], values[mask].astype(float), n_groups)
    trans = _trans_columns(mask, values, func, ratio)
    return (
        np.bincount(gid, weights=trans, minlength=n_groups),
        _group_sum_se(gid, trans, n_groups, ratio),
    )


def _group_exact(cols, gid: np.ndarray, n_groups: int, func: str) -> np.ndarray:
    """:meth:`AggQuery.evaluate` for every group; 0 for a group not in it."""
    mask, values = cols
    matched = gid[mask]
    counts = np.bincount(matched, minlength=n_groups)
    if func == "count":
        return counts.astype(float)
    sums = _group_sums(matched, values[mask], n_groups)
    if func == "sum":
        return sums.astype(float)
    out = np.array(
        [s / k if k else float("nan")
         for s, k in zip(sums.tolist(), counts.tolist())],
        dtype=float,
    )
    out[np.bincount(gid, minlength=n_groups) == 0] = 0.0
    return out


def _group_diffs(clean_cols, dirty_cols, clean_gid, dirty_gid, alignment,
                 func: str, ratio: float):
    """The diff tables of every group at once: ``(group ids, values)``.

    A key present in the same group on both sides is one entry
    ``clean − dirty``; a key on one side only — or whose row changed
    group — is ``clean − 0`` in the clean row's group and ``0 − dirty``
    in the dirty row's, exactly what the per-group key unions give.
    """
    n_keys, clean_pos, dirty_pos = alignment
    clean_val = np.zeros(n_keys)
    dirty_val = np.zeros(n_keys)
    clean_grp = np.full(n_keys, -1, dtype=np.intp)
    dirty_grp = np.full(n_keys, -1, dtype=np.intp)
    clean_val[clean_pos] = _keyed_columns(*clean_cols, func, ratio)
    dirty_val[dirty_pos] = _keyed_columns(*dirty_cols, func, ratio)
    clean_grp[clean_pos] = clean_gid
    dirty_grp[dirty_pos] = dirty_gid
    same = clean_grp == dirty_grp  # never both -1: every slot has a row
    clean_only = (clean_grp >= 0) & ~same
    dirty_only = (dirty_grp >= 0) & ~same
    return (
        np.concatenate(
            [clean_grp[same], clean_grp[clean_only], dirty_grp[dirty_only]]
        ),
        np.concatenate(
            [(clean_val - dirty_val)[same], clean_val[clean_only],
             0.0 - dirty_val[dirty_only]]
        ),
    )


def _try_estimate_groups_columns(
    method: str,
    query: AggQuery,
    group_by: Sequence[str],
    ratio: float,
    clean: Relation,
    dirty: Optional[Relation],
    stale: Optional[Relation],
    confidence: float,
) -> Optional[Dict[tuple, Estimate]]:
    """:func:`estimate_groups` for sum/count/avg without per-group relations.

    None — the per-group loop decides, or raises — for anything but a
    well-formed aqp/corr call and when a relation's kernel result or the
    sample pair's alignment is unavailable.
    """
    func = query.func
    if func not in SAMPLE_MEAN_FUNCS or not (group_by and ratio):
        return None
    if method == "aqp":
        rels = [clean]
    elif method == "corr" and dirty is not None and stale is not None:
        rels = [clean, dirty, stale]
    else:
        return None
    kernel = []
    for rel in rels:
        cols = _try_columns(rel, query)
        if cols is None:
            return None
        kernel.append(cols)
    if method == "corr":
        key = clean.key or dirty.key
        alignment = _try_alignment(clean, dirty, key) if key else None
        if alignment is None:
            return None
    gids, groups = _shared_group_ids(rels, group_by)
    n_groups = len(groups)
    fresh, fresh_se = _group_aqp(kernel[0], gids[0], n_groups, func, ratio)
    if method == "aqp":
        label, value, se = "SVC+AQP", fresh, fresh_se
    else:
        label = "SVC+CORR"
        was, _ = _group_aqp(kernel[1], gids[1], n_groups, func, ratio)
        correction = fresh - was
        degenerate = np.isnan(correction)  # the avg cases of svc_corr
        direct = degenerate & ~np.isnan(fresh)
        stale_value = _group_exact(kernel[2], gids[2], n_groups, func)
        entry_gid, entries = _group_diffs(
            kernel[0], kernel[1], gids[0], gids[1], alignment, func, ratio
        )
        if func == "avg":
            _, se = _group_mean_se(entry_gid, entries, n_groups)
        else:
            se = _group_sum_se(entry_gid, entries, n_groups, ratio)
        value = np.where(
            direct, fresh, stale_value + np.where(degenerate, 0.0, correction)
        )
        se = np.where(direct, fresh_se, se)
    rows = np.bincount(gids[0], minlength=n_groups)
    return {
        g: Estimate(v, s, confidence, method=label, sample_rows=r)
        for g, v, s, r in zip(
            groups, value.tolist(), se.tolist(), rows.tolist()
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
    """Pick "corr" or "aqp" from the break-even analysis of §5.2.2.

    The correction wins while σ²_diff ≤ σ²_fresh (equivalently
    σ²_S ≤ 2 cov(S, S')); past the break-even point the direct estimate
    is more accurate.
    """
    if key is None:
        key = clean_sample.key or dirty_sample.key
    diffs = correspondence_subtract(clean_sample, dirty_sample, query, ratio, key)
    fresh = trans_values(clean_sample, query, ratio)
    if len(diffs) < 2 or len(fresh) < 2:
        return "corr"
    var_diff = float(np.var(diffs, ddof=1)) * len(diffs)
    var_fresh = float(np.var(fresh, ddof=1)) * len(fresh)
    return "corr" if var_diff <= var_fresh else "aqp"
