"""Outlier indexing — paper §6.

Sampling is sensitive to long tails: a few extreme records dominate the
variance of sum/avg estimates.  SVC therefore keeps a small index of
outlier *base* records (attribute beyond a threshold, size-capped with
eviction) and deterministically includes every view row whose lineage
contains an indexed record.  Those rows form a set O ⊆ S' processed at
sampling ratio 1; the hash sample covers S' − O; the two estimates merge
as  v = (N−l)/N · c_reg + l/N · c_out  (§6.3), which preserves
unbiasedness because c_out is deterministic.

Push-up (Def 5) is implemented by *key propagation*: the view keys whose
groups contain an outlier record are exactly the keys selected by the
view definition evaluated with the indexed base relation restricted to
the indexed records — the keyset is then pushed down the maintenance
strategy with the same rules as the hash operator.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.algebra.evaluator import columnar_enabled, evaluate
from repro.algebra.expressions import Aggregate, distinct
from repro.algebra.relation import Relation
from repro.core.cleaning import SampleView
from repro.core.confidence import (
    Estimate,
    correspondence_subtract,
    diff_se,
    mean_se,
    trans_values,
)
from repro.core.estimators import AggQuery, svc_aqp
from repro.core.pushdown import (
    PushdownReport,
    hashed_leaves,
    keyset_factory,
    push_down_with_report,
    push_filter,
)
from repro.db.maintenance import (
    MaintenanceStrategy,
    choose_strategy,
    fresh_expr,
    replace_leaves,
)
from repro.errors import EstimationError


class OutlierIndex:
    """A size-capped index of heavy-tail records on one base relation.

    Parameters
    ----------
    relation_name / attr:
        The indexed base relation and attribute.
    threshold:
        Records with ``attr >= threshold`` are indexed (a ``(lo, hi)``
        tuple indexes both tails: ``attr <= lo or attr >= hi``).
    size_limit:
        Maximum number of indexed records; when full, an incoming record
        evicts the smallest indexed one if it is larger (paper §6.1).
    """

    def __init__(
        self,
        relation_name: str,
        attr: str,
        threshold=None,
        size_limit: int = 100,
    ):
        self.relation_name = relation_name
        self.attr = attr
        self.threshold = threshold
        self.size_limit = int(size_limit)
        self._records: List[tuple] = []
        self._attr_idx: Optional[int] = None

    # ------------------------------------------------------------------
    # Threshold selection strategies (§6.1)
    # ------------------------------------------------------------------
    @classmethod
    def from_top_k(cls, rel: Relation, attr: str, k: int) -> "OutlierIndex":
        """Threshold = the k-th largest attribute value in the relation."""
        values = sorted(rel.column(attr), reverse=True)
        threshold = values[min(k, len(values)) - 1] if values else 0.0
        index = cls(rel.name, attr, threshold=threshold, size_limit=k)
        index.observe(rel)
        return index

    @classmethod
    def from_std(
        cls, rel: Relation, attr: str, c: float, size_limit: int = 100
    ) -> "OutlierIndex":
        """Threshold = mean + c standard deviations of the attribute."""
        arr = rel.column_array(attr)
        threshold = float(arr.mean() + c * arr.std()) if len(arr) else 0.0
        index = cls(rel.name, attr, threshold=threshold, size_limit=size_limit)
        index.observe(rel)
        return index

    # ------------------------------------------------------------------
    def _matches(self, value) -> bool:
        if self.threshold is None:
            return True
        if isinstance(self.threshold, tuple):
            lo, hi = self.threshold
            return value <= lo or value >= hi
        return value >= self.threshold

    def observe(self, rel_or_rows) -> None:
        """Single pass over records (base scan or incoming updates).

        Indexes matching records, evicting the smallest indexed record
        when the size cap is hit (§6.1).
        """
        if isinstance(rel_or_rows, Relation):
            self._attr_idx = rel_or_rows.schema.index(self.attr)
            rows = rel_or_rows.rows
        else:
            if self._attr_idx is None:
                raise EstimationError(
                    "observe() needs a Relation first to locate the attribute"
                )
            rows = rel_or_rows
        idx = self._attr_idx
        for row in rows:
            value = row[idx]
            if not self._matches(value):
                continue
            if len(self._records) < self.size_limit:
                self._records.append(row)
                continue
            smallest = min(range(len(self._records)),
                           key=lambda i: self._records[i][idx])
            if value > self._records[smallest][idx]:
                self._records[smallest] = row

    @property
    def records(self) -> List[tuple]:
        """The indexed records (size-capped)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def as_relation(self, schema, key=None) -> Relation:
        """The indexed records packaged as a relation."""
        return Relation(schema, self._records, key=key,
                        name=f"{self.relation_name}__outliers")

    def __repr__(self):
        return (
            f"<OutlierIndex {self.relation_name}.{self.attr} "
            f"t={self.threshold!r} size={len(self._records)}/{self.size_limit}>"
        )


# ----------------------------------------------------------------------
# Push-up (Def 5)
# ----------------------------------------------------------------------
def is_eligible(view, index: OutlierIndex, ratio: float = 0.1, seed: int = 0,
                sample_attrs=None) -> bool:
    """§6.2 eligibility: the indexed base relation must itself be sampled
    (the hash operator pushes down to it).

    ``sample_attrs`` should match the attributes the SVC sample actually
    hashes (defaults to the full view key).
    """
    from repro.algebra.expressions import Hash
    from repro.db.maintenance import RECOMPUTE, build_strategy

    attrs = tuple(sample_attrs) if sample_attrs else tuple(view.key)
    # Probe with the recomputation strategy: it references every base
    # relation regardless of which deltas are currently pending, so
    # eligibility is a property of the view structure alone.
    strategy = build_strategy(view, RECOMPUTE)
    pushed, _ = push_down_with_report(
        Hash(strategy.expr, attrs, ratio, seed), view.database.leaves()
    )
    return index.relation_name in hashed_leaves(pushed)


def outlier_view_keys(view, index: OutlierIndex) -> Set[tuple]:
    """View keys whose lineage contains an indexed record (Def 5 push-up).

    Computed as the distinct view keys of the (fresh) view definition
    with the indexed relation restricted to the indexed records.
    """
    db = view.database
    base = db.relation(index.relation_name)
    outlier_rel = index.as_relation(base.schema, key=base.key)
    leaf_name = f"__outliers_{index.relation_name}__"

    definition = view.definition
    core = definition.child if isinstance(definition, Aggregate) else definition
    mapping = {}
    fresh_cache = {}
    for leaf in core.leaves():
        name = leaf.name
        if name == index.relation_name:
            from repro.algebra.expressions import BaseRel

            mapping[name] = BaseRel(leaf_name)
        elif name in db.relation_names() and name not in mapping:
            fresh_cache.setdefault(name, fresh_expr(name))
            mapping[name] = fresh_cache[name]
    restricted = replace_leaves(core, mapping)
    keys_expr = distinct(restricted, view.key)

    leaves = dict(db.leaves())
    leaves[leaf_name] = outlier_rel
    result = evaluate(keys_expr, leaves)
    return set(result.rows)


# ----------------------------------------------------------------------
# Outlier-augmented sample view
# ----------------------------------------------------------------------

#: ``Relation.sample_cache()`` entry: ``(outlier key set, view key,
#: (regular, outlier))``.  Matched by the identity of the key set —
#: every ``clean()`` builds a new one — so a split never outlives the
#: pair it was computed for and nothing invalidates it.
_SPLIT = "__svc_outlier_split__"


def _try_split_columns(rel: Relation, key, outlier_keys):
    """(regular, outlier) parts of ``rel`` as index slices, or None.

    One pass over the key columns per (relation, outlier key set) pair,
    held on the relation: every query of a battery gets the same two
    sub-relations — lazy gathers over the parent's cached arrays — and
    with them their own column caches and sample alignment.
    """
    if not columnar_enabled():
        return None
    key = tuple(key)
    memo = rel.sample_cache()
    hit = memo.get(_SPLIT)
    if hit is not None and hit[0] is outlier_keys and hit[1] == key:
        return hit[2]
    rel.schema.indexes(key)
    cols = rel.columnar()
    is_outlier = np.fromiter(
        (k in outlier_keys for k in zip(*(cols.pycolumn(c) for c in key))),
        dtype=bool, count=len(rel),
    )
    parts = tuple(
        Relation.from_columnar(cols.take(np.flatnonzero(m)), key=rel.key)
        for m in (~is_outlier, is_outlier)
    )
    memo[_SPLIT] = (outlier_keys, key, parts)
    return parts


class OutlierAugmentedSample:
    """A :class:`SampleView` extended with a deterministic outlier set O.

    The outlier rows are materialized through the same maintenance
    strategy with the keyset filter pushed down (so their cost is
    proportional to the outlier lineage, not the view size), and marked
    with precedence over the hash sample so nothing is double counted
    (§6.2).
    """

    def __init__(self, view, ratio: float, index: OutlierIndex, seed: int = 0,
                 sample_attrs=None):
        self.view = view
        self.ratio = float(ratio)
        self.seed = int(seed)
        self.index = index
        self.sample = SampleView(view, ratio, seed=seed, sample_attrs=sample_attrs)
        self.outlier_keys: Set[tuple] = set()
        self.outlier_rows: Optional[Relation] = None
        self.last_report: Optional[PushdownReport] = None

    def clean(self, strategy: Optional[MaintenanceStrategy] = None) -> Relation:
        """Materialize Ŝ' and the up-to-date outlier rows O."""
        if strategy is None:
            strategy = choose_strategy(self.view)
        clean = self.sample.clean(strategy)
        self.outlier_keys = outlier_view_keys(self.view, self.index)
        report = PushdownReport()
        keyed = push_filter(
            strategy.expr,
            self.view.key,
            keyset_factory(self.outlier_keys),
            self.view.database.leaves(),
            report,
        )
        self.last_report = report
        rows = evaluate(keyed, self.view.database.leaves())
        rows.key = self.view.key
        self.outlier_rows = rows
        return clean

    # ------------------------------------------------------------------
    def _split(self, rel: Relation) -> Tuple[Relation, Relation]:
        """(regular, outlier) partition of a keyed relation by O-keys."""
        fast = _try_split_columns(rel, self.view.key, self.outlier_keys)
        if fast is not None:
            return fast
        idx = rel.schema.indexes(self.view.key)
        reg, out = [], []
        for row in rel.rows:
            if tuple(row[i] for i in idx) in self.outlier_keys:
                out.append(row)
            else:
                reg.append(row)
        return (
            Relation(rel.schema, reg, key=rel.key),
            Relation(rel.schema, out, key=rel.key),
        )

    def _require(self):
        if self.outlier_rows is None or self.sample.clean_sample is None:
            raise EstimationError("call clean() before estimating")

    # ------------------------------------------------------------------
    def aqp(self, query: AggQuery, confidence: float = 0.95) -> Estimate:
        """SVC+AQP merged with the deterministic outlier set (§6.3)."""
        self._require()
        reg_clean, _ = self._split(self.sample.clean_sample)
        out_rows = self.outlier_rows
        if query.func in ("sum", "count"):
            reg_est = svc_aqp(reg_clean, query, self.ratio, confidence)
            exact = query.evaluate(out_rows)
            return Estimate(
                reg_est.value + exact, reg_est.se, confidence,
                method="SVC+AQP+Out", sample_rows=reg_est.sample_rows,
            )
        if query.func == "avg":
            return self._merged_avg(query, confidence, corr=False)
        raise EstimationError(f"outlier AQP unsupported for {query.func!r}")

    def corr(
        self, query: AggQuery, confidence: float = 0.95,
        stale_value: Optional[float] = None,
    ) -> Estimate:
        """SVC+CORR merged with the deterministic outlier set (§6.3).

        c_out is computed exactly over O (sampling ratio 1, zero
        variance); c_reg over the restricted samples; both corrections
        add to the stale query result.
        """
        self._require()
        stale = self.view.require_data()
        if stale_value is None:
            stale_value = query.evaluate(stale)
        if query.func in ("sum", "count"):
            reg_clean, _ = self._split(self.sample.clean_sample)
            reg_dirty, _ = self._split(self.sample.dirty_sample)
            _, stale_out = self._split(stale)
            c_reg_clean = svc_aqp(reg_clean, query, self.ratio, confidence)
            c_reg_dirty = svc_aqp(reg_dirty, query, self.ratio, confidence)
            c_reg = c_reg_clean.value - c_reg_dirty.value
            c_out = query.evaluate(self.outlier_rows) - query.evaluate(stale_out)
            diffs = correspondence_subtract(
                reg_clean, reg_dirty, query, self.ratio, self.view.key
            )
            se = diff_se(diffs, self.ratio, query.func)
            return Estimate(
                stale_value + c_reg + c_out, se, confidence,
                method="SVC+CORR+Out", sample_rows=len(reg_clean),
            )
        if query.func == "avg":
            return self._merged_avg(query, confidence, corr=True,
                                    stale_value=stale_value)
        raise EstimationError(f"outlier CORR unsupported for {query.func!r}")

    def _merged_avg(
        self, query: AggQuery, confidence: float, corr: bool,
        stale_value: Optional[float] = None,
    ) -> Estimate:
        """§6.3 weighted merge  v = (N−l)/N·v_reg + l/N·v_out  for avg."""
        reg_clean, _ = self._split(self.sample.clean_sample)
        out_vals = query.matching_values(self.outlier_rows)
        n_out = len(out_vals)
        v_out = float(out_vals.mean()) if n_out else 0.0

        reg_vals = trans_values(reg_clean, query, self.ratio)
        count_q = AggQuery("count", predicate=query.predicate)
        n_reg_est = svc_aqp(reg_clean, count_q, self.ratio, confidence).value
        total_n = n_reg_est + n_out
        if total_n <= 0:
            raise EstimationError("no rows satisfy the query condition")

        if corr:
            reg_dirty, _ = self._split(self.sample.dirty_sample)
            stale = self.view.require_data()
            _, stale_out = self._split(stale)
            if stale_value is None:
                stale_value = query.evaluate(stale)
            clean_avg = float(reg_vals.mean()) if len(reg_vals) else 0.0
            dirty_vals = trans_values(reg_dirty, query, self.ratio)
            dirty_avg = float(dirty_vals.mean()) if len(dirty_vals) else 0.0
            c_reg = clean_avg - dirty_avg
            stale_out_vals = query.matching_values(stale_out)
            v_out_stale = float(stale_out_vals.mean()) if len(stale_out_vals) else 0.0
            c_out = v_out - v_out_stale
            weight_out = n_out / total_n
            correction = (1 - weight_out) * c_reg + weight_out * c_out
            return Estimate(
                stale_value + correction, mean_se(reg_vals) * (1 - weight_out),
                confidence, method="SVC+CORR+Out", sample_rows=len(reg_clean),
            )
        v_reg = float(reg_vals.mean()) if len(reg_vals) else 0.0
        weight_out = n_out / total_n
        value = (1 - weight_out) * v_reg + weight_out * v_out
        return Estimate(
            value, mean_se(reg_vals) * (1 - weight_out), confidence,
            method="SVC+AQP+Out", sample_rows=len(reg_clean),
        )
