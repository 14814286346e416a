"""The SVC facade — the paper's workflow (§3.2) as one object.

:class:`StaleViewCleaner` wires together the sample lifecycle and the
estimators so applications can write::

    svc = StaleViewCleaner(view, ratio=0.1)
    ...updates arrive: db.insert(...), db.update(...)...
    svc.refresh()                      # Problem 1: clean the sample
    est = svc.query(AggQuery("sum", "revenue", col("region") == 3))
    print(est.value, est.interval)     # Problem 2: fresh bounded answer

Between full maintenance periods the cleaner answers queries that reflect
the most recent data for a fraction of the maintenance cost; when the
view is eventually maintained, call :meth:`advance` to re-anchor.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.algebra.predicates import Predicate
from repro.algebra.relation import Relation
from repro.core.bootstrap import bootstrap_aqp, bootstrap_corr
from repro.core.cleaning import SampleView
from repro.core.confidence import Estimate
from repro.core.estimators import (
    AggQuery,
    estimate_groups,
    recommend_estimator,
    svc_aqp,
    svc_corr,
)
from repro.core.extremes import svc_max, svc_min
from repro.core.outlier_index import OutlierAugmentedSample, OutlierIndex
from repro.core.select_queries import SelectResult, svc_select
from repro.db.maintenance import MaintenanceStrategy
from repro.errors import EstimationError


class StaleViewCleaner:
    """End-to-end SVC for one materialized view.

    Parameters
    ----------
    view:
        A materialized :class:`~repro.db.view.MaterializedView`.
    ratio:
        Sampling ratio m (accuracy/cost knob, paper §1).
    seed:
        Hash seed (distinct seeds = independent samples).
    outlier_index:
        Optional :class:`OutlierIndex` for skew-robust estimation (§6).
    """

    def __init__(
        self,
        view,
        ratio: float = 0.1,
        seed: int = 0,
        outlier_index: Optional[OutlierIndex] = None,
        sample_attrs: Optional[Sequence[str]] = None,
    ):
        self.view = view
        self.ratio = float(ratio)
        self.seed = int(seed)
        if outlier_index is not None:
            self._sample = OutlierAugmentedSample(
                view, ratio, outlier_index, seed, sample_attrs=sample_attrs
            )
        else:
            self._sample = SampleView(
                view, ratio, seed=seed, sample_attrs=sample_attrs
            )
        self.outlier_index = outlier_index

    # ------------------------------------------------------------------
    @property
    def sample_view(self) -> SampleView:
        """The underlying sample (dirty + clean relations)."""
        if isinstance(self._sample, OutlierAugmentedSample):
            return self._sample.sample
        return self._sample

    @property
    def dirty_sample(self) -> Relation:
        """Ŝ — the sample of the stale view."""
        return self.sample_view.dirty_sample

    @property
    def clean_sample(self) -> Relation:
        """Ŝ' — the cleaned (up-to-date) sample; requires refresh()."""
        return self.sample_view.require_clean()

    def refresh(self, strategy: Optional[MaintenanceStrategy] = None) -> Relation:
        """Clean the sample against the current deltas (Problem 1)."""
        return self._sample.clean(strategy)

    def advance(self) -> None:
        """Re-anchor after the view itself was fully maintained."""
        if isinstance(self._sample, OutlierAugmentedSample):
            self._sample.sample.advance()
            self._sample.outlier_rows = None
        else:
            self._sample.advance()

    # ------------------------------------------------------------------
    def query(
        self,
        query: AggQuery,
        method: str = "corr",
        confidence: float = 0.95,
        stale_value: Optional[float] = None,
    ) -> Estimate:
        """Estimate an aggregate query against the up-to-date view.

        ``method`` is ``"corr"`` (default), ``"aqp"``, or ``"auto"``
        (break-even selection per §5.2.2).  median/percentile queries are
        bounded by bootstrap automatically; use :meth:`query_extreme` for
        min/max.
        """
        if method not in ("corr", "aqp", "auto"):
            raise EstimationError(f"unknown method {method!r}")
        clean = self.clean_sample
        dirty = self.dirty_sample
        stale = self.view.require_data()

        if query.func in ("median",) or query.func.startswith("percentile"):
            if method == "aqp":
                return bootstrap_aqp(clean, query, self.ratio, confidence)
            return bootstrap_corr(
                stale, dirty, clean, query, self.ratio, confidence,
                stale_value=stale_value,
            )
        if query.func in ("min", "max"):
            raise EstimationError("use query_extreme() for min/max queries")

        if method == "auto":
            method = recommend_estimator(
                dirty, clean, query, self.ratio, key=self.view.key
            )
        if isinstance(self._sample, OutlierAugmentedSample):
            if method == "aqp":
                return self._sample.aqp(query, confidence)
            return self._sample.corr(query, confidence, stale_value=stale_value)
        if method == "aqp":
            return svc_aqp(clean, query, self.ratio, confidence)
        return svc_corr(
            stale, dirty, clean, query, self.ratio,
            key=self.view.key, confidence=confidence,
            stale_value=stale_value,
        )

    def query_groups(
        self,
        query: AggQuery,
        group_by: Sequence[str],
        method: str = "corr",
        confidence: float = 0.95,
    ) -> Dict[tuple, Estimate]:
        """Per-group estimates for a group-by aggregate.

        ``method`` is ``"corr"`` (default), ``"aqp"``, or ``"auto"``
        (break-even selection per §5.2.2, group by group).
        """
        if method not in ("corr", "aqp", "auto"):
            raise EstimationError(f"unknown method {method!r}")
        return estimate_groups(
            method,
            query,
            group_by,
            self.ratio,
            self.clean_sample,
            dirty_sample=self.dirty_sample,
            stale_view=self.view.require_data(),
            confidence=confidence,
        )

    def query_extreme(self, query: AggQuery):
        """min/max with Cantelli exceedance bounds (§12.1.1)."""
        if query.func not in ("min", "max"):
            raise EstimationError(
                f"query_extreme() answers min/max, not {query.func!r}"
            )
        fn = svc_max if query.func == "max" else svc_min
        return fn(
            self.view.require_data(), self.dirty_sample, self.clean_sample,
            query, key=self.view.key,
        )

    def select(self, predicate: Predicate, confidence: float = 0.95) -> SelectResult:
        """Corrected SELECT * WHERE predicate (§12.1.2)."""
        return svc_select(
            self.view.require_data(), self.dirty_sample, self.clean_sample,
            predicate, self.ratio, key=self.view.key, confidence=confidence,
        )

    def stale_answer(self, query: AggQuery) -> float:
        """The no-maintenance baseline q(S)."""
        return query.evaluate(self.view.require_data())

    def __repr__(self):
        return (
            f"<StaleViewCleaner view={self.view.name} m={self.ratio:g} "
            f"outliers={'on' if self.outlier_index else 'off'}>"
        )
