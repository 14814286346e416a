"""Join View experiments — paper §7.2 (Figures 4, 5, 6).

The materialized view is the FK join of lineitem and orders on a
TPCD-Skew database (z = 2).  Timings compare full incremental view
maintenance (change-table IVM) against SVC's sampled cleaning; accuracy
compares the stale answer, SVC+AQP and SVC+CORR on the 12 TPCD-style
group-by aggregates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algebra.evaluator import evaluate
from repro.core.cleaning import cleaning_expression
from repro.core.estimators import AggQuery
from repro.core.svc import StaleViewCleaner
from repro.db.catalog import Catalog
from repro.db.maintenance import choose_strategy, maintain
from repro.experiments.harness import ExperimentResult, median_errors, timed
from repro.workloads.join_view import (
    SAMPLE_ATTRS,
    create_join_view,
    query_attrs,
    tpcd_queries,
)
from repro.workloads.queries import QueryGenerator, relative_error
from repro.workloads.tpcd import TPCDConfig, TPCDGenerator


def _build(scale: float, z: float, seed: int):
    gen = TPCDGenerator(TPCDConfig(scale=scale, z=z, seed=seed))
    db = gen.build()
    catalog = Catalog(db)
    view = create_join_view(db, catalog)
    return db, gen, view


#: Cold timings are single shots by nature; each is the best of this
#: many consecutive maintenance periods.
COLD_PERIODS = 2


def _close_period(db, view, cleaner: StaleViewCleaner) -> None:
    """Maintain the view, fold the deltas in, re-anchor the sample."""
    maintain(view)
    db.apply_deltas()
    cleaner.advance()


def _steady_state(scale: float, z: float, seed: int, ratio: float,
                  update_fraction: float):
    """(db, gen, view, cleaner) one full maintenance period after set-up.

    What is timed next runs on base relations a real ``apply_deltas()``
    produced and on a sample ``advance()`` re-anchored — the state every
    period of a running system starts from — not on the relations the
    generator built.
    """
    db, gen, view = _build(scale, z, seed)
    cleaner = StaleViewCleaner(view, ratio=ratio, seed=seed,
                               sample_attrs=SAMPLE_ATTRS)
    gen.generate_updates(db, update_fraction)
    cleaner.refresh()
    _close_period(db, view, cleaner)
    return db, gen, view, cleaner


def _clean_times(db, gen, view, cleaner: StaleViewCleaner,
                 update_fraction: float):
    """``(cold, warm)`` seconds of cleaning one period's updates; leaves
    the last period's deltas pending.

    *Cold* is the facade as an application calls it: a period's first
    ``refresh()``, on deltas nothing has evaluated yet, after a real
    ``apply_deltas()``.  *Warm* is the best of three re-evaluations of
    the same cleaning expression right after — every lazy column, draw
    and sample of the period already built; the number this module used
    to report alone.
    """
    cold = float("inf")
    for period in range(COLD_PERIODS):
        if period:
            _close_period(db, view, cleaner)
        gen.generate_updates(db, update_fraction)
        cold = min(cold, timed(cleaner.refresh))
    expr, _ = cleaning_expression(
        view, cleaner.ratio, cleaner.seed, choose_strategy(view),
        sample_attrs=SAMPLE_ATTRS,
    )
    warm = timed(lambda: evaluate(expr, view.database.leaves()), repeat=3)
    return cold, warm


def _ivm_time(view) -> float:
    strategy = choose_strategy(view)
    return timed(lambda: evaluate(strategy.expr, view.database.leaves()), repeat=3)


def fig4a_maintenance_vs_ratio(
    scale: float = 0.5,
    update_fraction: float = 0.1,
    ratios: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    seed: int = 42,
) -> ExperimentResult:
    """Fig 4(a): SVC maintenance time as a function of sampling ratio.

    ``svc_seconds`` is the cold ``refresh()`` of a period that follows a
    real ``apply_deltas()`` (one fresh database per ratio, so no ratio
    inherits another's lazy state); ``svc_warm_seconds`` the pre-warmed
    re-evaluation; ``ivm_seconds`` the (warm, best-of-three) change-table
    strategy on the first database's pending period.
    """
    result = ExperimentResult(
        "fig4a", "Join View: maintenance time vs sampling ratio",
        notes="paper: SVC grows ~linearly in m, well below IVM at m=0.1; "
              "svc_seconds = cold refresh(), svc_warm_seconds = re-evaluation",
    )
    ivm = None
    for m in ratios:
        db, gen, view, cleaner = _steady_state(
            scale, 2.0, seed, m, update_fraction
        )
        cold, warm = _clean_times(db, gen, view, cleaner, update_fraction)
        if ivm is None:
            ivm = _ivm_time(view)
        result.add(
            sampling_ratio=m,
            svc_seconds=cold,
            svc_warm_seconds=warm,
            ivm_seconds=ivm,
        )
    return result


def fig4b_speedup_vs_update_size(
    scale: float = 0.5,
    ratio: float = 0.1,
    update_fractions: Sequence[float] = (
        0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175, 0.20,
    ),
    seed: int = 42,
) -> ExperimentResult:
    """Fig 4(b): speedup of SVC-10% over IVM as update size grows
    (``speedup`` is IVM over the *cold* ``refresh()``)."""
    result = ExperimentResult(
        "fig4b", "Join View: SVC 10% speedup vs update size",
        notes="paper: speedup grows with update size (both join inputs grow)",
    )
    for frac in update_fractions:
        db, gen, view, cleaner = _steady_state(scale, 2.0, seed, ratio, frac)
        svc_t, warm_t = _clean_times(db, gen, view, cleaner, frac)
        ivm_t = _ivm_time(view)
        result.add(
            update_fraction=frac,
            svc_seconds=svc_t,
            svc_warm_seconds=warm_t,
            ivm_seconds=ivm_t,
            speedup=ivm_t / svc_t if svc_t > 0 else float("inf"),
        )
    return result


def fig5_query_accuracy(
    scale: float = 0.5,
    ratio: float = 0.1,
    update_fraction: float = 0.1,
    seed: int = 42,
) -> ExperimentResult:
    """Fig 5: median relative error of the 12 TPCD queries on the view."""
    db, gen, view = _build(scale, 2.0, seed)
    gen.generate_updates(db, update_fraction)
    svc = StaleViewCleaner(view, ratio=ratio, seed=seed,
                           sample_attrs=SAMPLE_ATTRS)
    svc.refresh()
    fresh = view.fresh_data()
    result = ExperimentResult(
        "fig5", "Join View: per-query accuracy (median relative error %)",
        notes="paper: SVC+CORR ≈11.7x better than stale, ≈3.1x better "
              "than SVC+AQP on average",
    )
    for name, query, group_by in tpcd_queries():
        errs = median_errors(svc, query, group_by, fresh)
        result.add(
            query=name,
            stale_pct=100 * errs["stale"],
            svc_aqp_pct=100 * errs["aqp"],
            svc_corr_pct=100 * errs["corr"],
        )
    return result


def fig6a_total_time(
    scale: float = 0.5,
    ratio: float = 0.1,
    update_fraction: float = 0.1,
    seed: int = 42,
) -> ExperimentResult:
    """Fig 6(a): maintenance + query time for IVM / SVC+CORR / SVC+AQP."""
    db, gen, view, svc = _steady_state(
        scale, 2.0, seed, ratio, update_fraction
    )
    query = AggQuery("sum", "revenue")

    svc_maint, _ = _clean_times(db, gen, view, svc, update_fraction)
    ivm_maint = _ivm_time(view)
    stale_value = query.evaluate(view.require_data())
    ivm_query = timed(lambda: query.evaluate(view.require_data()))
    corr_query = timed(lambda: svc.query(query, method="corr"))
    aqp_query = timed(lambda: svc.query(query, method="aqp"))

    result = ExperimentResult(
        "fig6a", "Join View: total time (maintenance + query)",
        notes="paper: AQP queries only the sample; CORR adds a small "
              "correction cost on top of the full-view query; "
              f"stale q(S)={stale_value:.4g}",
    )
    result.add(method="IVM", maintenance_s=ivm_maint, query_s=ivm_query,
               total_s=ivm_maint + ivm_query)
    result.add(method="SVC+CORR-10%", maintenance_s=svc_maint,
               query_s=corr_query, total_s=svc_maint + corr_query)
    result.add(method="SVC+AQP-10%", maintenance_s=svc_maint,
               query_s=aqp_query, total_s=svc_maint + aqp_query)
    return result


def fig6b_corr_vs_aqp_break_even(
    scale: float = 0.35,
    ratio: float = 0.1,
    update_fractions: Sequence[float] = (
        0.03, 0.08, 0.13, 0.18, 0.23, 0.28, 0.33, 0.38, 0.43,
    ),
    n_queries: int = 24,
    seed: int = 42,
) -> ExperimentResult:
    """Fig 6(b): CORR beats AQP until a staleness break-even point."""
    result = ExperimentResult(
        "fig6b", "Join View: SVC+CORR vs SVC+AQP median error vs update size",
        notes="paper: CORR more accurate until updates ≈ 32.5% of base",
    )
    attrs = query_attrs()
    for frac in update_fractions:
        db, gen, view = _build(scale, 2.0, seed)
        gen.generate_updates(db, frac)
        svc = StaleViewCleaner(view, ratio=ratio, seed=seed,
                               sample_attrs=SAMPLE_ATTRS)
        svc.refresh()
        fresh = view.fresh_data()
        qgen = QueryGenerator(view.require_data(), attrs["predicate"],
                              attrs["aggregate"], funcs=("sum", "count"),
                              seed=seed)
        corr_errs, aqp_errs = [], []
        for q in qgen.batch(n_queries):
            truth = q.evaluate(fresh)
            corr_errs.append(
                relative_error(svc.query(q, method="corr").value, truth)
            )
            aqp_errs.append(
                relative_error(svc.query(q, method="aqp").value, truth)
            )
        result.add(
            update_fraction=frac,
            svc_corr_pct=100 * float(np.median(corr_errs)),
            svc_aqp_pct=100 * float(np.median(aqp_errs)),
        )
    return result
