"""Per-layer measurements of the traced run (batch workloads).

On the ``replay`` replica each facade call is preceded by a replay of its
public sub-calls on the same inputs, under child spans.  All of them are
pure (``choose_strategy``, ``cleaning_expression``, ``db.leaves()``,
``compiled_evaluate``, ``svc_corr`` …), so nothing has to be rolled back,
and the replays sit outside every end-to-end timer.  They are pure in
value only: relations cache their columnar form and hash samples lazily,
so whoever touches a relation first pays for them.  The replay runs
first and pays, exactly what the facade pays on the other two replicas,
which run the same rounds with no replay.  Hence children (replay
replica) are compared with the facade spans of the ``spans`` replica
(``trace.residual_share``), and span recording with none at all
(``spans`` against ``plain`` replica: ``trace.overhead_share``) — like
with like each time.  Comparison measurements that are not part of a
facade (the m = 5 % cleaner, the plain cleaner next to an outlier-indexed
one) are root spans.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

import harness
from batch import RATIO, BatchState, Unit, battery_slots
from harness import Replica, RunRecord, now

from repro import StaleViewCleaner
from repro.algebra import BaseRel, Hash, evaluate, set_columnar_enabled
from repro.algebra.compiler import (
    clear_plan_cache,
    compile_plan,
    compiled_evaluate,
)
from repro.algebra.evaluator import eta_mask
from repro.core import (
    cleaning_expression,
    estimate_groups,
    outlier_view_keys,
    push_filter,
    svc_aqp,
    svc_corr,
)
from repro.core.pushdown import keyset_factory
from repro.db import RECOMPUTE, choose_strategy, maintain
from repro.distributed import (
    get_shard_config,
    last_shard_report,
    set_shard_count,
    shutdown_shard_pool,
)

HALF_RATIO = 0.05


def attach_companions(state: BatchState) -> None:
    """Scratch cleaners of the replay replica: m = 5 % (cost-vs-m slope)
    and, beside an outlier-indexed cleaner, the same cleaner without
    index."""
    for unit in state.units:
        unit.half = StaleViewCleaner(unit.view, ratio=HALF_RATIO,
                                     seed=state.seed,
                                     sample_attrs=unit.sample_attrs)
        if unit.cleaner.outlier_index is not None:
            unit.plain = StaleViewCleaner(unit.view, ratio=RATIO,
                                          seed=state.seed)


def advance_companions(state: BatchState) -> None:
    for unit in state.units:
        for cleaner in (unit.half, unit.plain):
            if cleaner is not None:
                cleaner.advance()


def _hashed_leaf_nodes(expr) -> List[Hash]:
    """η nodes that the push-down left directly above a base relation."""
    found = []
    if isinstance(expr, Hash) and isinstance(expr.child, BaseRel):
        found.append(expr)
    for child in expr.children():
        found += _hashed_leaf_nodes(child)
    return found


def cold_compile(run: RunRecord, state: BatchState) -> None:
    """Warm-up round only: compile every IVM and cleaning plan from an
    empty plan cache (no steady-state metric should depend on this)."""
    leaves = state.db.leaves()
    clear_plan_cache()
    for unit in state.units:
        strategy = choose_strategy(unit.view)
        cleaning, _ = cleaning_expression(
            unit.view, RATIO, state.seed, strategy,
            sample_attrs=unit.sample_attrs)
        for expr in (strategy.expr, cleaning):
            start = now()
            plan = compile_plan(expr, leaves)
            run.sums["algebra.compiler.compile_cold_s"] += now() - start
            run.counts["algebra.compiler.stages"] += len(plan.stages)


def replay_refresh(run: RunRecord, state: BatchState, unit: Unit,
                   parent: int) -> None:
    """What ``refresh()`` is about to do, piece by piece."""
    view, db = unit.view, state.db
    strategy = run.child("db.maintenance.strategy_s", parent,
                         choose_strategy, view)
    expr, report = run.child(
        "core.pushdown.plan_s", parent, cleaning_expression, view, RATIO,
        state.seed, strategy, sample_attrs=unit.sample_attrs)
    leaves = run.child("db.leaves_s", parent, db.leaves)
    run.child("algebra.compiler.execute_s", parent, compiled_evaluate,
              expr, leaves)
    if unit.cleaner.outlier_index is not None:
        def pull_outliers():
            keys = outlier_view_keys(view, unit.cleaner.outlier_index)
            keyed = push_filter(strategy.expr, view.key, keyset_factory(keys),
                                leaves)
            return evaluate(keyed, leaves)

        run.child("core.outlier_index.pull_s", parent, pull_outliers)

    run.child("core.cleaning.refresh_m05_s", None, unit.half.refresh)
    if unit.plain is not None:
        run.child("core.outlier_index.plain_refresh_s", None,
                  unit.plain.refresh)
    if run.measuring:
        run.counts["core.pushdown.plans"] += 1
        run.counts["core.pushdown.fully_pushed"] += bool(report.fully_pushed)
    for node in _hashed_leaf_nodes(expr):
        leaf = leaves[node.child.name]
        if not len(leaf):
            continue
        columns = [leaf.columnar().pycolumn(attr) for attr in node.attrs]
        mask = run.child("algebra.evaluator.eta_s", None, eta_mask, columns,
                         node.ratio, node.seed)
        if run.measuring:
            run.counts["core.pushdown.leaf_rows"] += len(leaf)
            run.counts["core.pushdown.leaf_kept"] += int(np.sum(mask))


def replay_maintain(run: RunRecord, state: BatchState, unit: Unit,
                    parent: int) -> None:
    """What ``maintain()`` is about to do (its plan is already cached)."""
    view = unit.view
    strategy = run.child("db.maintenance.strategy_s", parent,
                         choose_strategy, view)
    leaves = run.child("db.leaves_s", parent, state.db.leaves)
    run.child("algebra.compiler.execute_s", parent, compiled_evaluate,
              strategy.expr, leaves)
    if run.measuring:
        run.counts["db.maintenance.recompute_views"] += (
            strategy.kind == RECOMPUTE)


def replay_estimators(run: RunRecord, state: BatchState) -> Dict[int, object]:
    """The estimators called directly on the cleaner's samples; returns
    the plain (index-less) companions' estimates for ``score_companions``.
    Must run before ``maintain()`` replaces the stale view."""
    plain: Dict[int, object] = {}
    for slot, (unit, query, group_by, _) in enumerate(
            battery_slots(state.units)):
        view = unit.view
        stale = view.require_data()
        dirty, clean = unit.cleaner.dirty_sample, unit.cleaner.clean_sample
        if group_by is None:
            run.child("core.estimators.corr_s", None, svc_corr, stale, dirty,
                      clean, query, RATIO, key=view.key)
            run.child("core.estimators.aqp_s", None, svc_aqp, clean, query,
                      RATIO)
            if unit.plain is not None:
                plain[slot] = unit.plain.query(query)
        else:
            run.child("core.estimators.groups_s", None, estimate_groups,
                      "corr", query, group_by, RATIO, clean,
                      dirty_sample=dirty, stale_view=stale)
    return plain


def score_companions(run: RunRecord, plain: Dict[int, object], estimates: list,
                     truths: list) -> None:
    """Error of the plain cleaner next to the indexed one, same queries."""
    if not run.measuring:
        return
    for slot, plain_est in plain.items():
        truth = truths[slot]
        if truth:
            run.sums["outlier.plain_err"] += abs(plain_est.value - truth) / abs(truth)
            run.sums["outlier.indexed_err"] += (
                abs(estimates[slot].value - truth) / abs(truth))


# ----------------------------------------------------------------------
# End-of-run probes (replay replica, after its read loop: deltas pending)
# ----------------------------------------------------------------------
def probe_engines(run: RunRecord, state: BatchState) -> None:
    """One round of every IVM and cleaning expression on the three
    evaluators — compiled, interpreted columnar, row at a time — over the
    same, already converted inputs; the row result doubles as an oracle."""
    leaves = state.db.leaves()

    def timed(key: str, fn, expr):
        start = now()
        out = fn(expr, leaves)
        run.sums[key] += now() - start
        return out

    for unit in state.units:
        strategy = choose_strategy(unit.view)
        cleaning, _ = cleaning_expression(
            unit.view, RATIO, state.seed, strategy,
            sample_attrs=unit.sample_attrs)
        for expr in (strategy.expr, cleaning):
            compiled_evaluate(expr, leaves)  # lazy columnar views, plan cache
            timed("algebra.compiler.execute_warm_s", compiled_evaluate, expr)
            columnar = timed("algebra.evaluator.interp_s", evaluate, expr)
            old = set_columnar_enabled(False)
            try:
                by_row = timed("algebra.evaluator.row_s", evaluate, expr)
            finally:
                set_columnar_enabled(old)
            run.check(
                harness.rows_match(columnar, by_row, unit.view.key),
                f"{unit.view.name}: columnar and row evaluators disagree",
            )


def probe_sharded(run: RunRecord, state: BatchState) -> dict:
    """Report-only: does any 2-shard configuration beat 1-shard here?

    Maintains the first view three times under each configuration (the
    previous data is put back after every round; the third round is the
    steady state: pool and exports warm), checks the result against the
    single-shard one, restores the toggles and ends the worker pool.
    """
    view = state.units[0].view
    before = view.require_data()
    config = get_shard_config()
    out = {}

    def third_round(reference=None):
        for _ in range(3):
            start = now()
            maintain(view)
            seconds = now() - start
            result = view.require_data()
            if reference is not None:
                run.check(
                    harness.rows_match(result, reference, view.key),
                    f"{view.name}: 2-shard result differs from 1-shard")
            view.set_data(before)
        return seconds, result

    try:
        out["single_s"], reference = third_round()
        for label, backend in (("p2", "process"), ("t2", "thread")):
            set_shard_count(2, backend=backend, transport="shm")
            out[f"{label}_s"], _ = third_round(reference)
            if backend == "process":
                report = last_shard_report()
                out["export_bytes"] = report.input_bytes if report else 0
                # Waits for the workers; switching backends would not.
                shutdown_shard_pool()
    finally:
        set_shard_count(config.count, backend=config.backend,
                        transport=config.transport)
        shutdown_shard_pool()
        view.set_data(before)
    return out


def traced_metrics(run: RunRecord, replicas: Sequence[Replica], name: str,
                   smoke: bool, metrics: dict, nulls: dict) -> None:
    """Adds the per-layer numbers only a traced run has (and the reasons
    for those it cannot have); runs the end probes; writes the trace."""
    by_role = {rep.role: rep for rep in replicas}
    replay, spans, plain = by_role["replay"], by_role["spans"], by_role["plain"]
    state: BatchState = replay.state
    svc_rounds = len(replay.times["refresh"])
    ivm_rounds = len(replay.times["maintain"])

    def facades(rep: Replica) -> float:
        return sum(rep.times["refresh"]) + sum(rep.times["maintain"])

    def per_call_ms(key: str) -> float:
        return run.mean(key) * 1e3

    metrics.update({
        "db.maintenance.strategy_s":
            run.sums["db.maintenance.strategy_s"] / (svc_rounds + ivm_rounds),
        "db.maintenance.recompute_views":
            run.counts["db.maintenance.recompute_views"] / ivm_rounds,
        "core.pushdown.plan_s": run.sums["core.pushdown.plan_s"] / svc_rounds,
        "core.pushdown.pushed_share":
            run.counts["core.pushdown.fully_pushed"]
            / run.counts["core.pushdown.plans"],
        "core.pushdown.leaf_keep_share":
            run.counts["core.pushdown.leaf_kept"]
            / max(run.counts["core.pushdown.leaf_rows"], 1),
        "core.cleaning.refresh_m05_s":
            run.sums["core.cleaning.refresh_m05_s"] / svc_rounds,
        "core.estimators.corr_ms": per_call_ms("core.estimators.corr_s"),
        "core.estimators.aqp_ms": per_call_ms("core.estimators.aqp_s"),
        "algebra.compiler.compile_cold_s":
            run.sums["algebra.compiler.compile_cold_s"],
        "algebra.compiler.stages": run.counts["algebra.compiler.stages"],
        "algebra.compiler.execute_s":
            run.sums["algebra.compiler.execute_s"] / (svc_rounds + ivm_rounds),
        "algebra.evaluator.eta_s":
            run.sums["algebra.evaluator.eta_s"] / svc_rounds,
        "trace.overhead_share": facades(spans) / facades(plain) - 1.0,
        "trace.residual_share":
            1.0 - run.sums["trace.explained_s"] / facades(spans),
    })
    if run.counts["core.estimators.groups_s"]:
        metrics["core.estimators.groups_ms"] = per_call_ms(
            "core.estimators.groups_s")
    else:
        nulls["core.estimators.groups_ms"] = "the battery has no group-by query"
    if state.index is not None:
        metrics.update({
            "core.outlier_index.build_s": state.index_build_s,
            "core.outlier_index.rows": len(state.index),
            # Both on the replay replica, after the replays: equally warm.
            "core.outlier_index.refresh_extra_s":
                harness.mean(replay.times["indexed_refresh"])
                - run.sums["core.outlier_index.plain_refresh_s"] / svc_rounds,
            "core.outlier_index.err_gain":
                run.sums["outlier.plain_err"]
                / max(run.sums["outlier.indexed_err"], 1e-300),
        })
    else:
        for key in ("build_s", "rows", "refresh_extra_s", "err_gain"):
            nulls[f"core.outlier_index.{key}"] = (
                "no cleaner of this workload has an outlier index")
    probe_engines(run, state)
    for key in ("algebra.compiler.execute_warm_s", "algebra.evaluator.interp_s",
                "algebra.evaluator.row_s"):
        metrics[key] = run.sums[key]
    sharded_keys = ("distributed.shard.p2_maintain_s",
                    "distributed.shard.t2_maintain_s",
                    "distributed.shard.vs_single",
                    "distributed.transport.export_bytes")
    if name in ("tpcd_join", "complex_outlier") and not smoke:
        sharded = probe_sharded(run, state)
        metrics.update(zip(sharded_keys, (
            sharded["p2_s"], sharded["t2_s"],
            min(sharded["p2_s"], sharded["t2_s"]) / sharded["single_s"],
            sharded["export_bytes"])))
    else:
        for key in sharded_keys:
            nulls[key] = ("the sharded probe runs at full size on tpcd_join "
                          "and complex_outlier only")
    for key in harness.PER_LAYER:
        if key.startswith("serving."):
            nulls[key] = "a batch workload starts no ViewServer"
    run.write_trace(name)
