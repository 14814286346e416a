"""The three batch workloads: deltas arrive → fresh answer, SVC vs IVM.

One round is one maintenance period of the paper (§3.2) and times one of
the two ways to a fresh answer, on inputs nothing has touched yet:

    svc round: ingest → refresh() every cleaner → battery of estimates
               with CIs;  then (untimed) maintain(), exact answers,
               accuracy, clean sample ≡ η(maintained view)
    ivm round: ingest → maintain() every view → same battery, exact
    both     : (untimed) maintained view ≡ recompute; apply_deltas() and
               advance() close the period

Whoever evaluates first in a period pays for the lazy columnar forms and
hash samples of the new base and delta relations; timing the second path
in the same period would hand it those for free.  Rounds therefore come
in the fixed order svc, ivm, ivm, svc, … so that both kinds see the same
mean database size.

Work is fixed, not time: ``--seconds`` picks a frozen round and read
count per workload, and the process runs it on ``REPLICAS`` identical
copies of the state, one after the other.  A timing is a total over all
its rounds ÷ rounds, each round at the fastest of its replicas
(``harness.fastest``).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import harness
from harness import Replica, RunRecord, now, quiesce

from repro import Catalog, OutlierIndex, StaleViewCleaner
from repro.algebra import Between, col, evaluate
from repro.algebra.compiler import compile_count
from repro.core import AggQuery, hash_sample, partition
from repro.db import maintain
from repro.workloads import (
    DENORM,
    OUTLIER_SENSITIVE_VIEWS,
    SAMPLE_ATTRS,
    ConvivaGenerator,
    TPCDConfig,
    TPCDGenerator,
    build_denormalized,
    build_tpcd,
    complex_query_attrs,
    conviva_query_attrs,
    create_complex_views,
    create_conviva_views,
    create_join_view,
    generate_denorm_updates,
    query_attrs,
    tpcd_queries,
)
from repro.workloads.conviva import LOG

#: The paper's headline sampling ratio (Fig 4–9 use m = 10 %).
RATIO = 0.1
#: Reference sizes per replica, selected by ``--seconds`` = the manifest's
#: ``run_seconds``; tuned once on the 2-core reference box so one process
#: (``REPLICAS`` replicas) takes ≈ 25 s.  ``rounds`` are multiples of four (the
#: svc, ivm, ivm, svc order); ``passes`` are read passes over the battery.
SIZES = {
    "tpcd_join": {
        "full": dict(scale=0.4, batch=0.05, random_queries=12, rounds=8,
                     passes=9),
        "smoke": dict(scale=0.04, batch=0.05, random_queries=4, rounds=4,
                      passes=1),
    },
    "conviva_views": {
        "full": dict(records=15_000, batch_rows=750, queries_per_view=4,
                     rounds=8, passes=7),
        "smoke": dict(records=800, batch_rows=40, queries_per_view=2,
                      rounds=4, passes=1),
    },
    "complex_outlier": {
        "full": dict(scale=1.0, batch=0.05, delete_share=0.01,
                     queries_per_view=4, rounds=8, passes=9),
        "smoke": dict(scale=0.04, batch=0.05, delete_share=0.01,
                      queries_per_view=2, rounds=4, passes=1),
    },
}
ROUND_KINDS = ("svc", "ivm", "ivm", "svc")

#: Share of the view's rows a random battery query selects, by slot.
ROW_SHARES = (0.4, 0.2, 0.1)
#: Accuracy is pooled over the point estimates of queries that match at
#: least this many rows of the view's sample; the others (3-row samples
#: of 24-row views, per-group estimates) say nothing about the estimator
#: and are only timed and checked for validity.
MIN_SUPPORT = 10
#: Per workload: the largest SVC ÷ stale median error and the smallest
#: realised coverage of the 95 % interval a run may show.  tpcd_join
#: carries the paper's claim with a wide margin.  The others are set
#: from 40 seeds at HEAD (README, "Accuracy"): 1.5 × the worst ratio and
#: half the worst coverage seen, so that healthy code passes at any seed
#: and estimates gone wrong or intervals collapsed do not.  Nominal
#: coverage is not reached anywhere — a known defect, recorded there.
ACCURACY_GATE = {
    "tpcd_join": (0.5, 0.55),
    "conviva_views": (0.75, 0.25),
    "complex_outlier": (1.5, 0.15),
    "serve_mixed": (1.1, 0.2),
}


@dataclass
class Unit:
    """One materialized view with its cleaner and its query battery."""

    view: object
    cleaner: StaleViewCleaner
    sample_attrs: Optional[Tuple[str, ...]] = None
    points: List[object] = field(default_factory=list)
    #: Per point query: enough sample support to pool its accuracy.
    pooled: List[bool] = field(default_factory=list)
    groups: List[Tuple[object, Tuple[str, ...]]] = field(default_factory=list)
    #: Replay-replica companions (see layers.attach_companions).
    half: Optional[StaleViewCleaner] = None
    plain: Optional[StaleViewCleaner] = None


@dataclass
class BatchState:
    """Everything set-up builds for one batch workload."""

    db: object
    units: List[Unit]
    seed: int
    next_ops: Callable[[int], List[tuple]]
    index: Optional[OutlierIndex] = None
    index_build_s: float = 0.0


class _Recorder:
    """Stands in for the Database while a workload generator drafts a
    batch: reads pass through, writes are kept as operations so that
    generating the rows stays outside the timed ingest."""

    def __init__(self, db):
        self._db = db
        self.ops: List[tuple] = []

    def relation(self, name):
        return self._db.relation(name)

    def insert(self, name, rows):
        self.ops.append(("insert", name, list(rows)))

    def update(self, name, rows):
        self.ops.append(("update", name, list(rows)))


def battery_for(view_data, pred_attrs, agg_attrs, n: int, seed: int,
                funcs=("sum", "count")) -> List[AggQuery]:
    """``n`` random range queries in fixed strata.

    Slot *i* always has the same aggregate function, predicate attribute,
    aggregated attribute and share of the view's rows; the seed only
    places the range.  What an estimate costs depends on those four, so
    the mix — and with it every read metric — stays comparable from seed
    to seed.  (``QueryGenerator`` draws the share too, between 5 and
    60 %, and orders numeric domains by ``repr``, which yields empty
    ranges.)
    """
    rng = np.random.default_rng(seed * 101 + 7)
    out = []
    for slot in range(n):
        func = funcs[slot % len(funcs)]
        pred_attr = pred_attrs[slot % len(pred_attrs)]
        agg_attr = None if func == "count" else agg_attrs[slot % len(agg_attrs)]
        values = sorted(view_data.column(pred_attr))
        width = max(1, int(len(values) * ROW_SHARES[slot % len(ROW_SHARES)]))
        first = int(rng.integers(0, len(values) - width + 1))
        out.append(AggQuery(
            func, agg_attr,
            Between(col(pred_attr), values[first], values[first + width - 1]),
            name=f"{func}({agg_attr or '*'})|{pred_attr}"))
    return out


def supported(queries: list, sample) -> List[bool]:
    return [len(q.matching_values(sample)) >= MIN_SUPPORT for q in queries]


# ----------------------------------------------------------------------
# Set-up, one builder per workload
# ----------------------------------------------------------------------
def build_tpcd_join(seed: int, size: dict) -> BatchState:
    db, gen = build_tpcd(scale=size["scale"], z=2.0, seed=seed)
    view = create_join_view(db, Catalog(db))
    cleaner = StaleViewCleaner(view, ratio=RATIO, seed=seed,
                               sample_attrs=SAMPLE_ATTRS)

    def next_ops(_round: int) -> List[tuple]:
        rec = _Recorder(db)
        gen.generate_updates(rec, size["batch"])
        return rec.ops

    return BatchState(db, [Unit(view, cleaner, SAMPLE_ATTRS)], seed, next_ops)


def build_conviva_views(seed: int, size: dict) -> BatchState:
    gen = ConvivaGenerator(seed=seed)
    db = gen.build(size["records"])
    views = create_conviva_views(db, catalog=Catalog(db))
    units = [Unit(view, StaleViewCleaner(view, ratio=RATIO, seed=seed))
             for view in views.values()]

    def next_ops(_round: int) -> List[tuple]:
        rows = gen.records(size["batch_rows"], start_date=100, date_span=30)
        return [("insert", LOG, rows)]

    return BatchState(db, units, seed, next_ops)


#: V3/V5/V10/V15 take the outlier index; V21/V22 block push-down.
COMPLEX_VIEWS = ("V3", "V5", "V10", "V15", "V21", "V22")
COMPLEX_GROUPS = {"V5": ("n_name",), "V15": ("l_suppkey",)}


def build_complex_outlier(seed: int, size: dict) -> BatchState:
    gen = TPCDGenerator(TPCDConfig(scale=size["scale"], z=2.0, seed=seed))
    db = build_denormalized(gen.build())
    views = create_complex_views(db, names=list(COMPLEX_VIEWS),
                                 catalog=Catalog(db))
    start = now()
    index = OutlierIndex.from_top_k(db.relation(DENORM), "l_extendedprice", 100)
    index_build_s = now() - start
    units = [
        Unit(view, StaleViewCleaner(
            view, ratio=RATIO, seed=seed,
            outlier_index=index if name in OUTLIER_SENSITIVE_VIEWS else None))
        for name, view in views.items()
    ]

    def next_ops(round_id: int) -> List[tuple]:
        rec = _Recorder(db)
        generate_denorm_updates(rec, size["batch"], seed=seed * 1009 + round_id)
        rel = db.relation(DENORM)
        rng = np.random.default_rng(seed * 1009 + round_id + 500_000)
        n_del = max(1, int(len(rel) * size["delete_share"]))
        key_idx = rel.key_indexes()
        keys = [tuple(rel.rows[i][k] for k in key_idx)
                for i in rng.choice(len(rel), size=n_del, replace=False)]
        return rec.ops + [("delete_by_key", DENORM, keys)]

    return BatchState(db, units, seed, next_ops, index, index_build_s)


def draw_battery(name: str, state: BatchState, size: dict) -> None:
    """The query battery of every unit (untimed: not part of set-up)."""
    for unit in state.units:
        data = unit.view.require_data()
        if name == "tpcd_join":
            attrs = query_attrs()
            unit.points = [query for _, query, _ in tpcd_queries()]
            unit.points += battery_for(
                data, attrs["predicate"], attrs["aggregate"],
                size["random_queries"], state.seed,
                funcs=("sum", "count", "avg"))
            continue
        attrs_of = (conviva_query_attrs if name == "conviva_views"
                    else complex_query_attrs)
        unit.points = battery_for(data, *attrs_of(unit.view.name),
                                  size["queries_per_view"], state.seed)
        if name == "complex_outlier" and unit.view.name in COMPLEX_GROUPS:
            unit.groups = [(unit.points[0], COMPLEX_GROUPS[unit.view.name])]
    for unit in state.units:
        unit.pooled = supported(unit.points, unit.cleaner.dirty_sample)


BUILDERS: Dict[str, Callable[[int, dict], BatchState]] = {
    "tpcd_join": build_tpcd_join,
    "conviva_views": build_conviva_views,
    "complex_outlier": build_complex_outlier,
}


# ----------------------------------------------------------------------
# Accuracy
# ----------------------------------------------------------------------
@dataclass
class Accuracy:
    """Pooled per-estimate accuracy over the measured rounds.

    Only estimates whose exact answer moved this period are pooled: on
    an untouched query SVC+CORR returns the stale (= exact) answer with
    a zero-width interval, which would pin every median at 0.
    """

    err: List[float] = field(default_factory=list)
    stale_err: List[float] = field(default_factory=list)
    ci_width: List[float] = field(default_factory=list)
    covered: List[bool] = field(default_factory=list)
    untouched: int = 0

    def add(self, est, truth: float, stale_value: float) -> None:
        if truth == stale_value or truth == 0:
            self.untouched += 1
            return
        self.err.append(abs(est.value - truth) / abs(truth))
        self.stale_err.append(abs(stale_value - truth) / abs(truth))
        self.ci_width.append((est.ci_high - est.ci_low) / 2 / abs(truth))
        self.covered.append(bool(est.contains(truth)))

    def metrics(self) -> dict:
        """Percent except coverage; exactly reproducible for a seed."""
        return {
            "svc_rel_err_p50": harness.percentile(self.err, 50) * 100,
            "core.estimators.rel_err_p95": harness.percentile(self.err, 95) * 100,
            "core.estimators.stale_rel_err_p50":
                harness.percentile(self.stale_err, 50) * 100,
            "core.confidence.cover_share":
                sum(self.covered) / max(len(self.covered), 1),
            "core.confidence.ci_rel_width_p50":
                harness.percentile(self.ci_width, 50) * 100,
        }

    def gate(self, run: RunRecord, workload: str) -> None:
        """A cleaned sample must beat doing nothing, with an interval that
        means something: a speed-up that spends accuracy fails here."""
        max_ratio, min_cover = ACCURACY_GATE[workload]
        got = self.metrics()
        svc, stale = (got["svc_rel_err_p50"],
                      got["core.estimators.stale_rel_err_p50"])
        run.check(svc <= max_ratio * stale,
                  f"SVC error {svc:.3g} % is above {max_ratio} × the stale "
                  f"error {stale:.3g} %")
        run.check(got["core.confidence.cover_share"] >= min_cover,
                  f"CI coverage {got['core.confidence.cover_share']:.3f} is "
                  f"below {min_cover}")


# ----------------------------------------------------------------------
# One maintenance period
# ----------------------------------------------------------------------
def ingest(run: RunRecord, db, ops: List[tuple]) -> float:
    """Apply one drafted batch through the Database facade (timed;
    garbage is collected before, outside the timer)."""
    quiesce()
    start = now()
    for kind, relation, payload in ops:
        run.op(f"db.{kind}", getattr(db, kind), relation, payload)
    return now() - start


def battery_slots(units: List[Unit]) -> List[tuple]:
    """The battery in its fixed order: (unit, query, group_by or None,
    accuracy pooled)."""
    slots = []
    for unit in units:
        slots += [(unit, query, None, pooled)
                  for query, pooled in zip(unit.points, unit.pooled)]
        slots += [(unit, query, group_by, False)
                  for query, group_by in unit.groups]
    return slots


def svc_battery(run: RunRecord, units: List[Unit]) -> list:
    """Every battery estimate through the cleaner facade."""
    out = []
    for unit, query, group_by, _ in battery_slots(units):
        if group_by is None:
            out.append(run.op("svc.query", unit.cleaner.query, query))
        else:
            out.append(run.op("svc.query_groups", unit.cleaner.query_groups,
                              query, group_by))
    return out


def exact_battery(units: List[Unit], data_of: Callable) -> list:
    """The same battery evaluated exactly on ``data_of(unit)``."""
    out = []
    for unit, query, group_by, _ in battery_slots(units):
        data = data_of(unit)
        if group_by is None:
            out.append(query.evaluate(data))
        else:
            out.append({group: query.evaluate(part)
                        for group, part in partition(data, group_by).items()})
    return out


def score(run: RunRecord, acc: Optional[Accuracy], units: List[Unit],
          estimates: list, truths: list, stales: list) -> None:
    """Validity of every estimate; accuracy pooled when ``acc`` is given."""
    for (_, _, group_by, pooled), est, truth, stale in zip(
            battery_slots(units), estimates, truths, stales):
        if group_by is not None:
            for group, group_est in est.items():
                run.check_estimate(group_est, f"group {group!r}")
        else:
            run.check_estimate(est, "point estimate")
            if acc is not None and pooled:
                acc.add(est, truth, stale)


def run_round(run: RunRecord, rep: Replica, round_id: int, kind: str,
              acc: Optional[Accuracy], layers=None) -> None:
    """One maintenance period of ``kind``; segment seconds go to
    ``rep.times`` while ``run.measuring``.

    ``layers`` is the replay module on the replay replica; its replays
    happen before the facade call they explain, outside every timer.
    """
    run.round = round_id
    state: BatchState = rep.state
    units = state.units
    ops = state.next_ops(round_id)

    def keep(name: str, seconds: float) -> None:
        if run.measuring:
            rep.times[name].append(seconds)

    ingest_s = ingest(run, state.db, ops)
    keep("ingest", ingest_s)
    if run.measuring:
        run.counts["db.ingest_rows"] += sum(len(p) for _, _, p in ops)
    if layers is not None and not run.measuring and kind == "svc":
        layers.cold_compile(run, state)

    # From here to the last answer nothing but the path under test runs
    # (on the replay replica, the replays come in between).
    spans = {id(unit): run.new_span() if layers is not None else None
             for unit in units}
    if kind == "svc":
        if layers is not None:
            for unit in units:
                layers.replay_refresh(run, state, unit, spans[id(unit)])
        start = now()
        indexed_s = 0.0
        for unit in units:
            unit_start = now()
            run.op("svc.refresh", unit.cleaner.refresh, span=spans[id(unit)])
            if unit.cleaner.outlier_index is not None:
                indexed_s += now() - unit_start
        refresh_s = now() - start
        estimates = svc_battery(run, units)
        keep("svc", ingest_s + now() - start)
        keep("refresh", refresh_s)
        keep("indexed_refresh", indexed_s)

        stale_data = {id(unit): unit.view.require_data() for unit in units}
        stales = exact_battery(units, lambda unit: stale_data[id(unit)])
        plain = layers.replay_estimators(run, state) if layers else {}
        for unit in units:
            run.op("db.maintain", maintain, unit.view)
        truths = exact_battery(units, lambda unit: unit.view.require_data())
        score(run, acc, units, estimates, truths, stales)
        if layers is not None:
            layers.score_companions(run, plain, estimates, truths)
        for unit in units:  # paper Property 1
            view = unit.view
            expected = hash_sample(view.require_data(), RATIO, seed=state.seed,
                                   attrs=unit.sample_attrs or view.key)
            run.check(
                harness.rows_match(unit.cleaner.clean_sample, expected, view.key),
                f"{view.name}: clean sample differs from η of the maintained view")
        if run.measuring:
            run.counts["core.cleaning.sample_rows"] += sum(
                len(unit.cleaner.clean_sample) for unit in units)
    else:
        if layers is not None:
            for unit in units:
                layers.replay_maintain(run, state, unit, spans[id(unit)])
        start = now()
        for unit in units:
            run.op("db.maintain", maintain, unit.view, span=spans[id(unit)])
        maintain_s = now() - start
        exact_battery(units, lambda unit: unit.view.require_data())
        keep("ivm", ingest_s + now() - start)
        keep("maintain", maintain_s)
        if run.measuring:
            run.counts["db.maintenance.view_rows"] += sum(
                len(unit.view.require_data()) for unit in units)

    # What view.fresh_data() computes, with the delta-applied bases (and
    # their columnar forms) built once for all views.
    fresh = state.db.fresh_leaves()
    for unit in units:
        view = unit.view
        run.check(
            harness.rows_match(view.require_data(),
                               evaluate(view.definition, fresh), view.key),
            f"{view.name}: maintained view differs from its recompute")
    start = now()
    run.op("db.apply_deltas", state.db.apply_deltas)
    keep("apply_deltas", now() - start)
    for unit in units:
        run.op("svc.advance", unit.cleaner.advance)
    if layers is not None:
        layers.advance_companions(state)


def read_loop(run: RunRecord, rep: Replica, passes: int) -> None:
    """Closed loop, one client: point estimates one at a time, in passes
    over the battery (one pass = one read segment), on a cleaned sample
    with a batch pending."""
    state: BatchState = rep.state
    plan = [(unit, query) for unit in state.units for query in unit.points]
    ingest(run, state.db, state.next_ops(10_000))
    for unit in state.units:
        run.op("svc.refresh", unit.cleaner.refresh)
    for unit, query in plan:  # warm the per-relation lazy state
        run.op("svc.query", unit.cleaner.query, query)
    estimates = []
    quiesce()
    for _ in range(passes):
        latencies = []
        pass_start = now()
        for unit, query in plan:
            start = now()
            estimates.append(run.op("svc.query", unit.cleaner.query, query))
            latencies.append(now() - start)
        rep.reads.append({"seconds": now() - pass_start, "latencies": latencies})
    for est in estimates:
        run.check_estimate(est, "read")


# ----------------------------------------------------------------------
# The whole run of one batch workload
# ----------------------------------------------------------------------
def scaled(reference: int, seconds: int, step: int = 1) -> int:
    """The frozen count ``--seconds`` selects (``run_seconds`` → the
    reference), in whole ``step``s."""
    share = seconds / harness.MANIFEST["run_seconds"]
    return step * max(1, round(reference * share / step))


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 smoke: bool) -> dict:
    """Set up, warm up, measure, check; returns every metric by name."""
    layers = None
    if trace:
        import layers

    size = SIZES[name]["smoke" if smoke else "full"]
    rounds = size["rounds"] if smoke else scaled(size["rounds"], seconds, 4)
    passes = size["passes"] if smoke else scaled(size["passes"], seconds)
    gauge_before = harness.gauge_ms()
    run = RunRecord()

    replicas: List[Replica] = []
    for role in harness.roles(trace, smoke):
        quiesce()
        start = now()
        state = BUILDERS[name](seed, size)
        replicas.append(Replica(state, role, now() - start))
        draw_battery(name, state, size)
        if role == "replay":
            layers.attach_companions(state)

    accuracies = []
    compiles = drained = 0
    cpu_s = wall_s = 0.0
    for run.replica, rep in enumerate(replicas):
        replay = layers if rep.role == "replay" else None
        run.recording = rep.role != "plain"
        # Untimed: fills plan caches and the lazy forms of the base data.
        for round_id, kind in enumerate(("svc", "ivm")):
            run_round(run, rep, round_id, kind, None, replay)
        compiles -= compile_count()
        drained -= harness.cache_drains()
        cpu_s -= time.process_time()
        wall_s -= now()
        acc = Accuracy()
        run.measuring = True
        for i in range(rounds):
            run_round(run, rep, 2 + i, ROUND_KINDS[i % 4], acc, replay)
        read_loop(run, rep, passes)
        run.measuring = False
        wall_s += now()
        cpu_s += time.process_time()
        compiles += compile_count()
        drained += harness.cache_drains()
        accuracies.append(acc)

    acc = accuracies[0]
    run.check(all(other.err == acc.err and other.covered == acc.covered
                  for other in accuracies[1:]),
              "replicas at one seed gave different estimates")
    if not smoke:  # too few estimates at smoke size
        acc.gate(run, name)

    # A replayed facade finds the inputs its replay just converted.
    cold = [rep for rep in replicas if rep.role != "replay"]
    reading = harness.read_metrics(replicas)
    refresh_s = harness.mean(harness.fastest(cold, "refresh"))
    maintain_s = harness.mean(harness.fastest(cold, "maintain"))
    metrics = {
        "setup_s": statistics.median(rep.setup_s for rep in replicas),
        "svc_fresh_s": harness.mean(harness.fastest(cold, "svc")),
        "ivm_fresh_s": harness.mean(harness.fastest(cold, "ivm")),
        "read_p50_ms": reading.pop("read_p50_ms"),
        "reads_per_s": reading.pop("reads_per_s"),
        **acc.metrics(),
        **reading,
        "db.ingest_s": harness.mean(harness.fastest(replicas, "ingest")),
        "db.ingest_rows": run.counts["db.ingest_rows"] / len(replicas),
        "db.apply_deltas_s":
            harness.mean(harness.fastest(replicas, "apply_deltas")),
        "db.maintenance.maintain_s": maintain_s,
        "db.maintenance.view_rows":
            run.counts["db.maintenance.view_rows"] / len(replicas),
        "core.cleaning.refresh_s": refresh_s,
        "core.cleaning.sample_rows":
            run.counts["core.cleaning.sample_rows"] / len(replicas),
        "core.cleaning.vs_maintain": refresh_s / maintain_s,
        "algebra.compiler.compiles": compiles,
        "caches.drains": drained,
        "host.cpu_wall_ratio": cpu_s / wall_s,
        "host.gauge_ms_before": gauge_before,
        "host.svc_fresh_plain_s": harness.plain_mean(cold, "svc"),
        "host.ivm_fresh_plain_s": harness.plain_mean(cold, "ivm"),
    }
    nulls = {}
    diag = {
        "replicas": [rep.role for rep in replicas],
        "rounds_per_replica": rounds,
        "reads": sum(len(s["latencies"]) for rep in replicas for s in rep.reads),
        "accuracy_samples": len(acc.err), "untouched": acc.untouched,
        "setups_s": [rep.setup_s for rep in replicas],
    }
    if trace:
        layers.traced_metrics(run, replicas, name, smoke, metrics, nulls)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    metrics["host.gauge_ms_after"] = harness.gauge_ms()
    return {"metrics": metrics, "nulls": nulls, "diag": diag, "run": run}
