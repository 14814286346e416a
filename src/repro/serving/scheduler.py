"""Freshness-budget scheduling of SVC cleaning rounds.

The serving layer cannot clean every view on every tick — cleaning costs
time proportional to the sampling ratio, and the whole point of SVC is
spending a *bounded* maintenance budget for bounded error.  The
:class:`FreshnessScheduler` decides, each tick, which views to clean and
at what sampling ratio:

* **Priority** — views are ordered by ``weight · (staleness / SLA
  target) · (1 + traffic)``: a view twice as far past its freshness SLA,
  or queried twice as often, gets cleaned first.  Views within their SLA
  are not scheduled at all (cleaning a fresh view is wasted budget).
* **Budget** — the tick carries a wall-clock budget ``B`` (seconds).
  Cleaning cost scales roughly linearly with the sampling ratio (the
  cleaning expression touches ``m·|S|`` sampled rows plus the delta
  join), so the scheduler charges each round its predicted cost and
  stops admitting full-ratio rounds when the budget runs out.
* **Degradation** — rather than skip a view that is past SLA, the
  scheduler *degrades* it: the ratio shrinks to fit the remaining
  budget, ``m = clamp(m₀ · B_remaining / C(m₀), m_min, m₀)``, trading
  estimate variance for freshness exactly as §7.6.2's error/ratio
  trade-off prescribes.  Only when even ``m_min`` does not fit is the
  view skipped (recorded, so the next tick's staleness term boosts it).
* **Escalation** — sampled cleaning never folds deltas into the base
  relations, so pending updates accumulate until a *full* maintenance
  round runs.  When any view's pending-row fraction exceeds its SLA's
  ``max_pending_fraction``, the plan requests full maintenance (which
  maintains every view and applies the global deltas).  Failure
  escalates the same way: a view whose cleaning rounds have failed
  ``max_round_failures`` consecutive times stops burning its retry
  budget on the same fault and gets a full re-anchoring period instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.reliability.faults import (
    SERVING_SCHEDULE,
    InjectedFault,
    fault_check,
)


@dataclass(frozen=True)
class FreshnessSLA:
    """Per-view service levels the scheduler honors.

    ``max_staleness_s`` is the freshness target: the view should get a
    cleaning round at least this often (measured from its last published
    epoch).  ``target_ratio`` / ``min_ratio`` bracket the accuracy SLA:
    the scheduler cleans at ``target_ratio`` when the budget allows and
    never degrades below ``min_ratio``.  ``max_pending_fraction`` is the
    escalation threshold for full maintenance; ``max_round_failures``
    is the failure-escalation threshold — after this many *consecutive*
    failed cleaning rounds the scheduler requests a full maintenance
    period (a re-anchor from scratch) instead of retrying sampled
    cleaning against possibly corrupt round state forever.
    """

    max_staleness_s: float = 1.0
    target_ratio: float = 0.1
    min_ratio: float = 0.01
    weight: float = 1.0
    max_pending_fraction: float = 0.25
    max_round_failures: int = 3

    def __post_init__(self):
        if not (0.0 < self.min_ratio <= self.target_ratio <= 1.0):
            raise EstimationError(
                f"need 0 < min_ratio <= target_ratio <= 1; got "
                f"{self.min_ratio!r} / {self.target_ratio!r}"
            )
        if self.max_staleness_s <= 0 or self.weight <= 0:
            raise EstimationError(
                "max_staleness_s and weight must be positive"
            )
        if self.max_round_failures < 1:
            raise EstimationError(
                f"max_round_failures must be >= 1: {self.max_round_failures}"
            )


@dataclass
class ViewLoad:
    """One view's observed state, the scheduler's per-tick input."""

    name: str
    sla: FreshnessSLA
    #: Seconds since this view's last published epoch.
    staleness_s: float
    #: Pending delta rows touching the view / current view rows.
    pending_fraction: float
    #: Smoothed queries-per-tick observed against this view.
    traffic: float
    #: Predicted cost (seconds) of one cleaning round at
    #: ``target_ratio``, supplied by the server's spike-clamped EWMA
    #: predictor (:class:`repro.serving.server.CostEwma`) — one
    #: pathological round cannot inflate it past every future budget,
    #: so a spike degrades the next round instead of starving the view.
    predicted_cost_s: float
    #: Consecutive failed cleaning rounds (0 while healthy).
    failures: int = 0

    def priority(self) -> float:
        """Staleness × traffic urgency, SLA-weighted.

        A failing view gets a boost per consecutive failure: its epoch
        is aging faster than its ``last_round_t`` suggests, and retrying
        it ahead of healthy views is what keeps the failure bounded.
        """
        urgency = self.staleness_s / self.sla.max_staleness_s
        boost = 1.0 + max(self.failures, 0)
        return (self.sla.weight * urgency * boost
                * (1.0 + max(self.traffic, 0.0)))


@dataclass(frozen=True)
class PlannedRound:
    """One admitted cleaning round."""

    view: str
    ratio: float
    degraded: bool
    priority: float
    charged_s: float


@dataclass
class TickPlan:
    """What one scheduler tick decided."""

    rounds: List[PlannedRound] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    budget_s: float = 0.0
    spent_s: float = 0.0
    full_maintenance: bool = False

    @property
    def remaining_s(self) -> float:
        return max(self.budget_s - self.spent_s, 0.0)


class FreshnessScheduler:
    """Budgeted, SLA-aware admission of cleaning rounds.

    Stateless between ticks apart from its default budget: the caller
    owns the per-view observations (:class:`ViewLoad`), which keeps the
    policy a pure, unit-testable function of its inputs.
    """

    def __init__(self, budget_s: float = 0.25):
        if budget_s <= 0:
            raise EstimationError(f"tick budget must be positive: {budget_s}")
        self.budget_s = float(budget_s)

    def plan(
        self, loads: Sequence[ViewLoad], budget_s: Optional[float] = None
    ) -> TickPlan:
        """Decide this tick's rounds given per-view observations."""
        fault = fault_check(SERVING_SCHEDULE)
        if fault is not None:
            raise InjectedFault(SERVING_SCHEDULE,
                                detail=fault.detail or "injected scheduler "
                                                       "failure")
        budget = float(budget_s) if budget_s is not None else self.budget_s
        plan = TickPlan(budget_s=budget)

        for load in loads:
            if load.pending_fraction > load.sla.max_pending_fraction:
                # Sampled cleaning can no longer keep the error bounded
                # at an acceptable ratio — the period must be closed.
                plan.full_maintenance = True
            if load.failures >= load.sla.max_round_failures:
                # Bounded retries exhausted: stop re-running sampled
                # cleaning into the same fault and re-anchor fully.
                plan.full_maintenance = True

        due = [ld for ld in loads if ld.staleness_s >= ld.sla.max_staleness_s]
        for load in sorted(due, key=lambda ld: ld.priority(), reverse=True):
            sla = load.sla
            cost = max(load.predicted_cost_s, 0.0)
            remaining = plan.remaining_s
            if cost <= remaining or cost == 0.0:
                plan.rounds.append(PlannedRound(
                    view=load.name, ratio=sla.target_ratio, degraded=False,
                    priority=load.priority(), charged_s=cost,
                ))
                plan.spent_s += cost
                continue
            # Behind budget: degrade the ratio to fit what is left.
            # Cost is ~linear in the ratio, so the affordable ratio is
            # m0 scaled by the budget fraction still available.
            ratio = sla.target_ratio * (remaining / cost)
            if ratio >= sla.min_ratio and remaining > 0.0:
                charged = cost * (ratio / sla.target_ratio)
                plan.rounds.append(PlannedRound(
                    view=load.name, ratio=ratio, degraded=True,
                    priority=load.priority(), charged_s=charged,
                ))
                plan.spent_s += charged
            else:
                plan.skipped.append((load.name, "budget exhausted"))
        return plan
