"""One pathological round must not permanently starve a view's budget.

The failure mode this pins: the scheduler charges each cleaning round
its predicted cost, and the prediction used to be a plain EWMA of
observed round times.  A single spiked round (GC pause, chaos-injected
stall, cold cache) of, say, 50 s against a 0.25 s tick budget pushed
the EWMA to ~15 s — never affordable, so the view was skipped every
tick, and because skipped views never run, the estimate never decayed:
starvation with no recovery path.  The spike-clamped
:class:`repro.serving.server.CostEwma` bounds what one round can do
to the estimate, so the view is schedulable again within a couple of
rounds while a *sustained* cost regime change is still learned.
"""

import pytest

from repro.serving.scheduler import FreshnessScheduler, FreshnessSLA, ViewLoad
from repro.serving.server import CostEwma, _ServedView

BUDGET_S = 0.25
SLA = FreshnessSLA(max_staleness_s=0.1, target_ratio=0.1, min_ratio=0.02)


def load_with_cost(cost_s: float) -> ViewLoad:
    return ViewLoad(name="v", sla=SLA, staleness_s=1.0,
                    pending_fraction=0.0, traffic=0.0,
                    predicted_cost_s=cost_s)


class TestCostEwmaClamp:
    def test_tracks_steady_costs_exactly_like_an_ewma(self):
        ewma = CostEwma()
        ewma.update(0.1)
        ewma.update(0.2)
        assert ewma.value == pytest.approx(0.7 * 0.1 + 0.3 * 0.2)

    def test_one_spike_is_absorbed_bounded(self):
        ewma = CostEwma()
        for _ in range(5):
            ewma.update(0.1)
        ewma.update(50.0)  # 500× spike
        # Clamped to 3× the current estimate before smoothing: the
        # estimate can grow at most ~1.6× per round, spike or no spike.
        assert ewma.value <= 0.1 * (0.7 + 0.3 * 3.0) + 1e-12
        ewma.update(0.1)
        assert ewma.value == pytest.approx(0.14, abs=0.02)

    def test_sustained_regime_change_is_still_learned(self):
        ewma = CostEwma()
        ewma.update(0.1)
        for _ in range(10):
            ewma.update(5.0)
        assert ewma.value > 2.0  # clamp slows, but does not block, learning

    def test_reset_overrides_history(self):
        ewma = CostEwma()
        ewma.update(10.0)
        ewma.reset(0.5)
        assert ewma.value == 0.5
        ewma.update(0.5)
        assert ewma.value == pytest.approx(0.5)


class TestSchedulerSpikeRecovery:
    def run_rounds(self, ewma, observed_costs):
        """Plan ticks feeding the scheduler the predictor's estimate."""
        scheduler = FreshnessScheduler(budget_s=BUDGET_S)
        outcomes = []
        for observed in observed_costs:
            plan = scheduler.plan([load_with_cost(ewma.value)])
            if plan.rounds:
                ewma.update(observed)  # the round ran; learn from it
                outcomes.append(("ran", plan.rounds[0].degraded))
            else:
                outcomes.append(("skipped", None))
        return outcomes

    def test_spike_does_not_permanently_starve_the_view(self):
        ewma = CostEwma()
        for _ in range(3):
            ewma.update(0.1)
        ewma.update(50.0)  # the pathological round
        # Within two ticks the view must be schedulable again (full or
        # degraded — anything but a skip).
        outcomes = self.run_rounds(ewma, [0.1, 0.1])
        assert any(kind == "ran" for kind, _ in outcomes[:2])
        # And once re-observed at normal cost, it runs undegraded.
        plan = FreshnessScheduler(budget_s=BUDGET_S).plan(
            [load_with_cost(ewma.value)]
        )
        assert plan.rounds and not plan.rounds[0].degraded

    def test_unclamped_history_reproduces_the_starvation(self):
        # The regression scenario, for contrast: feed the scheduler the
        # raw unclamped EWMA and the spiked view is never admitted.
        value = 0.1
        value = 0.7 * value + 0.3 * 50.0  # the old update rule
        for _ in range(5):
            plan = FreshnessScheduler(budget_s=BUDGET_S).plan(
                [load_with_cost(value)]
            )
            assert not plan.rounds  # skipped forever: value never updates
            assert plan.skipped == [("v", "budget exhausted")]


class TestServedViewPredictor:
    def test_legacy_attribute_reads_and_writes_the_predictor(self):
        served = _ServedView(view=None, sla=SLA, seed=0)
        assert served.cost_ewma_s == 0.0
        served.cost_ewma_s = 1.25  # tests and callers still assign this
        assert served.cost_predictor.value == 1.25
        served.cost_predictor.update(1.25)
        assert served.cost_ewma_s == pytest.approx(1.25)
