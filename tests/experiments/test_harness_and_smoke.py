"""Tests for the experiment harness plus tiny-scale smoke runs of every
figure-generating function (shape assertions live in benchmarks/)."""

import numpy as np
import pytest

import repro.experiments as E
from repro.experiments.harness import ExperimentResult


class TestExperimentResult:
    def test_add_and_column(self):
        r = ExperimentResult("x", "test")
        r.add(a=1, b=2.0)
        r.add(a=3, b=4.0)
        assert r.column("a") == [1, 3]

    def test_table_rendering(self):
        r = ExperimentResult("x", "test", notes="note")
        r.add(name="row", value=0.123456, large=12345.6)
        table = r.to_table()
        assert "== x: test ==" in table
        assert "note" in table
        assert "0.1235" in table

    def test_empty_table(self):
        assert "(no rows)" in ExperimentResult("x", "t").to_table()

    def test_nan_rendering(self):
        r = ExperimentResult("x", "t")
        r.add(v=float("nan"))
        assert "nan" in r.to_table()


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7a", "fig7b",
            "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11",
            "fig12", "fig13", "fig14a", "fig14b", "fig15", "fig16",
        }
        assert set(E.ALL_EXPERIMENTS) == expected


SMOKE = [
    ("fig4a", dict(scale=0.1, ratios=(0.1, 0.5, 1.0))),
    ("fig4b", dict(scale=0.1, update_fractions=(0.05, 0.1))),
    ("fig5", dict(scale=0.1)),
    ("fig6a", dict(scale=0.1)),
    ("fig6b", dict(scale=0.1, update_fractions=(0.05, 0.3), n_queries=6)),
    ("fig7a", dict(scale=0.08, names=("V3", "V21"))),
    ("fig7b", dict(scale=0.08, names=("V3", "V22"), n_queries=5)),
    ("fig8a", dict(scale=0.08, zipf_params=(1.0, 4.0), n_queries=6)),
    ("fig8b", dict(scale=0.08, index_sizes=(0, 10), view_names=("V3",))),
    ("fig9a", dict(n_records=2000, names=("V1", "V2"))),
    ("fig9b", dict(n_records=2000, names=("V2", "V7"), n_queries=5)),
    ("fig10a", dict(scale=0.1, ratios=(0.1, 1.0))),
    ("fig10b", dict(scale=0.1, update_fractions=(0.1,))),
    ("fig11", dict(scale=0.1)),
    ("fig12", dict(scale=0.1)),
    ("fig13", dict(scale=0.1)),
    ("fig14a", dict()),
    ("fig14b", dict()),
    ("fig16", dict(seconds=60)),
]


@pytest.mark.parametrize("name,kwargs", SMOKE, ids=[s[0] for s in SMOKE])
def test_experiment_smoke(name, kwargs):
    result = E.ALL_EXPERIMENTS[name](**kwargs)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.to_table()


@pytest.mark.parametrize("name", ["fig4a", "fig4b"])
def test_fig4_reports_cold_and_warm_cleaning(name):
    """``svc_seconds`` is the cold facade; the pre-warmed re-evaluation
    is a column of its own (both positive, neither a copy of the other)."""
    result = E.ALL_EXPERIMENTS[name](**dict(SMOKE)[name])
    for row in result.rows:
        assert row["svc_seconds"] > 0 and row["svc_warm_seconds"] > 0
        assert row["svc_seconds"] != row["svc_warm_seconds"]
        assert row["ivm_seconds"] > 0


def test_fig15_smoke():
    result = E.fig15_fixed_throughput_error(
        view_name="V2", ratios=(0.03, 0.1), n_records=2500)
    assert len(result.rows) == 2
    assert all(np.isfinite(r["ivm_max_error_pct"]) for r in result.rows)
