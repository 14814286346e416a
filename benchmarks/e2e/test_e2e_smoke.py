"""Tier-1 smoke test of the end-to-end benchmark.

Every workload runs at ``--smoke`` size, untraced and traced, in this
process.  Checked: ``BENCHMARK.json`` obeys the contract's limits; each
run prints exactly the declared metrics of its trace mode, computes none
that is undeclared, and explains every one it leaves null; no operation
fails; the traced run at the same seed reproduces the untraced run's
counts and accuracy numbers exactly; and no child process outlives a run.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SEED = 5
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Numbers that depend only on the inputs, never on timing.
REPRODUCIBLE = (
    "svc_rel_err_p50", "core.estimators.rel_err_p95",
    "core.estimators.stale_rel_err_p50", "core.confidence.cover_share",
    "core.confidence.ci_rel_width_p50",
)
BATCH_COUNTS = ("db.ingest_rows", "db.maintenance.view_rows",
                "core.cleaning.sample_rows")


@pytest.fixture(scope="module")
def outcomes():
    return {
        (workload, trace): bench.measure(workload, SEED, MANIFEST["run_seconds"],
                                         trace, smoke=True)
        for workload in bench.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_manifest_is_within_the_contract_limits():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    names = []
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_run_prints_the_declared_metrics(outcomes, capsys, workload, trace):
    outcome = outcomes[workload, trace]
    bench.report(workload, outcome, trace)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, outcome["run"].failures
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    # Every declared metric of the mode is measured or explained, never both.
    measured, explained = set(outcome["metrics"]), set(outcome["nulls"])
    assert not measured & explained
    assert {m["name"] for m in declared} <= measured | explained
    known = {m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert measured | explained <= known
    assert all(isinstance(why, str) and why for why in outcome["nulls"].values())


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_same_seed_reproduces_counts_and_accuracy(outcomes, workload):
    plain = outcomes[workload, False]["metrics"]
    traced = outcomes[workload, True]["metrics"]
    for name in REPRODUCIBLE:
        assert plain[name] == traced[name], name
    if workload != "serve_mixed":
        for name in BATCH_COUNTS:
            assert plain[name] == traced[name], name


def test_no_child_process_outlives_a_run():
    """The resource tracker (started by the sharded probe's shared-memory
    exports) ends only when told to; anything else still running is
    killed after the grace period.  In a process of its own, because
    ``end_child_processes`` ends *every* child of the caller."""
    script = f"""
import subprocess, sys
sys.path.insert(0, {str(HERE)!r})
import harness
from multiprocessing import shared_memory
segment = shared_memory.SharedMemory(create=True, size=16)  # starts the tracker
segment.close()
segment.unlink()
subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
assert len(harness.child_pids()) == 2, harness.child_pids()
harness.end_child_processes(grace_s=0.2)
assert harness.child_pids() == [], harness.child_pids()
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
