"""Shared parts of the end-to-end benchmark: the run record (operation
counts, spans), replicas and the fastest-of-replicas rule, oracles and
host diagnostics.

Everything here is driven from the benchmark's own files around public
calls into ``repro``; nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]

SRC = ROOT / "src"
if not SRC.is_dir():
    raise SystemExit(f"{SRC} is missing: the benchmark measures the program "
                     "under src/ and has nothing to run without it")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

now = time.perf_counter

#: Identical copies of a workload's state held by one process (same seed,
#: same inputs, run one after the other).  See :func:`fastest`.
REPLICAS = 5
#: The replicas of a traced run, by what each does: ``plain`` records
#: nothing (``--trace 0`` runs ``REPLICAS`` of it), ``spans`` records a span per
#: facade call, ``replay`` also replays each facade's public sub-calls
#: under child spans first.
TRACE_ROLES = ("plain", "spans", "replay")


def roles(trace: bool, smoke: bool) -> tuple:
    """The replicas of a run (the smoke test makes do with two)."""
    if trace:
        return TRACE_ROLES
    return ("plain",) * (2 if smoke else REPLICAS)


class RunRecord:
    """What one workload run observed, over all its replicas.

    ``op`` wraps every facade call (counted into ``attempted`` /
    ``failed``); ``child`` wraps a replayed public sub-call of a facade
    (``replay`` replica only — replays sit outside every end-to-end
    timer); ``check`` counts an oracle or validity check.  Children's
    seconds accumulate into ``sums`` only while ``measuring`` is set, so
    warm-up rounds never reach a metric.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sums: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self.round = -1
        self.replica = 0
        self.measuring = False
        self.recording = False

    # -- spans ---------------------------------------------------------
    def new_span(self) -> int:
        """Reserve a span id (children are recorded before their parent)."""
        self.spans.append({})
        return len(self.spans) - 1

    def _record(self, sid: int, name: str, start: float, end: float,
                parent: Optional[int]) -> None:
        self.spans[sid] = {
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "round": self.round, "replica": self.replica,
        }

    # -- calls ---------------------------------------------------------
    def op(self, name: str, fn: Callable, *args, span: Optional[int] = None,
           **kwargs):
        """One facade call: counted, and a span while recording."""
        self.attempted += 1
        start = now()
        try:
            out = fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            self.failures.append(f"{name} raised {err!r}")
            raise
        if self.recording:
            end = now()
            self._record(span if span is not None else self.new_span(),
                         name, start, end, None)
        return out

    def child(self, name: str, parent: Optional[int], fn: Callable, *args,
              **kwargs):
        """One replayed sub-call under ``parent`` (root span if None)."""
        start = now()
        out = fn(*args, **kwargs)
        end = now()
        if self.measuring:
            self.sums[name] += end - start
            self.counts[name] += 1
            if parent is not None:
                self.sums["trace.explained_s"] += end - start
        self._record(self.new_span(), name, start, end, parent)
        return out

    def check(self, ok: bool, what: str) -> bool:
        """One oracle / validity check, counted like an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_estimate(self, est, what: str) -> bool:
        """An estimate must be finite with an ordered, finite interval."""
        try:
            low, high = est.ci_low, est.ci_high
            ok = (math.isfinite(est.value) and math.isfinite(low)
                  and math.isfinite(high) and low <= high)
        except Exception as err:  # a malformed estimate is a failure too
            return self.check(False, f"{what}: malformed estimate {err!r}")
        return self.check(ok, f"{what}: non-finite or inverted {est!r}")

    def mean(self, name: str) -> Optional[float]:
        """Mean seconds per replayed call of ``name`` (None: never called)."""
        n = self.counts.get(name, 0)
        return self.sums[name] / n if n else None

    # -- trace file ----------------------------------------------------
    def write_trace(self, workload: str) -> Path:
        """Write the spans with derived self time; returns the path."""
        spans = [s for s in self.spans if s]
        covered: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace_{workload}.jsonl"
        with path.open("w") as out:
            for s in spans:
                dur = s["end"] - s["start"]
                row = dict(s, duration=dur,
                           self_time=max(dur - covered.get(s["id"], 0.0), 0.0))
                out.write(json.dumps(row) + "\n")
        return path


class Replica:
    """One copy of a workload's state and the seconds of its timed
    segments, by segment name, in execution order."""

    def __init__(self, state, role: str, setup_s: float):
        self.state = state
        self.role = role
        self.setup_s = setup_s
        self.times: Dict[str, List[float]] = defaultdict(list)
        #: Read segments: {"seconds": s, "latencies": [...]}.
        self.reads: List[dict] = []


def fastest(replicas: Sequence[Replica], name: str) -> List[float]:
    """Per timed segment ``name``, the fastest of the replicas' runs of it.

    The replicas execute identical inputs, so what a segment has to do —
    a recompute fallback in round 5, a cold columnar conversion, a
    bigger database in round 9 — costs the same in every replica and
    survives the minimum; a slow spell of the host (they last seconds
    and recur; the replicas run one after the other, seconds apart) hits
    one replica's run of the segment and does not.  Every segment still
    counts in the total.
    """
    return [min(times) for times in zip(*(r.times[name] for r in replicas))]


def fastest_reads(replicas: Sequence[Replica]) -> List[dict]:
    """Per read segment, the replica's run that took least per read (a
    segment in which no replica got a read in is skipped)."""
    chosen = []
    for runs in zip(*(r.reads for r in replicas)):
        runs = [run for run in runs if run["latencies"]]
        if runs:
            chosen.append(min(
                runs, key=lambda run: run["seconds"] / len(run["latencies"])))
    return chosen


def read_metrics(replicas: Sequence[Replica]) -> dict:
    """Latency and throughput of the closed read loop (one client)."""
    chosen = fastest_reads(replicas)
    chosen_latencies = [x for seg in chosen for x in seg["latencies"]]
    return {
        "read_p50_ms": statistics.median(chosen_latencies) * 1e3,
        "reads_per_s": len(chosen_latencies) / sum(s["seconds"] for s in chosen),
        "host.reads_per_s_plain":
            sum(len(s["latencies"]) for r in replicas for s in r.reads)
            / sum(s["seconds"] for r in replicas for s in r.reads),
    }


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def plain_mean(replicas: Sequence[Replica], name: str) -> float:
    """Total ÷ segments over every replica, nothing discarded — kept
    beside each fastest-of-replicas timing so the A/A archive compares
    the two statistics on the same runs."""
    return mean([x for r in replicas for x in r.times[name]])


def quiesce() -> None:
    """Collect garbage outside (before) a timed segment."""
    gc.collect()


def cache_drains() -> int:
    """Drains of every registered engine cache so far (``cache_stats()``)."""
    from repro.caches import cache_stats

    return sum(entry["drains"] for entry in cache_stats().values())


def child_pids() -> List[int]:
    """Processes whose parent is this one (Linux ``/proc``)."""
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in task.read_text().split()]
        except OSError:  # the thread ended meanwhile
            pass
    return pids


def end_child_processes(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The sharded probe starts pool workers and, through its shared-memory
    exports, the ``multiprocessing`` resource tracker.  The tracker ends
    only once this process closes its pipe to it — left alone, *after*
    this process has exited, so it would outlive the run.  Order matters:
    the pool and the exports go first (unlinking a segment talks to the
    tracker and would start a new one), then the tracker, then whatever
    is left gets ``grace_s`` to end before it is killed.
    """
    if "repro.distributed" in sys.modules:
        sys.modules["repro.distributed"].shutdown_shard_pool()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes the pipe and waits for the tracker
    deadline = now() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return
        if pid == 0:
            if now() > deadline:
                for child in child_pids():
                    try:
                        os.kill(child, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = float("inf")
            time.sleep(0.01)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def rows_match(a, b, key: Sequence[str], tol: float = 1e-9) -> bool:
    """Float-tolerant equality of two keyed relations (same schema)."""
    if len(a) != len(b) or a.schema.columns != b.schema.columns:
        return False
    idx = a.schema.indexes(key)
    other = {tuple(r[i] for i in idx): r for r in b.rows}
    if len(other) != len(b):
        return False
    for row in a.rows:
        mate = other.get(tuple(row[i] for i in idx))
        if mate is None:
            return False
        if row == mate:
            continue
        for x, y in zip(row, mate):
            if x == y:
                continue
            if not (isinstance(x, float) or isinstance(y, float)):
                return False
            if not abs(x - y) <= tol * max(1.0, abs(x), abs(y)):
                return False
    return True


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (0 when empty)."""
    import numpy as np

    return float(np.percentile(values, p)) if len(values) else 0.0


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and IQR ÷ median as the driver computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "iqr_over_median": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_over_median": (q3 - q1) / abs(med) if med else 0.0,
    }


# ----------------------------------------------------------------------
# Host diagnostics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gauge_ms() -> float:
    """A fixed dict + numpy kernel, timed: a diagnostic of how fast the
    host is right now.  Never used to rescale a metric."""
    import numpy as np

    start = now()
    table = {}
    for i in range(60_000):
        table[(i * 7919) % 10_007] = i
    arr = np.arange(400_000, dtype=np.float64)
    for _ in range(8):
        arr = np.sqrt(arr * 1.0001 + 3.0)
    float(arr.sum()) + len(table)
    return (now() - start) * 1e3


def machine_info() -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def commit_id() -> str:
    """The checkout's commit, or 'unknown' outside a git repository."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
