"""repro.analysis — AST-based invariant linter for the engine's own
contracts.

The engine's correctness rests on a handful of cross-cutting invariants
that no unit test can pin down once and for all: every module-level
memo must be drained by the plan-epoch / hash-family invalidation
paths, every shared-memory segment must flow through the transport's
ownership protocol, every engine toggle used inside library code must
be restored, every swallowed exception in a failure domain must leave
``FailureReason`` telemetry, and every columnar fast path must sit
behind its row-path fallback guard.  This package encodes those
contracts as static-analysis rules (stdlib ``ast`` only) so new code
cannot silently regress them:

* **REP001** unregistered module-level cache (``repro.caches``)
* **REP002** raw shared-memory lifecycle outside the transport
* **REP003** unrestored ``set_*`` engine toggle
* **REP004** silent ``except Exception`` in a failure domain
* **REP005** columnar fast path outside the fallback-guard dispatch
* **REP006** unlocked worker-reachable module-state mutation

Run ``python -m repro.analysis`` (see ``docs/analysis.md`` for the rule
catalog, the ``# repro: ignore[RULE] -- reason`` suppression syntax,
and the baseline workflow).
"""

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Checker,
    FileChecker,
    all_checkers,
    register_checker,
)

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineError",
    "Checker",
    "FileChecker",
    "Finding",
    "all_checkers",
    "register_checker",
    "run_analysis",
]
