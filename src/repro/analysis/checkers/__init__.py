"""Built-in invariant checkers.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.  Rule catalog (details and bad/good
examples in ``docs/analysis.md``):

========  ============================================================
REP001    module-level cache container not registered with
          :mod:`repro.caches`
REP002    raw ``SharedMemory`` creation / ``unlink`` outside the
          transport module
REP003    ``set_*`` engine toggle without save/restore pairing
REP004    swallowed ``except Exception`` in a failure domain without
          :class:`~repro.reliability.telemetry.FailureReason` telemetry
REP005    columnar fast path called outside the fallback-guard dispatch
REP006    unlocked mutation of module-level state reachable from shard
          worker entry points
========  ============================================================
"""

from repro.analysis.checkers import (  # noqa: F401
    rep001_caches,
    rep002_shm,
    rep003_toggles,
    rep004_failures,
    rep005_fallback,
    rep006_workers,
)
