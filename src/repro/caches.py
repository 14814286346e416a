"""Central registry of the engine's module-level caches.

Every long-lived memo in the library — the η hash-draw memo, the
compiled-plan cache, the mini-batch calibration cache, the per-relation
partition memo family — must stay consistent with the *engine
configuration*: the active hash family and the plan epoch (which every
semantics-changing toggle bumps).  Before this registry each cache
wired its own invalidation by hand, and three separate PRs shipped a
bugfix for a memo that missed one path (family-unaware hash memo,
epoch-unaware calibrations, stale shard-plan memo).

The registry makes the contract explicit and machine-checkable:

* every module-level cache calls :func:`register_cache` at import time,
  naming the invalidation *reasons* it subscribes to
  (``"hash_family"``, ``"plan_epoch"``, or none for self-invalidating
  epoch-keyed memos);
* the toggle paths call :func:`invalidate_caches` with the reason
  instead of reaching into other modules' cache dicts;
* rule **REP001** in ``tests/test_invariants.py`` rejects any new
  module-level ``*_CACHE`` / ``*_MEMO`` container that is not
  registered here.

Only caches from *imported* modules are registered — invalidating a
reason before a cache's module is imported is trivially correct
(there is nothing to drain yet).

This module imports nothing from the rest of the library, so any
module may register at import time without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "RegisteredCache",
    "cache_stats",
    "clear_all_caches",
    "invalidate_caches",
    "register_cache",
    "registered_caches",
]

#: Invalidation reasons the registry understands.  ``hash_family`` fires
#: on :func:`repro.stats.hashing.set_hash_family`; ``plan_epoch`` fires
#: on every :func:`repro.algebra.compiler.bump_plan_epoch` (i.e. every
#: semantics- or layout-changing toggle).
KNOWN_REASONS: Tuple[str, ...] = ("hash_family", "plan_epoch")


@dataclass(frozen=True)
class RegisteredCache:
    """One module-level cache and how it is kept consistent."""

    #: Dotted, library-unique name (``"algebra.evaluator.hash_memo"``).
    name: str
    #: Drops every entry; must be idempotent.
    clear: Callable[[], None]
    #: Reasons that drain this cache (subset of :data:`KNOWN_REASONS`).
    #: Empty means the cache self-invalidates (e.g. epoch-keyed entries)
    #: and is registered for inventory and :func:`clear_all_caches` only.
    invalidate_on: Tuple[str, ...] = ()
    #: Optional entry counter for :func:`cache_stats`.
    size: Optional[Callable[[], int]] = None
    #: One-line description of what the cache memoizes.
    description: str = ""
    #: Times this cache has been drained through the registry.
    _drains: list = field(default_factory=lambda: [0], repr=False)


_REGISTRY: Dict[str, RegisteredCache] = {}


def register_cache(
    name: str,
    *,
    clear: Callable[[], None],
    invalidate_on: Tuple[str, ...] = (),
    size: Optional[Callable[[], int]] = None,
    description: str = "",
) -> RegisteredCache:
    """Register one module-level cache; returns the registry entry.

    Re-registering the same name replaces the entry (modules may be
    reloaded under test runners); unknown invalidation reasons are a
    programming error and raise immediately.
    """
    for reason in invalidate_on:
        if reason not in KNOWN_REASONS:
            raise ValueError(
                f"unknown cache-invalidation reason {reason!r} for "
                f"{name!r}; known: {KNOWN_REASONS}"
            )
    entry = RegisteredCache(
        name=name,
        clear=clear,
        invalidate_on=tuple(invalidate_on),
        size=size,
        description=description,
    )
    _REGISTRY[name] = entry
    return entry


def registered_caches() -> Dict[str, RegisteredCache]:
    """Snapshot of the current registrations (name -> entry)."""
    return dict(_REGISTRY)


def invalidate_caches(reason: str) -> Tuple[str, ...]:
    """Drain every cache subscribed to ``reason``; returns their names.

    The toggle paths call this instead of clearing other modules' dicts
    directly — draining is centralized, so a cache added anywhere in the
    library participates in invalidation by registering, not by editing
    every toggle.
    """
    if reason not in KNOWN_REASONS:
        raise ValueError(
            f"unknown cache-invalidation reason {reason!r}; "
            f"known: {KNOWN_REASONS}"
        )
    drained = []
    for entry in list(_REGISTRY.values()):
        if reason in entry.invalidate_on:
            entry.clear()
            entry._drains[0] += 1
            drained.append(entry.name)
    return tuple(drained)


def clear_all_caches() -> Tuple[str, ...]:
    """Drain every registered cache regardless of reason (tests, memory
    pressure); returns the drained names."""
    drained = []
    for entry in list(_REGISTRY.values()):
        entry.clear()
        entry._drains[0] += 1
        drained.append(entry.name)
    return tuple(drained)


def cache_stats() -> Dict[str, Dict[str, object]]:
    """Per-cache introspection: size (when countable), drain count,
    subscribed reasons.  Used by tests and operator tooling."""
    return {
        entry.name: {
            "size": entry.size() if entry.size is not None else None,
            "drains": entry._drains[0],
            "invalidate_on": entry.invalidate_on,
            "description": entry.description,
        }
        for entry in _REGISTRY.values()
    }
