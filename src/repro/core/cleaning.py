"""Stale sample view cleaning — paper Problem 1 (§4.5–4.6).

Given a stale view S, its maintenance strategy M, and a sampling ratio m,
the *cleaning expression* is

    C = push_down( η_{u,m}( M ) )

where u is the view's primary key (Def 2).  Evaluating C against the
stale database (stale view + delta relations) materializes Ŝ', a uniform
m-sample of the up-to-date view S' that *corresponds* (Property 1) to the
stale sample Ŝ = η_{u,m}(S) because the hash is deterministic.

:class:`SampleView` packages the whole lifecycle: draw Ŝ, build C, clean
to Ŝ', and re-anchor after the base view is maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algebra.columnar import dense, pack
from repro.algebra.evaluator import columnar_enabled, eta_sample, hash_draw
from repro.algebra.expressions import Expr, Hash
from repro.algebra.relation import Relation
from repro.core.hashing import hash_sample
from repro.core.pushdown import PushdownReport, push_down_with_report
from repro.db.maintenance import MaintenanceStrategy, choose_strategy
from repro.errors import EstimationError
from repro.stats.hashing import get_hash_family


@dataclass
class CorrespondenceCheck:
    """Empirical verification of Property 1 between Ŝ and Ŝ'."""

    uniform_dirty: bool
    uniform_clean: bool
    superfluous_removed: bool
    missing_sampled: bool
    keys_preserved: bool

    def holds(self) -> bool:
        """All four conditions of Property 1."""
        return (
            self.uniform_dirty
            and self.uniform_clean
            and self.superfluous_removed
            and self.missing_sampled
            and self.keys_preserved
        )


def cleaning_expression(
    view, ratio: float, seed: int = 0,
    strategy: Optional[MaintenanceStrategy] = None,
    optimize: bool = True,
    sample_attrs: Optional[Tuple[str, ...]] = None,
) -> Tuple[Expr, PushdownReport]:
    """Build C (optionally without push-down, for the ablation).

    ``sample_attrs`` defaults to the view's full primary key; a subset
    (e.g. just the grouping key of a fact table) is also valid — hashing
    any attribute still includes every row with probability m (paper
    §12.5) and often pushes much deeper.
    """
    if strategy is None:
        strategy = choose_strategy(view)
    attrs = tuple(sample_attrs) if sample_attrs else tuple(view.key)
    hashed = Hash(strategy.expr, attrs, ratio, seed)
    if not optimize:
        return hashed, PushdownReport()
    return push_down_with_report(hashed, view.database.leaves())


def _try_positions(data: Relation, sample: Relation, key) -> Optional[np.ndarray]:
    """Ascending row positions in ``data`` of ``sample``'s keys, or
    ``None`` to fall back to hashing ``data`` (engine off, keys the key
    coder refuses, or a key of either side that is not unique in
    ``data``)."""
    if not columnar_enabled() or not len(data):
        return None
    packed = pack([data.columnar().arrays(key), sample.columnar().arrays(key)])
    if packed is None:
        return None
    ids, _ = dense(packed[0])
    n = len(data)
    # First-appearance ids: data's keys are distinct exactly when they
    # take ids 0 … n−1, in row order, so an id below n is a position.
    found = np.unique(ids[n:])
    if ids[n - 1] != n - 1 or len(found) != len(ids) - n or (
            len(found) and found[-1] >= n):
        return None
    return found


class SampleView:
    """The SVC-maintained sample of one materialized view.

    Parameters
    ----------
    view:
        A :class:`~repro.db.view.MaterializedView` (must be materialized).
    ratio:
        Sampling ratio m ∈ (0, 1].
    seed:
        Hash-family seed; distinct seeds draw independent samples.
    optimize:
        Apply hash push-down when building the cleaning expression
        (disable only for the ablation benchmark).
    """

    def __init__(
        self, view, ratio: float, seed: int = 0, optimize: bool = True,
        sample_attrs: Optional[Tuple[str, ...]] = None,
    ):
        if not 0.0 < ratio <= 1.0:
            raise EstimationError(f"sampling ratio must be in (0, 1]: {ratio}")
        if not view.key:
            raise EstimationError(
                f"view {view.name!r} has no primary key; SVC cannot sample it"
            )
        self.view = view
        self.ratio = float(ratio)
        self.seed = int(seed)
        self.optimize = optimize
        self.sample_attrs = tuple(sample_attrs) if sample_attrs else tuple(view.key)
        for a in self.sample_attrs:
            if a not in view.key:
                raise EstimationError(
                    f"sample attribute {a!r} is not part of the view key "
                    f"{view.key!r}"
                )
        self.dirty_sample: Relation = hash_sample(
            view.require_data(), ratio, seed=seed, attrs=self.sample_attrs
        )
        self.clean_sample: Optional[Relation] = None
        #: ``(view.state(), η parameters)`` the clean sample was computed
        #: from and under (see :meth:`advance`).
        self._cleaned_from: Optional[tuple] = None
        self.last_report: Optional[PushdownReport] = None

    # ------------------------------------------------------------------
    def clean(
        self, strategy: Optional[MaintenanceStrategy] = None
    ) -> Relation:
        """Problem 1: materialize Ŝ' = C(Ŝ, D, ∂D).

        The returned relation is an m-sample of the up-to-date view that
        corresponds to :attr:`dirty_sample`.  Under an active shard
        configuration (``set_shard_count(n)`` with n > 1) the cleaning
        expression is evaluated per shard and the per-shard hashed
        samples merge back into one sample — η is deterministic per row,
        so the union is exactly the single-shard sample.
        """
        if strategy is None:
            strategy = choose_strategy(self.view)
        expr, report = cleaning_expression(
            self.view, self.ratio, self.seed, strategy, self.optimize,
            sample_attrs=self.sample_attrs,
        )
        self.last_report = report
        state = (self.view.state(), self._eta())
        result = self._evaluate_cleaning(expr, strategy)
        result.key = self.view.key
        result.name = f"{self.view.name}__sample"
        self.clean_sample, self._cleaned_from = result, state
        return result

    def _evaluate_cleaning(
        self, expr: Expr, strategy: MaintenanceStrategy
    ) -> Relation:
        """Evaluate C single-shard or shard-parallel per the global config.

        The sharded path reuses the maintenance flow with the dirty
        sample as the identity source for skipped shards (a shard no
        delta row routes to cleans to η of its untouched stale slice —
        exactly its slice of the dirty sample).
        """
        from repro.algebra.compiler import compiled_evaluate
        from repro.distributed.shard import run_sharded

        result = run_sharded(
            self.view, expr, strategy, identity_source=self.dirty_sample
        )
        if result is None:
            # Cleaning expressions repeat their shape across periods
            # (same strategy, same pushed-down η), so the single-shard
            # path compiles once and reuses the fused pipeline.
            result = compiled_evaluate(expr, self.view.database.leaves())
        return result

    def _eta(self) -> tuple:
        """Which η this sample view draws right now: the active hash
        family and the sampling parameters."""
        return (get_hash_family(), self.ratio, self.seed, self.sample_attrs)

    def require_clean(self) -> Relation:
        """The clean sample; raises if :meth:`clean` was never called."""
        if self.clean_sample is None:
            raise EstimationError(
                f"sample of {self.view.name!r} has not been cleaned yet"
            )
        return self.clean_sample

    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Re-anchor after the underlying view was fully maintained.

        The new dirty sample is η(S') of the maintained view, through
        the kernel the evaluator's ``Hash(BaseRel)`` node uses, so the
        next ``refresh()`` finds η(S) already on the view.  The clean
        sample *is* η(S') (hashing is deterministic) whenever the view
        was maintained from exactly the state the sample was cleaned
        from — same stale rows, same pending deltas — and η is still the
        η it was cleaned under (hash family, ratio, seed, attributes);
        then its key set is adopted and nothing is hashed.  Either way
        the result is row-identical to
        ``hash_sample(view.require_data(), ...)``.
        """
        data = self.view.require_data()
        clean, cleaned_from = self.clean_sample, self._cleaned_from
        self.clean_sample = self._cleaned_from = None
        if clean is not None and cleaned_from == (
            self.view.maintained_from(), self._eta()
        ):
            positions = _try_positions(data, clean, self.view.key)
            if positions is not None:
                eta_sample(
                    data, self.sample_attrs, self.ratio, self.seed, positions
                )
        self.dirty_sample = hash_sample(
            data, self.ratio, seed=self.seed, attrs=self.sample_attrs
        )

    # ------------------------------------------------------------------
    def check_correspondence(self, fresh: Relation) -> CorrespondenceCheck:
        """Verify Property 1 empirically against ground truth S'."""
        clean = self.require_clean()
        dirty = self.dirty_sample
        stale = self.view.require_data()
        key_idx = stale.schema.indexes(self.view.key)
        hash_pos = [self.view.key.index(a) for a in self.sample_attrs]

        def keys_of(rel):
            return {tuple(r[i] for i in key_idx) for r in rel.rows}

        def draw(key):
            return hash_draw(tuple(key[i] for i in hash_pos), self.seed)

        stale_keys = keys_of(stale)
        fresh_keys = keys_of(fresh)
        dirty_keys = keys_of(dirty)
        clean_keys = keys_of(clean)

        # Uniformity: every sampled key hashes below m, every unsampled
        # key at or above (exact, because hashing is deterministic).
        def uniform(rel_keys, pop_keys):
            for k in pop_keys:
                below = draw(k) < self.ratio
                if below != (k in rel_keys):
                    return False
            return True

        superfluous = {k for k in dirty_keys if k not in fresh_keys}
        missing_pop = fresh_keys - stale_keys
        expected_missing = {k for k in missing_pop if draw(k) < self.ratio}
        surviving = dirty_keys - superfluous
        return CorrespondenceCheck(
            uniform_dirty=uniform(dirty_keys, stale_keys),
            uniform_clean=uniform(clean_keys, fresh_keys),
            superfluous_removed=not (superfluous & clean_keys),
            missing_sampled=expected_missing <= clean_keys,
            keys_preserved=surviving <= clean_keys,
        )

    def __repr__(self):
        n_clean = len(self.clean_sample) if self.clean_sample is not None else "-"
        return (
            f"<SampleView of {self.view.name} m={self.ratio:g} "
            f"dirty={len(self.dirty_sample)} clean={n_clean}>"
        )
