"""The hashing operator η_{a,m} as a library-level API (paper §4.4).

The expression-tree form of the operator is
:class:`repro.algebra.expressions.Hash`; this module provides the direct
relation-level form used to draw the initial stale sample Ŝ, plus the
uniformity diagnostics referenced in §12.3.

:func:`hash_sample` runs on the same kernel as the evaluator's
``Hash(BaseRel)`` node (:func:`repro.algebra.evaluator.eta_sample`): the
relation caches its η *draws* — one float per row, whatever the ratio —
and a sample is ``draws < m``, so sampling a relation also serves the
next evaluation of η over it, and a base relation's draws follow it
through ``apply_deltas()``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algebra.evaluator import columnar_enabled, eta_sample, hash_draw
from repro.algebra.relation import Relation
from repro.errors import EstimationError
from repro.stats.hashing import (
    get_hash_family,
    linear_unit,
    set_hash_family,
    sha1_unit,
    unit_hash,
    unit_hash_batch,
)

__all__ = [
    "hash_sample",
    "hash_ratio_estimate",
    "uniformity_chi2",
    "unit_hash",
    "unit_hash_batch",
    "sha1_unit",
    "linear_unit",
    "set_hash_family",
    "get_hash_family",
]


def hash_sample(
    rel: Relation, ratio: float, seed: int = 0, attrs: Sequence[str] = None
) -> Relation:
    """η_{a,m}(R): keep rows whose key hash is below ``ratio``.

    ``attrs`` defaults to the relation's primary key.  The same
    (attrs, ratio, seed) triple always selects the same rows — this
    determinism is what makes the dirty and clean samples correspond
    (paper Property 1 / §12.3.1).
    """
    if attrs is None:
        if not rel.key:
            raise EstimationError(
                "hash_sample needs explicit attrs for an unkeyed relation"
            )
        attrs = rel.key
    idx = rel.schema.indexes(attrs)
    if columnar_enabled() and len(rel):
        batch = eta_sample(rel, attrs, ratio, seed)
        return Relation.from_columnar(batch, key=rel.key, name=rel.name)
    rows = [
        row
        for row in rel.rows
        if hash_draw(tuple(row[i] for i in idx), seed) < ratio
    ]
    return Relation(rel.schema, rows, key=rel.key, name=rel.name)


def hash_ratio_estimate(rel: Relation, sample: Relation) -> float:
    """The empirical sampling ratio |Ŝ| / |S| (should be ≈ m)."""
    if len(rel) == 0:
        return 0.0
    return len(sample) / len(rel)


def uniformity_chi2(values, seed: int = 0, bins: int = 20) -> float:
    """Chi-square statistic of hash draws against uniform [0,1).

    Used by the hash-family ablation (§12.3): SHA1 should look uniform,
    the linear family less so on adversarial (e.g. sequential) keys.
    """
    draws = np.array([get_hash_family()((v,), seed) for v in values])
    counts, _ = np.histogram(draws, bins=bins, range=(0.0, 1.0))
    expected = len(draws) / bins
    if expected == 0:
        return 0.0
    return float(((counts - expected) ** 2 / expected).sum())
