"""Confidence machinery for sample-mean queries — paper §5.2.1.

The paper rewrites a predicated aggregate into a *trans* table (predicate
folded into the selected expression, scaled by 1/m), bounds SVC+AQP with
the CLT on the trans values, and bounds SVC+CORR on the *diff* table
built with the correspondence-subtract operator −̇ (Def 4): a full outer
join of the clean and dirty trans tables on the view key with NULLs read
as zero.

Variance estimators
-------------------
``se_method="ht"`` (default) uses the Horvitz–Thompson variance estimate
for hash (Poisson) sampling, ``Var̂(Σt) = Σ_sample (1−m)·t_i²``, which
correctly accounts for the random sample size (the paper's SQL formula
``stdev(trans)/sqrt(count)`` is the CI of the *mean* of the trans values
and collapses to zero width on constant data).  ``se_method="paper"``
reproduces the paper's formula, scaled to the sum estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.algebra.columnar import factorize_key_codes
from repro.algebra.evaluator import columnar_enabled
from repro.algebra.predicates import _FLOAT_EXACT, _INT64_SAFE, _int_bound
from repro.algebra.relation import Relation
from repro.errors import EstimationError


@dataclass
class Estimate:
    """A point estimate with a symmetric CLT confidence interval."""

    value: float
    se: float
    confidence: float = 0.95
    method: str = ""
    sample_rows: int = 0

    @property
    def z(self) -> float:
        """Gaussian tail value for the configured confidence level."""
        return gaussian_z(self.confidence)

    @property
    def ci_low(self) -> float:
        return self.value - self.z * self.se

    @property
    def ci_high(self) -> float:
        return self.value + self.z * self.se

    @property
    def interval(self) -> Tuple[float, float]:
        """(low, high) at the configured confidence level."""
        return (self.ci_low, self.ci_high)

    def contains(self, truth: float) -> bool:
        """True if the interval covers ``truth``."""
        return self.ci_low <= truth <= self.ci_high

    def __repr__(self):
        return (
            f"Estimate({self.value:.6g} ± {self.z * self.se:.3g} "
            f"@{self.confidence:.0%}, {self.method})"
        )


@lru_cache(maxsize=64)
def gaussian_z(confidence: float) -> float:
    """Two-sided Gaussian tail value (1.96 for 95%, 2.57 for 99%)."""
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0,1): {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


# ----------------------------------------------------------------------
# The batch kernel.  Everything the estimators compute per query is a
# reduction of (predicate mask, attribute column) over a relation's
# cached columnar form; the row loops below stay, verbatim, as the
# per-call fallback and as the oracle the equivalence suite compares
# against.  docs/estimation.md has the data path and the fallback list.
# ----------------------------------------------------------------------
def _try_columns(rel: Relation, query):
    """``(mask, values)`` of ``query`` over ``rel.columnar()``, or None.

    ``mask`` is the predicate's selection mask and ``values`` the
    aggregated column (None for an attribute-less count).  None sends
    the caller to its row loop: the columnar engine is switched off,
    the predicate has no vector form or raised (the row loop then
    raises the reference error — or none, where ``and``/``or`` would
    have short-circuited past it), or the column is not one numpy
    reduces the way Python does — object dtype (``None``, bool-int
    mixes, big ints), strings, integers at or beyond 2**53 or whose sum
    could leave int64.
    """
    if not columnar_enabled():
        return None
    try:
        mask = query.predicate.mask(rel)
        if query.attr is None:
            return mask, None
        values = rel.columnar().array(query.attr)
    except Exception:
        return None
    kind = values.dtype.kind
    if kind in "iu":
        bound = _int_bound(values)
        if bound >= _FLOAT_EXACT or bound * len(values) >= _INT64_SAFE:
            return None
    elif kind not in "bf":
        return None
    return mask, values


def _trans_columns(mask, values, func: str, ratio: float) -> np.ndarray:
    """:func:`trans_values` of one kernel result (sum/count/avg)."""
    if func == "count":
        return np.where(mask, 1.0 / ratio, 0.0)
    if func == "sum":
        return np.where(mask, values / ratio, 0.0)
    return values[mask].astype(float)


def _keyed_columns(mask, values, func: str, ratio: float) -> np.ndarray:
    """:func:`keyed_trans` values of one kernel result, in row order."""
    if func == "count":
        return np.where(mask, 1.0 / ratio, 0.0)
    scale = 1.0 / ratio if func == "sum" else 1.0
    return np.where(mask, values * scale, 0.0)


def trans_values(
    rel: Relation, query, ratio: float
) -> np.ndarray:
    """The paper's trans-table values for one sample relation.

    * sum:   (1/m) · attr · cond  over every sample row;
    * count: (1/m) · cond         over every sample row;
    * avg:   attr                 over rows satisfying cond.
    """
    if query.func in ("sum", "count", "avg") and ratio:
        cols = _try_columns(rel, query)
        if cols is not None:
            return _trans_columns(*cols, query.func, ratio)
    pred = query.predicate.bind(rel.schema)
    if query.func == "count":
        return np.array(
            [(1.0 / ratio) if pred(row) else 0.0 for row in rel.rows]
        )
    attr_idx = rel.schema.index(query.attr)
    if query.func == "sum":
        return np.array(
            [
                (row[attr_idx] / ratio) if pred(row) else 0.0
                for row in rel.rows
            ],
            dtype=float,
        )
    if query.func == "avg":
        return np.array(
            [row[attr_idx] for row in rel.rows if pred(row)], dtype=float
        )
    raise EstimationError(
        f"trans tables are defined for sum/count/avg, not {query.func!r}"
    )


def keyed_trans(
    rel: Relation, query, ratio: float, key
) -> dict:
    """Map view-key -> trans value (the row form of the diff table)."""
    pred = query.predicate.bind(rel.schema)
    key_idx = rel.schema.indexes(key)
    out = {}
    if query.func == "count":
        for row in rel.rows:
            out[tuple(row[i] for i in key_idx)] = (
                (1.0 / ratio) if pred(row) else 0.0
            )
        return out
    attr_idx = rel.schema.index(query.attr)
    scale = 1.0 / ratio if query.func == "sum" else 1.0
    for row in rel.rows:
        k = tuple(row[i] for i in key_idx)
        if pred(row):
            out[k] = row[attr_idx] * scale
        else:
            out[k] = 0.0
    return out


#: ``Relation.sample_cache()`` entry of a clean sample: ``(dirty sample,
#: key, alignment)``.  The alignment lives on the pair it describes and
#: is matched by identity, so a new clean sample (refresh, advance, a
#: published epoch) starts without one and nothing ever invalidates it.
_ALIGNMENT = "__svc_alignment__"


def _try_alignment(clean: Relation, dirty: Relation, key: Sequence[str]):
    """``(n_keys, clean_pos, dirty_pos)`` for a sample pair, or None.

    Row ``i`` of ``clean`` owns slot ``clean_pos[i]`` of the pair's
    ``n_keys``-slot key union, likewise ``dirty``; equal slots mean
    equal keys.  Computed once per (clean, dirty) pair and held on the
    clean sample.  None — also remembered — when the key columns do not
    factorize (see :func:`factorize_key_codes`) or a key repeats inside
    one sample, where the row path's dicts define the answer.
    """
    key = tuple(key)
    memo = clean.sample_cache()
    hit = memo.get(_ALIGNMENT)
    if hit is not None and hit[0] is dirty and hit[1] == key:
        return hit[2]
    alignment = None
    if key and all(k in clean.schema and k in dirty.schema for k in key):
        codes = factorize_key_codes(
            clean.columnar(), dirty.columnar(), key, key
        )
        if codes is not None:
            clean_pos, dirty_pos, n_keys = codes
            if len(np.unique(clean_pos)) == len(clean_pos) and len(
                np.unique(dirty_pos)
            ) == len(dirty_pos):
                alignment = (n_keys, clean_pos, dirty_pos)
    memo[_ALIGNMENT] = (dirty, key, alignment)
    return alignment


def _try_diff_columns(
    clean: Relation, dirty: Relation, query, ratio: float, key
):
    """The diff table as two scatters over the pair's alignment, or None."""
    clean_cols = _try_columns(clean, query)
    if clean_cols is None:
        return None
    dirty_cols = _try_columns(dirty, query)
    if dirty_cols is None:
        return None
    alignment = _try_alignment(clean, dirty, key)
    if alignment is None:
        return None
    n_keys, clean_pos, dirty_pos = alignment
    diffs = np.zeros(n_keys)
    diffs[clean_pos] = _keyed_columns(*clean_cols, query.func, ratio)
    diffs[dirty_pos] -= _keyed_columns(*dirty_cols, query.func, ratio)
    return diffs


def correspondence_subtract(
    clean: Relation, dirty: Relation, query, ratio: float, key
) -> np.ndarray:
    """The diff table trans(Ŝ') −̇ trans(Ŝ) of Def 4 (NULL → 0).

    One value per key of either sample; their order is unspecified
    (key-code order on the batch path, set order on the row path) and
    no caller depends on it.
    """
    if ratio:
        fast = _try_diff_columns(clean, dirty, query, ratio, key)
        if fast is not None:
            return fast
    clean_t = keyed_trans(clean, query, ratio, key)
    dirty_t = keyed_trans(dirty, query, ratio, key)
    keys = set(clean_t) | set(dirty_t)
    return np.array(
        [clean_t.get(k, 0.0) - dirty_t.get(k, 0.0) for k in keys], dtype=float
    )


def sum_se(values: np.ndarray, ratio: float, se_method: str = "ht") -> float:
    """Standard error of a Σ(trans) estimator (sum/count queries)."""
    k = len(values)
    if k == 0:
        return 0.0
    if se_method == "ht":
        return math.sqrt(max(0.0, float((1.0 - ratio) * (values ** 2).sum())))
    if se_method == "paper":
        if k < 2:
            return 0.0
        return float(values.std(ddof=1) * math.sqrt(k))
    raise EstimationError(f"unknown se_method {se_method!r}")


def mean_se(values: np.ndarray) -> float:
    """Standard error of a sample-mean estimator (avg queries)."""
    k = len(values)
    if k < 2:
        return float("inf") if k == 0 else 0.0
    return float(values.std(ddof=1) / math.sqrt(k))


def diff_se(
    diffs: np.ndarray, ratio: float, kind: str, se_method: str = "ht"
) -> float:
    """Standard error of a correction Σ(diff) or mean-difference."""
    if kind in ("sum", "count"):
        return sum_se(diffs, ratio, se_method)
    if kind == "avg":
        return mean_se(diffs)
    raise EstimationError(f"no diff-based SE for {kind!r}")


def break_even_covariance(
    stale_values: np.ndarray, fresh_values: np.ndarray
) -> Optional[float]:
    """§5.2.2: CORR beats AQP when  σ²_S ≤ 2·cov(S, S').

    Returns ``2·cov − σ²_S`` computed on corresponding value pairs
    (positive means CORR is preferred); None when undefined.
    """
    if len(stale_values) != len(fresh_values) or len(stale_values) < 2:
        return None
    cov = float(np.cov(stale_values, fresh_values, ddof=1)[0, 1])
    var_s = float(np.var(stale_values, ddof=1))
    return 2.0 * cov - var_s
