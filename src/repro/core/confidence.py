"""Confidence machinery for sample-mean queries — paper §5.2.1.

The paper rewrites a predicated aggregate into a *trans* table (predicate
folded into the selected expression, scaled by 1/m), bounds SVC+AQP with
the CLT on the trans values, and bounds SVC+CORR on the *diff* table
built with the correspondence-subtract operator −̇ (Def 4): a full outer
join of the clean and dirty trans tables on the view key with NULLs read
as zero.  Both live in one :class:`DiffTable` per estimate.

Variance estimators
-------------------
A Σ(trans) estimator uses the Horvitz–Thompson variance estimate for
hash (Poisson) sampling, ``Var̂(Σt) = Σ_sample (1−m)·t_i²``, which
accounts for the random sample size (the paper's SQL formula
``stdev(trans)/sqrt(count)`` is the CI of the *mean* of the trans values
and collapses to zero width on constant data); a mean uses its sample
standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.algebra.columnar import dense, key_groups, pack
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
# cached columnar form; the row loops below compute the same, as the
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
    """The trans value of every row of one kernel result."""
    if func == "count":
        return np.where(mask, 1.0 / ratio, 0.0)
    if func == "sum":
        return np.where(mask, values / ratio, 0.0)
    return np.where(mask, values, 0.0).astype(float, copy=False)


def _row_side(rel: Relation, query, ratio: float):
    """``(t, hit)`` of one relation by the row loop — the oracle."""
    pred = query.predicate.bind(rel.schema)
    attr = None if query.func == "count" else rel.schema.index(query.attr)
    t, hit = [], []
    for row in rel.rows:
        matched = bool(pred(row))
        hit.append(matched)
        if not matched:
            t.append(0.0)
        elif attr is None:
            t.append(1.0 / ratio)
        elif query.func == "sum":
            t.append(row[attr] / ratio)
        else:
            t.append(row[attr])
    return np.array(t, dtype=float), np.array(hit, dtype=bool)


#: ``Relation.sample_cache()`` entry of a clean sample: ``(dirty sample,
#: key, alignment)``.  The alignment lives on the pair it describes and
#: is matched by identity, so a new clean sample (refresh, advance, a
#: published epoch) starts without one and nothing ever invalidates it.
_ALIGNMENT = "__svc_alignment__"


def _try_alignment(clean: Relation, dirty: Relation, key: Sequence[str]):
    """``(n_keys, clean_pos, dirty_pos)`` for a sample pair, or None.

    Row ``i`` of ``clean`` owns slot ``clean_pos[i]`` of the pair's
    ``n_keys``-slot key union, likewise ``dirty``; equal slots mean
    equal keys, and slots are numbered by first appearance, as
    :func:`_row_alignment` numbers them.  Computed once per (clean,
    dirty) pair and held on the clean sample.  None — also remembered —
    when the key coder refuses the key columns (see
    :func:`repro.algebra.columnar.pack`) or a key repeats inside one
    sample, where the row path's dicts define the answer.
    """
    key = tuple(key)
    memo = clean.sample_cache()
    hit = memo.get(_ALIGNMENT)
    if hit is not None and hit[0] is dirty and hit[1] == key:
        return hit[2]
    alignment = None
    if key and all(k in clean.schema and k in dirty.schema for k in key):
        packed = pack([clean.columnar().arrays(key), dirty.columnar().arrays(key)])
        if packed is not None:
            ids, first = dense(packed[0])
            clean_pos, dirty_pos = ids[:len(clean)], ids[len(clean):]
            # First-appearance ids: clean's keys are distinct exactly
            # when they take the first len(clean) ids.
            if (not len(clean) or clean_pos[-1] == len(clean) - 1) and (
                    np.bincount(dirty_pos).max(initial=0) <= 1):
                alignment = (len(first), clean_pos, dirty_pos)
    memo[_ALIGNMENT] = (dirty, key, alignment)
    return alignment


def _row_alignment(clean: Relation, dirty: Relation, key):
    """:func:`_try_alignment` by a dict: slots in first-appearance order."""
    slots: dict = {}
    pos = []
    for rel in (clean, dirty):
        idx = rel.schema.indexes(key)
        pos.append(np.array(
            [slots.setdefault(tuple(row[i] for i in idx), len(slots))
             for row in rel.rows], dtype=np.intp,
        ))
    return len(slots), pos[0], pos[1]


def _shared_group_ids(rels: Sequence[Relation], group_by: Sequence[str]):
    """Per-relation group ids over one numbering, and the group keys.

    Groups are numbered by first appearance, relation after relation,
    by the one key coder (:func:`repro.algebra.columnar.key_groups`), so
    keys match as the row path's dict matches them.
    """
    for rel in rels:
        rel.schema.indexes(group_by)
    ids, columns = key_groups([rel.columnar() for rel in rels], group_by)
    bounds = np.cumsum([len(rel) for rel in rels])[:-1]
    return np.split(ids, bounds), list(zip(*[c.tolist() for c in columns]))


def _row_group_ids(rels: Sequence[Relation], group_by: Sequence[str]):
    """:func:`_shared_group_ids` by the row loop."""
    index: dict = {}
    gids = []
    for rel in rels:
        idx = rel.schema.indexes(group_by)
        gids.append(np.array(
            [index.setdefault(tuple(row[i] for i in idx), len(index))
             for row in rel.rows], dtype=np.intp,
        ))
    return gids, list(index)


def _group_exact(cols, gid: np.ndarray, n_groups: int, func: str) -> np.ndarray:
    """``AggQuery.evaluate`` for every group; 0 for a group not in it.

    Integer and bool sums stay in integers, like the row path's.
    """
    mask, values = cols
    matched = gid[mask]
    counts = np.bincount(matched, minlength=n_groups)
    if func == "count":
        return counts.astype(float)
    if values.dtype.kind == "f":
        sums = np.bincount(matched, weights=values[mask], minlength=n_groups)
    else:
        sums = np.zeros(n_groups, dtype=np.int64)
        np.add.at(sums, matched, values[mask].astype(np.int64))
    if func == "sum":
        return sums.astype(float)
    out = np.array(
        [s / k if k else float("nan")
         for s, k in zip(sums.tolist(), counts.tolist())],
        dtype=float,
    )
    out[np.bincount(gid, minlength=n_groups) == 0] = 0.0
    return out


# ----------------------------------------------------------------------
# The aligned table.  Every sample-mean estimate — SVC+AQP, SVC+CORR,
# per group, with the outlier stratum, and the §5.2.2 selection — is a
# reduction of one DiffTable: trans(Ŝ') and trans(Ŝ) row by row, each
# row's key slot in the key union of the two samples, and its group.
# The batch kernel builds it from cached columns; the row loops build
# the same table and are the oracle (``set_columnar_enabled(False)``).
# ----------------------------------------------------------------------
class Side(NamedTuple):
    """One sample's rows of a :class:`DiffTable`, in row order."""

    t: np.ndarray    # v/m (sum), 1/m (count), v (avg); 0 off the predicate
    hit: np.ndarray  # the row satisfies the predicate
    gid: Optional[np.ndarray]  # its group; None: the table has one group
    pos: Optional[np.ndarray]  # its key's slot; None without a dirty side


class DiffTable(NamedTuple):
    """trans(Ŝ') and trans(Ŝ) aligned on the view key (§5.1, Def 4).

    Every row weighs 1/m, m the inclusion probability ``ratio``: the
    sampling ratio, or 1 for the exact outlier stratum (§6.3).
    ``stale_value`` is q(S) per group when the stale view was given.
    """

    func: str
    ratio: float
    fresh: Side
    stale: Optional[Side]
    n_slots: int
    groups: list
    stale_value: Optional[np.ndarray] = None


def diff_table(query, ratio: float, clean: Relation,
               dirty: Optional[Relation] = None, key: Sequence[str] = (),
               group_by: Sequence[str] = (),
               stale_view: Optional[Relation] = None) -> DiffTable:
    """The table of one estimate; ``dirty`` None for SVC+AQP.

    One group without ``group_by``; the groups of Ŝ', Ŝ and the stale
    view otherwise, whose q(S) per group the table then carries.
    """
    if query.func not in ("sum", "count", "avg"):
        raise EstimationError(
            f"trans tables are defined for sum/count/avg, not {query.func!r}"
        )
    table = _try_table(query, ratio, clean, dirty, key, group_by, stale_view)
    if table is not None:
        return table
    rels = [rel for rel in (clean, dirty, stale_view) if rel is not None]
    if group_by:
        gids, groups = _row_group_ids(rels, group_by)
    else:
        gids, groups = [None] * len(rels), [()]
    stale_value = None
    if stale_view is not None:
        parts: list = [[] for _ in groups]
        for row, g in zip(stale_view.rows, gids[-1].tolist() if group_by
                          else [0] * len(stale_view)):
            parts[g].append(row)
        stale_value = np.array([
            query.evaluate(Relation(stale_view.schema, rows)) if rows else 0.0
            for rows in parts
        ])
    sides = [_row_side(rel, query, ratio) for rel in (clean, dirty)
             if rel is not None]
    n_slots, *pos = (
        _row_alignment(clean, dirty, key) if dirty is not None else (0, None)
    )
    return _table(query.func, ratio, sides, gids, pos, n_slots, groups, stale_value)


def _try_table(query, ratio, clean, dirty, key, group_by, stale_view):
    """:func:`diff_table` on the batch kernel, or None for the row loops."""
    if not ratio:
        return None  # the row loop raises ZeroDivisionError
    rels = [rel for rel in (clean, dirty, stale_view) if rel is not None]
    kernel = []
    for rel in rels:
        cols = _try_columns(rel, query)
        if cols is None:
            return None
        kernel.append(cols)
    n_slots, *pos = 0, None
    if dirty is not None:
        alignment = _try_alignment(clean, dirty, key) if key else None
        if alignment is None:
            return None
        n_slots, *pos = alignment
    if group_by:
        gids, groups = _shared_group_ids(rels, group_by)
    else:
        gids, groups = [None] * len(rels), [()]
    stale_value = None
    if stale_view is not None:
        gid = gids[-1] if group_by else np.zeros(len(stale_view), np.intp)
        stale_value = _group_exact(kernel[-1], gid, len(groups), query.func)
    sides = [(_trans_columns(mask, values, query.func, ratio), mask)
             for mask, values in kernel[:1 + (dirty is not None)]]
    return _table(query.func, ratio, sides, gids, pos, n_slots, groups, stale_value)


def _table(func, ratio, sides, gids, pos, n_slots, groups, stale_value):
    """Assemble a :class:`DiffTable` from either builder's pieces."""
    built = [Side(t, hit, gid, p) for (t, hit), gid, p in zip(sides, gids, pos)]
    return DiffTable(func, ratio, built[0],
                     built[1] if len(built) > 1 else None, n_slots, groups,
                     stale_value)


def diff_entries(table: DiffTable):
    """The diff table trans(Ŝ') −̇ trans(Ŝ) of Def 4: ``(groups, values)``.

    One entry per key slot, t' − t with a missing side read as 0 — but a
    key whose row changed group between the samples is two entries, t'
    in its new group and −t in its old one.  A key repeated inside one
    sample (row builder only) keeps its last row, as a dict would.
    """
    fresh, stale = table.fresh, table.stale
    values = np.zeros(table.n_slots)
    values[fresh.pos] = fresh.t
    if fresh.gid is None:  # one group: no key can change group
        values[stale.pos] -= stale.t
        return None, values
    group = np.full(table.n_slots, -1, dtype=np.intp)
    group[fresh.pos] = fresh.gid
    moved = (group[stale.pos] >= 0) & (group[stale.pos] != stale.gid)
    kept = stale.pos[~moved]
    values[kept] -= stale.t[~moved]
    group[kept] = stale.gid[~moved]
    return (np.concatenate([group, stale.gid[moved]]),
            np.concatenate([values, -stale.t[moved]]))


# ----------------------------------------------------------------------
# Per-group reductions over group ids ``gid``, ``n`` groups.  gid None
# is one group, reduced pairwise as ndarray.sum and ndarray.std do; more
# groups reduce by bincount.
# ----------------------------------------------------------------------
def group_sums(gid: Optional[np.ndarray], x: np.ndarray, n: int) -> np.ndarray:
    """Per-group sums of ``x``."""
    if gid is None:
        return x.sum(keepdims=True)
    return np.bincount(gid, weights=x, minlength=n)


def group_mean(gid: Optional[np.ndarray], x: np.ndarray, n: int):
    """Per-group ``(count, mean)`` of ``x``; an empty group's mean is NaN."""
    k = np.array([len(x)]) if gid is None else np.bincount(gid, minlength=n)
    return k, np.divide(group_sums(gid, x, n), k, out=np.full(len(k), np.nan),
                        where=k > 0)


def group_spread(gid: Optional[np.ndarray], x: np.ndarray, n: int):
    """Per-group ``(count, mean, sum of squared deviations)`` of ``x``."""
    k, mean = group_mean(gid, x, n)
    dev = x - (mean[0] if gid is None else mean[gid])
    return k, mean, group_sums(gid, dev * dev, n)


def ht_se(gid: Optional[np.ndarray], t: np.ndarray, n: int,
          ratio: float) -> np.ndarray:
    """Per-group Horvitz–Thompson SE of Σt: ``sqrt(Σ (1−m)·t²)``."""
    return np.sqrt(np.fmax(0.0, (1.0 - ratio) * group_sums(gid, t * t, n)))


def spread_se(k: np.ndarray, ssd: np.ndarray) -> np.ndarray:
    """Per-group SE of a mean: inf when empty, 0 for one value."""
    var = np.divide(ssd, k - 1, out=np.zeros(len(k)), where=k > 1)
    return np.divide(np.sqrt(var), np.sqrt(k), out=np.full(len(k), np.inf),
                     where=k > 0)


def trans_values(rel: Relation, query, ratio: float) -> np.ndarray:
    """The paper's trans-table values for one sample relation.

    * sum:   (1/m) · attr · cond  over every sample row;
    * count: (1/m) · cond         over every sample row;
    * avg:   attr                 over rows satisfying cond.
    """
    fresh = diff_table(query, ratio, rel).fresh
    return fresh.t[fresh.hit] if query.func == "avg" else fresh.t


def correspondence_subtract(
    clean: Relation, dirty: Relation, query, ratio: float, key
) -> np.ndarray:
    """The values of the diff table trans(Ŝ') −̇ trans(Ŝ) (Def 4).

    One value per key of either sample, in key-slot order.
    """
    return diff_entries(diff_table(query, ratio, clean, dirty, key))[1]


def sum_se(values: np.ndarray, ratio: float) -> float:
    """Horvitz–Thompson SE of a Σ(trans) estimator (sum/count queries)."""
    return float(ht_se(None, values, 1, ratio)[0])


def mean_se(values: np.ndarray) -> float:
    """Standard error of a sample-mean estimator (avg queries)."""
    k, _, ssd = group_spread(None, values, 1)
    return float(spread_se(k, ssd)[0])


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
