"""repro — Stale View Cleaning (SVC), a VLDB 2015 reproduction.

Public API highlights:

* ``repro.algebra`` — relational algebra substrate (relations, expression
  trees, evaluation, key derivation, lineage).
* ``repro.db`` — database substrate (base relations, deltas, materialized
  views, change-table IVM).
* ``repro.core`` — the SVC contribution: hash sampling with push-down,
  stale sample view cleaning, SVC+AQP / SVC+CORR estimation with
  confidence intervals, bootstrap, min/max bounds, outlier indexing.
* ``repro.workloads`` — TPCD-Skew, complex views, data cube, Conviva-like
  log workloads used by the paper's evaluation.
* ``repro.distributed`` — the mini-batch cluster simulator for the
  Spark-based experiments.
* ``repro.serving`` — always-on serving: concurrent ingest + SVC query
  front end with epoch-pinned reads and freshness-budget scheduling.
* ``repro.experiments`` — harness regenerating every table and figure.
"""

from repro.algebra import (
    AggSpec,
    Aggregate,
    BaseRel,
    Hash,
    Join,
    Project,
    Relation,
    Schema,
    Select,
    col,
    evaluate,
    lit,
)
from repro.core import (
    AggQuery,
    Estimate,
    OutlierIndex,
    SampleView,
    StaleViewCleaner,
    svc_aqp,
    svc_corr,
)
from repro.db import Catalog, Database, MaterializedView
from repro.distributed.shard import get_shard_count, set_shard_count
from repro.serving import FreshnessSLA, ViewServer

__version__ = "1.0.0"

__all__ = [
    "AggQuery",
    "AggSpec",
    "Aggregate",
    "BaseRel",
    "Catalog",
    "Database",
    "Estimate",
    "FreshnessSLA",
    "Hash",
    "Join",
    "MaterializedView",
    "OutlierIndex",
    "Project",
    "Relation",
    "SampleView",
    "Schema",
    "Select",
    "StaleViewCleaner",
    "ViewServer",
    "__version__",
    "col",
    "evaluate",
    "get_shard_count",
    "lit",
    "set_shard_count",
    "svc_aqp",
    "svc_corr",
]
