"""SVC core: sampling, push-down, cleaning, estimation, outlier indexing."""

from repro.core.bootstrap import BootstrapEstimate, bootstrap_aqp, bootstrap_corr
from repro.core.cleaning import (
    CorrespondenceCheck,
    SampleView,
    cleaning_expression,
)
from repro.core.confidence import (
    Estimate,
    break_even_covariance,
    correspondence_subtract,
    gaussian_z,
    trans_values,
)
from repro.core.estimators import (
    AggQuery,
    estimate_groups,
    partition,
    recommend_estimator,
    svc_aqp,
    svc_corr,
)
from repro.core.extremes import ExtremeEstimate, svc_max, svc_min
from repro.core.hashing import hash_sample, set_hash_family, unit_hash
from repro.core.outlier_index import (
    OutlierAugmentedSample,
    OutlierIndex,
    is_eligible,
    outlier_view_keys,
)
from repro.core.pushdown import (
    PushdownReport,
    hashed_leaves,
    push_down,
    push_down_with_report,
    push_filter,
)
from repro.core.select_queries import SelectResult, svc_select
from repro.core.svc import StaleViewCleaner

__all__ = [
    "AggQuery",
    "BootstrapEstimate",
    "CorrespondenceCheck",
    "Estimate",
    "ExtremeEstimate",
    "OutlierAugmentedSample",
    "OutlierIndex",
    "PushdownReport",
    "SampleView",
    "SelectResult",
    "StaleViewCleaner",
    "bootstrap_aqp",
    "bootstrap_corr",
    "break_even_covariance",
    "cleaning_expression",
    "correspondence_subtract",
    "estimate_groups",
    "gaussian_z",
    "hash_sample",
    "hashed_leaves",
    "is_eligible",
    "outlier_view_keys",
    "partition",
    "push_down",
    "push_down_with_report",
    "push_filter",
    "recommend_estimator",
    "set_hash_family",
    "svc_aqp",
    "svc_corr",
    "svc_max",
    "svc_min",
    "svc_select",
    "trans_values",
    "unit_hash",
]
