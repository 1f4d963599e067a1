"""Analysis helpers: curve comparison, accuracy campaigns, row buffers."""

from __future__ import annotations

from .compare import FamilyComparison, compare_families
from .error import (
    AccuracyReport,
    WorkloadError,
    accuracy_workloads,
    run_accuracy_campaign,
)
from .rowbuffer import RowBufferCensus, census_from_controller, census_sweep

__all__ = [
    "AccuracyReport",
    "FamilyComparison",
    "RowBufferCensus",
    "WorkloadError",
    "accuracy_workloads",
    "census_from_controller",
    "census_sweep",
    "compare_families",
    "run_accuracy_campaign",
]
