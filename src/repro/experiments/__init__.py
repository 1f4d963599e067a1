"""One module per paper table/figure; see :mod:`repro.experiments.registry`."""

from __future__ import annotations

from .base import ExperimentResult, scaled
from .registry import (
    SPECS,
    ExperimentSpec,
    experiment_ids,
    get_spec,
    register,
    run_experiment,
    validate_options,
)

__all__ = [
    "SPECS",
    "ExperimentResult",
    "ExperimentSpec",
    "experiment_ids",
    "get_spec",
    "register",
    "run_experiment",
    "scaled",
    "validate_options",
]
