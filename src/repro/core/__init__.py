"""Core Mess abstractions: curves, metrics, stress scoring, simulator."""

from __future__ import annotations

from .builder import CurveBuilder, MeasurementPoint
from .controller import PIController
from .curve import BandwidthLatencyCurve
from .family import CurveFamily
from .metrics import MemorySystemMetrics, SATURATION_FACTOR, compute_metrics
from .simulator import DEFAULT_WINDOW_OPS, MessMemorySimulator
from .stress import StressScorer, default_scorer

__all__ = [
    "BandwidthLatencyCurve",
    "CurveBuilder",
    "CurveFamily",
    "DEFAULT_WINDOW_OPS",
    "MeasurementPoint",
    "MemorySystemMetrics",
    "MessMemorySimulator",
    "PIController",
    "SATURATION_FACTOR",
    "StressScorer",
    "compute_metrics",
    "default_scorer",
]
