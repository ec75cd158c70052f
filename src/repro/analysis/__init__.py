"""Boot-report metrics, experiment table formatting, and the closed-form
boot-time predictor (see ``docs/analysis.md``)."""

from repro.analysis.metrics import BootReport, StageBreakdown, speedup
from repro.analysis.predict import (BootPrediction, SweepPredictor, predict,
                                    predict_job)
from repro.analysis.report import ComparisonTable, format_table

__all__ = [
    "BootPrediction",
    "BootReport",
    "ComparisonTable",
    "StageBreakdown",
    "SweepPredictor",
    "format_table",
    "predict",
    "predict_job",
    "speedup",
]
