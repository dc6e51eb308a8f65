"""Branch direction prediction (bimodal, per the paper's Table 2)."""

from .predictors import BimodalPredictor, PredictorStats

__all__ = ["BimodalPredictor", "PredictorStats"]
