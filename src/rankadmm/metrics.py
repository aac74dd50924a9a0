"""Sign predictions of a linear classifier and their accuracy.

Labels and predictions are in {-1, +1}.
"""

from __future__ import annotations

import numpy as np


def predict(X, w: np.ndarray) -> np.ndarray:
    """Sign predictions in {-1, +1}; zero scores count as +1."""
    scores = np.asarray(X @ w).ravel()
    return np.where(scores >= 0, 1.0, -1.0)


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions).ravel()
    labels = np.asarray(labels).ravel()
    return float(np.mean(predictions == labels))
