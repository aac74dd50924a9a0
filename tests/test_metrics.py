import numpy as np
import pytest

from rankadmm.metrics import accuracy, predict


def test_predict_signs():
    X = np.array([[1.0], [-2.0], [0.0]])
    assert predict(X, np.array([1.0])) == pytest.approx([1.0, -1.0, 1.0])


def test_accuracy():
    assert accuracy(np.array([1, -1, 1, 1]), np.array([1, -1, -1, 1])) == pytest.approx(0.75)
