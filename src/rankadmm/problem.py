"""Problem container: data, labels, loss, rank weights, regularizer.

The signed data operator is D = -diag(y) X, so D w holds the per-sample
margin values -y_i * (x_i . w).  The rank-weighted objective sorts those
margins (equivalently the losses, since the loss is monotone) ascending
and weights them by rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import weights as wgt
from .data_io import issparse
from .errors import DimensionError, InvalidParameterError
from .losses import LossKind, loss_value_vec
from .regularizers import RegularizerSpec, ZERO, reg_value

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Problem:
    """Immutable binary linear classification problem.

    X is dense (n, d) or CSR sparse; y has entries exactly -1 or +1.
    Operations are pure, so instances are safe to share across threads.
    """

    X: np.ndarray | sp.spmatrix
    y: np.ndarray
    loss: LossKind = LossKind.LOGISTIC
    weights: wgt.WeightScheme = field(default_factory=wgt.ERM)
    regularizer: RegularizerSpec = ZERO

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "y", y)
        if issparse(self.X):
            X = self.X.tocsr()
            if not np.all(np.isfinite(X.data)):
                raise InvalidParameterError("data matrix contains non-finite entries")
        else:
            X = np.atleast_2d(np.asarray(self.X, dtype=float))
            if not np.all(np.isfinite(X)):
                raise InvalidParameterError("data matrix contains non-finite entries")
        object.__setattr__(self, "X", X)
        n, d = X.shape
        if n < 1 or d < 1:
            raise DimensionError(f"need n >= 1 and d >= 1, got shape {X.shape}")
        if y.shape[0] != n:
            raise DimensionError(f"labels have length {y.shape[0]}, expected {n}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InvalidParameterError("labels must be exactly -1 or +1")
        object.__setattr__(self, "_resolved", wgt.resolve(self.weights, n))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def resolved_weights(self) -> wgt.ResolvedWeights:
        return self._resolved

    def apply_D(self, w: np.ndarray) -> np.ndarray:
        """Margins D w = -y * (X w)."""
        w = np.asarray(w, dtype=float).ravel()
        if w.shape[0] != self.d:
            raise DimensionError(f"w has length {w.shape[0]}, expected {self.d}")
        return -self.y * (self.X @ w)

    def rank_loss(self, z: np.ndarray) -> float:
        """Weighted sum of sorted losses at margin vector z."""
        return rank_loss_value(z, self._resolved, self.loss)

    def objective(self, w: np.ndarray) -> float:
        """Rank-weighted loss at the margins of w plus the penalty."""
        return self.rank_loss(self.apply_D(w)) + reg_value(self.regularizer, w)


def rank_loss_value(z: np.ndarray, resolved: wgt.ResolvedWeights, kind: LossKind) -> float:
    """Sigma-weighted sum of ascending-sorted losses of the margins z.

    The value-dependent scheme evaluates its weights on the sorted margins
    themselves.  The sum does not depend on how ties are ordered: tied
    losses are equal (losses are never -0.0), and so are the losses and
    weights of tied margins, so any sort algorithm gives the same value.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != resolved.n:
        raise DimensionError(f"z has length {z.shape[0]}, expected {resolved.n}")
    return sorted_rank_loss(np.sort(z), resolved, kind)


def sorted_rank_loss(
    z_sorted: np.ndarray, resolved: wgt.ResolvedWeights, kind: LossKind
) -> float:
    """:func:`rank_loss_value` of margins already in ascending order.

    The losses of ascending margins ascend, as the loss is nondecreasing;
    where rounding breaks that order they are sorted, so the value equals
    the sum over the sorted losses bit for bit.
    """
    losses = loss_value_vec(kind, z_sorted)
    if resolved.is_value_dependent:
        return float(resolved.sigma_for(z_sorted) @ losses)
    if np.any(losses[1:] < losses[:-1]):
        losses.sort()
    return float(resolved.sigma @ losses)
