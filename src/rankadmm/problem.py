"""Problem container: data, labels, loss, rank weights, regularizer.

The signed data operator is D = -diag(y) X, so D w holds the per-sample
margin values -y_i * (x_i . w).  The rank-weighted objective sorts those
margins (equivalently the losses, since the loss is monotone) ascending
and weights them by rank.
"""

from __future__ import annotations

import math
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
    Constant weights evaluate the losses only around their band
    (:func:`sorted_rank_loss`).
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != resolved.n:
        raise DimensionError(f"z has length {z.shape[0]}, expected {resolved.n}")
    return sorted_rank_loss(np.sort(z), resolved, kind)


#: How far, in units of 1 + |z|, the loss window reaches past the margin
#: at each edge of the weights' band.  Margins that far apart keep the
#: order of their rounded losses: the logistic loss grows by a factor of at
#: least exp(dz / (2 (1 + |z|))) over dz, here 1 + 2**-33 (about 2**19
#: ulps), while numpy's logaddexp is accurate to a few ulps; the hinge loss
#: max(0, 1 + z) is exactly monotone in floating point.
_WINDOW_SLACK = 2.0**-32
#: Below this margin a logistic loss may be near or below the subnormal
#: range, where its error is absolute: half an ulp there covers margins
#: 1e-3 and more apart, so a window edge here runs to the end of the array.
_TINY_LOSS_MARGIN = -700.0


def sorted_rank_loss(
    z_sorted: np.ndarray, resolved: wgt.ResolvedWeights, kind: LossKind
) -> float:
    """:func:`rank_loss_value` of margins already in ascending order.

    The losses of ascending margins ascend, as the loss is nondecreasing;
    where rounding breaks that order they are sorted, so the value equals
    the sum over the sorted losses bit for bit.

    Constant weights evaluate the losses only on a window of the margins:
    those within a small slack of the margins at the ends of the weights'
    ``band``, and all between.  Everywhere else the loss vector holds +0.0.
    The window is the exact answer, not an approximation: a loss below the
    window is no larger than any loss at or above the band's first margin,
    and one above it no smaller than any at or below the band's last
    margin (the accuracy assumption of ``_WINDOW_SLACK``), so sorting the
    window puts the same values on the band's ranks as sorting every loss.
    Outside the band each product sigma_i * loss_i is +0.0 either way (the
    losses of finite margins are finite), and the one full-length dot
    sums the same products.  A margin at which a loss may be subnormal, or
    a non-finite margin, widens the window to the end of the array;
    weights with no zero band get a window over every margin.
    """
    if resolved.is_value_dependent:
        return float(resolved.sigma_for(z_sorted) @ loss_value_vec(kind, z_sorted))
    lo, hi = _loss_window(z_sorted, resolved.band)
    losses = np.zeros(resolved.n)
    window = losses[lo:hi]
    window[:] = loss_value_vec(kind, z_sorted[lo:hi])
    if (window[1:] < window[:-1]).any():
        window.sort()
    return float(resolved.sigma @ losses)


def _loss_window(z_sorted: np.ndarray, band: tuple[int, int]) -> tuple[int, int]:
    """The slice lo:hi of ascending margins whose losses the band needs."""
    n = z_sorted.shape[0]
    if not (math.isfinite(z_sorted[0]) and math.isfinite(z_sorted[-1])):
        return 0, n
    a, b = band
    if a == b:
        return 0, 0
    lo, hi = 0, n
    if b < n:
        top = float(z_sorted[b - 1])
        if top >= _TINY_LOSS_MARGIN:
            hi = int(z_sorted.searchsorted(top + _WINDOW_SLACK * (1.0 + abs(top)), "right"))
    if a > 0:
        bottom = float(z_sorted[a])
        if bottom >= _TINY_LOSS_MARGIN:
            lo = int(z_sorted.searchsorted(bottom - _WINDOW_SLACK * (1.0 + abs(bottom)), "left"))
    return lo, hi
