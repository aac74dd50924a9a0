"""Rank-weight schemes.

Every scheme resolves, for a sample size n, the weight vector sigma that
multiplies the ascending-sorted per-sample losses.  Spectral schemes
integrate a density over the rank bins [(i-1)/n, i/n]; the prospect-theory
scheme produces weights that depend on the sorted margin values themselves
and is therefore resolved to a pair of branch vectors plus a reference
point.

This module is the one catalogue of schemes: ``SCHEMES`` maps each name (a
benchmark plan's ``kind``, a CLI ``--scheme`` choice) to its class.  A
class's fields are the scheme's parameters, its ``__post_init__`` checks
them and its field defaults are the only defaults.  Plan entries are
parsed in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError

_SUM_TOL = 1e-12


def cpt_omega(p: float, exponent: float) -> float:
    """Probability weighting p^g / (p^g + (1-p)^g)^(1/g)."""
    if exponent <= 0:
        raise InvalidParameterError(f"exponent must be > 0, got {exponent}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    pg = p**exponent
    qg = (1.0 - p) ** exponent
    return pg / (pg + qg) ** (1.0 / exponent)


@dataclass(frozen=True)
class ERM:
    def resolve(self, n: int) -> np.ndarray:
        """Uniform weights 1/n (unit density)."""
        return np.full(n, 1.0 / n)


@dataclass(frozen=True)
class Superquantile:
    q: float

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise InvalidParameterError(f"superquantile level must be in [0, 1), got {self.q}")

    def resolve(self, n: int) -> np.ndarray:
        """Bin integrals of the density 1_{[q,1]}(t) / (1 - q).

        Averages the worst (1-q)-fraction of losses; q = 0 recovers ERM.
        """
        i = np.arange(1, n + 1, dtype=float)
        upper = i / n
        lower = np.maximum(self.q, (i - 1) / n)
        return np.maximum(0.0, upper - lower) / (1.0 - self.q)


@dataclass(frozen=True)
class Extremile:
    order: float

    def __post_init__(self):
        if not (1.0 <= self.order < math.inf):
            raise InvalidParameterError(
                f"extremile order must be finite and >= 1, got {self.order}"
            )

    def resolve(self, n: int) -> np.ndarray:
        """Bin integrals of the density order * t^(order-1).

        Orders below 1 would make the weights decreasing in rank, which
        breaks the nondecreasing-weight contract, so they are rejected.
        """
        i = np.arange(0, n + 1, dtype=float) / n
        cdf = i**self.order
        return np.diff(cdf)


@dataclass(frozen=True)
class ESRM:
    risk: float

    def __post_init__(self):
        if not (0.0 < self.risk < math.inf):
            raise InvalidParameterError(f"esrm risk must be finite and > 0, got {self.risk}")

    def resolve(self, n: int) -> np.ndarray:
        """Bin integrals of the exponential density risk*e^{risk(t-1)}/(1-e^{-risk})."""
        t = np.arange(0, n + 1, dtype=float) / n
        cdf = np.exp(self.risk * (t - 1.0))
        return np.diff(cdf) / (1.0 - math.exp(-self.risk))


@dataclass(frozen=True)
class HumanAligned:
    a: float = 0.4
    b: float = 0.6

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise InvalidParameterError(f"a must be in (0, 1), got {self.a}")
        if not math.isfinite(self.b):
            raise InvalidParameterError(f"b must be finite, got {self.b}")

    def resolve(self, n: int) -> np.ndarray:
        """Weights w_{a,b}(i/n) from the S-shaped reweighting polynomial

            w_{a,b}(t) = (3 - 3b) / (a^2 - a + 1) * (3t^2 - 2(a+1)t + a) + 1.

        These need not be nondecreasing or normalized; the module-level
        ``resolve`` rejects parameters that make any weight negative.
        """
        a, b = self.a, self.b
        t = np.arange(1, n + 1, dtype=float) / n
        coeff = (3.0 - 3.0 * b) / (a * a - a + 1.0)
        return coeff * (3.0 * t * t - 2.0 * (a + 1.0) * t + a) + 1.0


@dataclass(frozen=True)
class CPTValueDependent:
    """Two-sided prospect-theory weights around reference point B.

    B is compared against the margin value -y_i * (x_i . w), not against
    the loss; for the logistic loss, margin <= B is equivalent to
    loss <= log(1 + e^B).
    """

    gamma: float = 0.61
    delta: float = 0.69
    B: float = -5.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise InvalidParameterError(f"gamma must be in (0, 1], got {self.gamma}")
        if not (0.0 < self.delta <= 1.0):
            raise InvalidParameterError(f"delta must be in (0, 1], got {self.delta}")
        if not math.isfinite(self.B):
            raise InvalidParameterError(f"reference point B must be finite, got {self.B}")

    def branch_vectors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(sigma_low, sigma_high): weights per rank for values at/below
        and above the reference point.

        Values at or below B take successive differences of the
        pessimistic weighting (exponent delta); values above take the
        optimistic differences (exponent gamma) counted from the top.
        """
        grid = (np.arange(0, n + 1, dtype=float) / n).tolist()
        low = np.diff([cpt_omega(p, self.delta) for p in grid])
        high = np.diff([cpt_omega(p, self.gamma) for p in grid])[::-1].copy()
        return low, high


@dataclass(frozen=True)
class AoRR:
    k: int
    m: int

    def __post_init__(self):
        if not (1 <= self.m < self.k):
            raise InvalidParameterError(f"need 1 <= m < k, got k={self.k}, m={self.m}")

    def resolve(self, n: int) -> np.ndarray:
        """Ranked-range weights: average of the losses ranked between the
        m-th and k-th largest.

        On descending-sorted losses the weight is 1/(k-m) for ranks
        m+1..k; our convention sorts ascending, so the vector is reversed:
        ascending positions n-k+1 .. n-m carry 1/(k-m).
        """
        k, m = self.k, self.m
        if k > n:
            raise InvalidParameterError(f"need 1 <= m < k <= n, got k={k}, m={m}, n={n}")
        sigma = np.zeros(n)
        sigma[n - k : n - m] = 1.0 / (k - m)
        return sigma


@dataclass(frozen=True)
class Explicit:
    sigma: tuple[float, ...]

    def __init__(self, sigma: Sequence[float]):
        object.__setattr__(self, "sigma", tuple(float(s) for s in sigma))
        if not all(0.0 <= s < math.inf for s in self.sigma):
            raise InvalidParameterError("explicit weights must be finite and nonnegative")

    def resolve(self, n: int) -> np.ndarray:
        if n != len(self.sigma):
            raise InvalidParameterError(
                f"explicit weights have length {len(self.sigma)}, need {n}"
            )
        return np.asarray(self.sigma, dtype=float)


WeightScheme = (
    ERM | Superquantile | Extremile | ESRM | HumanAligned | CPTValueDependent | AoRR | Explicit
)

_SPECTRAL = (ERM, Superquantile, Extremile, ESRM)


@dataclass(frozen=True)
class ResolvedWeights:
    """Weights fixed to a sample size.

    For constant schemes ``sigma`` holds the vector and the branch fields
    are None.  For the value-dependent scheme ``sigma`` is None and the
    branch vectors plus reference point drive per-value evaluation.

    Construction checks, once, that each weight column has length n and
    holds finite, nonnegative values, and that a reference point is
    finite; it stores the columns as read-only float copies.
    """

    n: int
    sigma: np.ndarray | None
    sigma_low: np.ndarray | None = None
    sigma_high: np.ndarray | None = None
    reference: float | None = None

    def __post_init__(self):
        names = ("sigma_low", "sigma_high") if self.sigma is None else ("sigma",)
        for name in names:
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (self.n,):
                raise InvalidParameterError(
                    f"{name} has shape {col.shape}, expected ({self.n},)"
                )
            finite = np.isfinite(col)
            if not finite.all():
                raise InvalidParameterError(f"weights must be finite, got {col[~finite][0]:g}")
            if np.any(col < 0.0):
                raise InvalidParameterError(
                    f"weights must be nonnegative, min weight {col.min():g}"
                )
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if self.sigma is None:
            if self.reference is None or not math.isfinite(self.reference):
                raise InvalidParameterError(
                    f"reference point must be finite, got {self.reference}"
                )
            object.__setattr__(self, "reference", float(self.reference))

    @property
    def is_value_dependent(self) -> bool:
        return self.sigma is None

    def sigma_for(self, z_sorted: np.ndarray) -> np.ndarray:
        """Weight vector for ascending-sorted margin values."""
        if not self.is_value_dependent:
            return self.sigma
        return np.where(z_sorted <= self.reference, self.sigma_low, self.sigma_high)


def resolve(scheme: WeightScheme, n: int) -> ResolvedWeights:
    """Fix a weight scheme to sample size n, validating scheme invariants."""
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    if isinstance(scheme, CPTValueDependent):
        columns = (None, *scheme.branch_vectors(n), scheme.B)
    else:
        columns = (scheme.resolve(n),)
    try:
        resolved = ResolvedWeights(n, *columns)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{type(scheme).__name__} {exc} at n={n}") from None
    if isinstance(scheme, _SPECTRAL):
        total = float(resolved.sigma.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidParameterError(f"spectral weights sum to {total}, expected 1")
        if np.any(np.diff(resolved.sigma) < -_SUM_TOL):
            raise InvalidParameterError("spectral weights must be nondecreasing")
    return resolved


#: Scheme name -> class; the parameters of a scheme are its fields.
SCHEMES = {
    "erm": ERM,
    "superquantile": Superquantile,
    "extremile": Extremile,
    "esrm": ESRM,
    "human_aligned": HumanAligned,
    "cpt": CPTValueDependent,
    "aorr": AoRR,
    "explicit": Explicit,
}
