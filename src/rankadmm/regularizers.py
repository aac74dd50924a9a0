"""Weakly convex regularizers: values, proximal maps, smoothed envelopes.

Conventions: the l1 penalty is (mu/2)*||w||_1 and the l2 penalty is
(mu/2)*||w||^2, so reported objective values are directly comparable
across regularizers.  The concave penalties carry their usual weak
convexity moduli: 1/theta for the minimax concave penalty and
1/(theta - 1) for the smoothly clipped deviation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, store_floats

MOREAU_CURVATURE_LIMIT = 1.0 / 3.0


@dataclass(frozen=True)
class RegularizerSpec:
    """One of: zero | l2 | l1 | mcp | scad, with strength mu (all but zero)
    and shape theta (mcp and scad)."""

    variant: str = "zero"
    mu: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        v = self.variant
        if v not in ("zero", "l2", "l1", "mcp", "scad"):
            raise InvalidParameterError(f"unknown regularizer {v!r}")
        if v != "zero" and not (0 < self.mu < math.inf):
            raise InvalidParameterError(f"{v} needs a finite mu > 0, got {self.mu}")
        # an infinite theta would put inf - inf into the prox
        if v == "mcp" and not (1 < self.theta < math.inf):
            raise InvalidParameterError(f"mcp needs a finite theta > 1, got {self.theta}")
        if v == "scad" and not (2 < self.theta < math.inf):
            raise InvalidParameterError(f"scad needs a finite theta > 2, got {self.theta}")
        # A parameter the variant does not read is stored as 0, so specs
        # that differ only in an unused value compare equal.
        if v == "zero":
            object.__setattr__(self, "mu", 0.0)
        if v in ("zero", "l1", "l2"):
            object.__setattr__(self, "theta", 0.0)
        store_floats(self, "mu", "theta")

    @property
    def weak_convexity_c(self) -> float:
        if self.variant == "mcp":
            return 1.0 / self.theta
        if self.variant == "scad":
            return 1.0 / (self.theta - 1.0)
        return 0.0


ZERO = RegularizerSpec("zero")


def l2(mu: float) -> RegularizerSpec:
    return RegularizerSpec("l2", mu=mu)


def l1(mu: float) -> RegularizerSpec:
    return RegularizerSpec("l1", mu=mu)


def mcp(mu: float, theta: float) -> RegularizerSpec:
    return RegularizerSpec("mcp", mu=mu, theta=theta)


def scad(mu: float, theta: float) -> RegularizerSpec:
    return RegularizerSpec("scad", mu=mu, theta=theta)


def reg_value(spec: RegularizerSpec, w: np.ndarray) -> float:
    """Penalty value; separable over coordinates."""
    w = np.asarray(w, dtype=float)
    if spec.variant == "zero":
        return 0.0
    if spec.variant == "l2":
        return 0.5 * spec.mu * float(w @ w)
    if spec.variant == "l1":
        return 0.5 * spec.mu * float(np.abs(w).sum())
    a = np.abs(w)
    mu, th = spec.mu, spec.theta
    if spec.variant == "mcp":
        terms = np.where(a <= th * mu, mu * a - a * a / (2.0 * th), 0.5 * th * mu * mu)
    else:
        quad = (2.0 * th * mu * a - a * a - mu * mu) / (2.0 * (th - 1.0))
        terms = np.where(
            a <= mu, mu * a, np.where(a <= th * mu, quad, 0.5 * (th + 1.0) * mu * mu)
        )
    return float(terms.sum())


def reg_subgradient(spec: RegularizerSpec, w: np.ndarray) -> np.ndarray:
    """A subgradient, taking 0 at nonsmooth points (coordinatewise)."""
    w = np.asarray(w, dtype=float)
    if spec.variant == "zero":
        return np.zeros_like(w)
    if spec.variant == "l2":
        return spec.mu * w
    if spec.variant == "l1":
        return 0.5 * spec.mu * np.sign(w)
    a = np.abs(w)
    if spec.variant == "mcp":
        slope = np.where(a <= spec.theta * spec.mu, spec.mu - a / spec.theta, 0.0)
        return np.sign(w) * slope
    mu, th = spec.mu, spec.theta
    slope = np.where(a <= mu, mu, np.where(a <= th * mu, (th * mu - a) / (th - 1.0), 0.0))
    return np.sign(w) * slope


def prox(spec: RegularizerSpec, gamma: float, w: np.ndarray) -> np.ndarray:
    """Proximal map argmin_x g(x) + (1/2 gamma) ||x - w||^2, coordinatewise."""
    if not (gamma > 0):
        raise InvalidParameterError(f"gamma must be > 0, got {gamma}")
    if spec.weak_convexity_c * gamma >= 1.0:
        raise InvalidParameterError(
            f"prox ill-posed: c*gamma = {spec.weak_convexity_c * gamma} >= 1"
        )
    w = np.asarray(w, dtype=float)
    if spec.variant == "zero":
        return w.copy()
    if spec.variant == "l2":
        return w / (1.0 + gamma * spec.mu)
    if spec.variant == "l1":
        thr = 0.5 * gamma * spec.mu
        return np.sign(w) * np.maximum(np.abs(w) - thr, 0.0)
    a = np.abs(w)
    if spec.variant == "mcp":
        mu, th = spec.mu, spec.theta
        shrunk = np.maximum(a - gamma * mu, 0.0) / (1.0 - gamma / th)
        return np.sign(w) * np.where(a <= th * mu, np.minimum(shrunk, a), a)
    mu, th = spec.mu, spec.theta
    soft = np.maximum(a - gamma * mu, 0.0)
    middle = ((th - 1.0) * a - gamma * th * mu) / (th - 1.0 - gamma)
    out = np.where(
        a <= mu * (1.0 + gamma), soft, np.where(a <= th * mu, middle, a)
    )
    return np.sign(w) * out


def affine_pieces(spec: RegularizerSpec, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The derivative of l1, MCP or SCAD on the piece holding each nonzero w_j.

    There g'(x) = alpha_j * sign(x) - beta_j * x is affine, and this
    returns (alpha, beta): l1 (mu/2, 0); MCP (mu, 1/theta) for
    |w| <= theta*mu and (0, 0) beyond; SCAD (mu, 0) for |w| <= mu,
    (theta*mu/(theta - 1), 1/(theta - 1)) up to theta*mu and (0, 0)
    beyond.  Entries at w_j = 0, where g has no derivative, are those of
    the piece next to 0.
    """
    a = np.abs(np.asarray(w, dtype=float))
    mu, th = spec.mu, spec.theta
    if spec.variant == "l1":
        return np.full_like(a, 0.5 * mu), np.zeros_like(a)
    if spec.variant == "mcp":
        inner = a <= th * mu
        return np.where(inner, mu, 0.0), np.where(inner, 1.0 / th, 0.0)
    middle = (a > mu) & (a <= th * mu)
    alpha = np.where(a <= mu, mu, np.where(middle, th * mu / (th - 1.0), 0.0))
    return alpha, np.where(middle, 1.0 / (th - 1.0), 0.0)


def moreau_value_and_grad(
    spec: RegularizerSpec, gamma: float, w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Smoothed penalty value and its gradient.

    value = g(p) + ||p - w||^2 / (2 gamma) with p = prox(w);
    grad = (w - p) / gamma, which is also a subgradient of g at p.
    Requires c * gamma <= 1/3 so the envelope keeps controlled curvature.
    """
    c = spec.weak_convexity_c
    if c * gamma > MOREAU_CURVATURE_LIMIT:
        raise InvalidParameterError(
            f"c*gamma = {c * gamma} exceeds {MOREAU_CURVATURE_LIMIT}"
        )
    w = np.asarray(w, dtype=float)
    p = prox(spec, gamma, w)
    diff = w - p
    value = reg_value(spec, p) + float(diff @ diff) / (2.0 * gamma)
    return value, diff / gamma
