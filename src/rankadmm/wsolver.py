"""The w-step of the outer loop: a regularized least-squares problem

    min_w  (rho/2) ||t - A w||^2 + penalty(w) + (r/2) ||w - anchor||^2

for a fixed data matrix A, dense or sparse.

``WSolver.solve`` is the single entry point.  Without ``gamma`` the
penalty is the regularizer g itself: zero and l2 penalties admit an exact
linear solve, l1 and the concave penalties use an accelerated proximal
gradient method with one Gram product per iteration, whose momentum
restarts on a gradient test that needs no objective value.  With the
dense Gram matrix (d <= _EIG_THRESHOLD), once the anchor (the previous
w-step's answer) keeps the pattern of the anchor before it -- support,
signs and penalty pieces -- that method first tries one exact linear
solve on the pattern, and keeps its point if it passes the method's own
stopping test (finite identification: Hare & Lewis, J. Convex Anal.
2004).  With ``gamma`` the penalty is the Moreau envelope of g with
smoothing parameter gamma (the smoothed outer loop), minimized by an
exact splitting whose rate depends only on the data spectrum, so it does
not degrade as gamma shrinks.  ``WSolver.last_info`` reports the method,
the inner iteration and restart counts and the final residual of the
latest solve.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data_io import issparse
from .errors import SolverError
from .regularizers import (
    RegularizerSpec,
    affine_pieces,
    moreau_value_and_grad,
    prox,
    reg_value,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

_EIG_THRESHOLD = 2000
_POWER_ITERATIONS = 100
_TOL = 1e-9
_FISTA_MAX_ITER = 5000
_SPLIT_MAX_ITER = 20000
_FP_FLOOR_SCALE = 64.0 * np.finfo(float).eps


def _stop_at(curvature: float, w: np.ndarray) -> float:
    """The inner stop threshold: _TOL, or the smallest gradient/mapping norm
    still distinguishable from rounding noise for a smooth term with the
    given curvature scale, if larger.  NaN once that floor overflows, so
    that no residual passes."""
    floor = _FP_FLOOR_SCALE * curvature * (1.0 + float(np.linalg.norm(w)))
    return max(_TOL, floor) if floor < math.inf else math.nan


def _norm(v: np.ndarray) -> float:
    """||v||, as np.linalg.norm forms it for a real vector, rescaled by
    max|v| where its sum of squares overflows."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(v @ v)
    if not math.isfinite(norm) and math.isfinite(scale := np.max(np.abs(v))):
        norm = scale * np.linalg.norm(v / scale)
    return norm


@dataclass
class SolveInfo:
    """What the latest w-step did.  ``iterations`` counts inner iterations;
    for the proximal gradient method 0 means the pattern solve was accepted,
    and ``residual`` is then its prox-gradient mapping norm."""

    method: str = ""
    iterations: int = 0
    residual: float = float("nan")
    restarts: int = 0
    warning: str | None = None


class WSolver:
    """Holds the Gram matrix spectral data of a fixed data matrix A, built
    once with the solver and shared by its solves.

    One instance per solve: the anchor pattern of the latest prox-gradient
    solve is kept for the next one, so the w-steps of one outer-loop solve
    share one instance.
    """

    def __init__(self, A: np.ndarray | sp.spmatrix):
        self.A = A
        self.n, self.d = A.shape
        # The dense Gram matrix A^T A and its clipped eigendecomposition,
        # for d <= _EIG_THRESHOLD; above it, products are A^T (A v).
        self._gram: np.ndarray | None = None
        if self.d <= _EIG_THRESHOLD:
            G = A.T @ A
            self._gram = np.asarray(G.toarray() if issparse(G) else G, dtype=float)
            try:
                lam, Q = np.linalg.eigh(self._gram)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"gram factorization failed: {exc}") from exc
            self._eig = (np.maximum(lam, 0.0), Q)
        # (sign, alpha, beta) of the latest prox-gradient anchor's pattern
        self._pattern: np.ndarray | None = None
        self.last_info = SolveInfo()
        self.d_norm = self._power_iteration()

    # -- spectral helpers -------------------------------------------------

    def _power_iteration(self) -> float:
        """Spectral norm estimate of A by power iteration from a fixed start."""
        v = np.random.default_rng(0).standard_normal(self.d)
        v /= np.linalg.norm(v)
        for _ in range(_POWER_ITERATIONS):
            u = self._gram_matvec(v)
            nu = np.linalg.norm(u)
            if nu == 0.0:
                return 0.0
            v = u / nu
        return float(np.sqrt(v @ self._gram_matvec(v)))

    def _gram_matvec(self, v: np.ndarray) -> np.ndarray:
        if self._gram is not None:
            return self._gram @ v
        return self._rmatvec(self._matvec(v))

    def _rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self.A.T @ v

    def _matvec(self, w: np.ndarray) -> np.ndarray:
        return self.A @ w

    def ridge_solve(
        self, rho: float, shift: float, rhs: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Solve (rho * A^T A + shift * I) x = rhs; returns x and its
        relative residual.

        Eigendecomposition path for moderate d (O(d^2) per call, any
        diagonal shift); conjugate gradient beyond.  Up to three
        residual-driven corrections keep the relative residual near
        machine precision.
        """
        if not (shift > 0):
            raise SolverError(f"ridge shift must be positive, got {shift}")
        if self._gram is not None:
            lam, Q = self._eig
            denom = rho * lam + shift

            def solve_once(b):
                return Q @ ((Q.T @ b) / denom)

        else:
            # Imported here: no dense-Gram (d <= _EIG_THRESHOLD) run needs
            # it, and it weighs about 10 MB of resident memory.
            import scipy.sparse.linalg as spla

            op = spla.LinearOperator(
                (self.d, self.d),
                matvec=lambda v: rho * self._gram_matvec(v) + shift * v,
            )

            def solve_once(b):
                x, info = spla.cg(op, b, rtol=1e-10, atol=0.0, maxiter=10 * self.d)
                if info > 0:
                    logger.warning("ridge CG hit iteration cap (info=%d)", info)
                return x

        x = solve_once(rhs)
        norm_rhs = max(_norm(rhs), 1e-300)
        for corrections in range(4):
            residual = rhs - (rho * self._gram_matvec(x) + shift * x)
            norm_res = _norm(residual)
            if norm_res <= 1e-12 * norm_rhs or corrections == 3:
                return x, norm_res / norm_rhs
            x = x + solve_once(residual)

    def _smooth_part(
        self, w: np.ndarray, target: np.ndarray, anchor: np.ndarray, rho: float, r: float,
    ) -> tuple[float, np.ndarray]:
        """q(w) = (rho/2)||A w - t||^2 + (r/2)||w - anchor||^2, the w-step's
        smooth part, and the residual A w - t."""
        rz = self._matvec(w) - target
        dw = w - anchor
        return 0.5 * rho * float(rz @ rz) + 0.5 * r * float(dw @ dw), rz

    def _finish(
        self, w: np.ndarray, method: str, what: str, residual: float, tol: float,
        iterations: int = 1, restarts: int = 0,
    ) -> np.ndarray:
        """Record the solve in ``last_info``, with a logged warning when the
        residual misses its tolerance; returns w."""
        self.last_info = SolveInfo(method, iterations, residual, restarts)
        if not residual <= tol:
            self.last_info.warning = (
                f"{what} {residual:.2e} above tol {tol:.2e} after {iterations} iters"
            )
            logger.warning(self.last_info.warning)
        return w

    # -- accelerated proximal gradient ------------------------------------

    def _solve_prox_gradient(
        self, target: np.ndarray, anchor: np.ndarray, At: np.ndarray, c: np.ndarray,
        rho: float, r: float, reg: RegularizerSpec,
    ) -> np.ndarray:
        """Accelerated proximal gradient with gradient restarts.

        Smooth part q(w) = (rho/2)||t - Aw||^2 + (r/2)||w - anchor||^2,
        step 1/(rho ||A||^2 + r).  With the dense Gram matrix, first tries
        ``_pattern_solve``: its point is returned with 0 iterations if its
        prox-gradient mapping norm passes the loop's stopping test, which
        in a strongly convex w-step makes it the minimizer the loop would
        reach; otherwise the loop runs as if it had not been tried.

        The loop starts from the better of the anchor and the exact
        penalty-free solution, by objective value: the anchor, late in the
        outer loop, is close to this step's answer, and the penalty-free
        solution keeps the iteration count bounded by the data
        conditioning even for very large rho.  Raises SolverError when
        neither start has a finite objective (overflowing targets): no
        iterate could be compared or accepted.  Stops when the
        prox-gradient mapping norm falls below _TOL.

        Each iteration makes one Gram product, G w_new with G = A^T A (with
        the dense Gram matrix, d <= _EIG_THRESHOLD, no product with A): the
        product at the extrapolated point y follows by linearity from the
        two latest fresh ones.  The momentum restarts when the prox step
        from y turns against the last move, (y - w_new)^T (w_new - w) > 0
        (O'Donoghue & Candes 2015), so the loop needs no objective or
        penalty value; the objective is evaluated only in the set-up, to
        choose the start.
        """

        def q_grad(v, Gv):
            return rho * (Gv - At) + r * (v - anchor)

        L = rho * self.d_norm**2 + r
        eta = 1.0 / L

        def mapping_at(v, Gv):
            return float(np.linalg.norm(v - prox(reg, eta, v - eta * q_grad(v, Gv)))) / eta

        if self._gram is not None:
            w = self._pattern_solve(c, anchor, rho, r, reg)
            if w is not None:
                mapping = mapping_at(w, self._gram_matvec(w))
                stop_at = _stop_at(L, w)
                if mapping <= stop_at:
                    return self._finish(w, "prox_gradient", "prox-gradient mapping",
                                        mapping, stop_at, iterations=0)

        def full(v):
            return self._smooth_part(v, target, anchor, rho, r)[0] + reg_value(reg, v)

        ridge, _ = self.ridge_solve(rho, r, c)
        f_anchor, f_ridge = full(anchor), full(ridge)
        if not (math.isfinite(f_anchor) or math.isfinite(f_ridge)):
            raise SolverError("w-step objective is non-finite at the anchor and the ridge start")
        w = anchor.copy() if f_anchor <= f_ridge else ridge
        Gw = self._gram_matvec(w)
        y, Gy = w.copy(), Gw
        t_momentum = 1.0
        mapping = float("inf")
        iterations = restarts = 0
        for iterations in range(1, _FISTA_MAX_ITER + 1):
            stop_at = _stop_at(L, w)
            w_new = prox(reg, eta, y - eta * q_grad(y, Gy))
            step = y - w_new
            step_norm = float(np.linalg.norm(step)) / eta
            if not (math.isfinite(step_norm) and math.isfinite(stop_at)):
                mapping = step_norm  # an overflow: no later iterate can pass
                break
            Gw_new = self._gram_matvec(w_new)
            if t_momentum == 1.0:
                mapping = step_norm  # y is w: the exact mapping at w
                if mapping <= stop_at:
                    w = w_new
                    break
            elif step_norm <= stop_at:
                mapping = mapping_at(w_new, Gw_new)
                if mapping <= stop_at:
                    w = w_new
                    break
            if float(step @ (w_new - w)) > 0.0:
                restarts += 1
                t_momentum = 1.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            beta = (t_momentum - 1.0) / t_next
            y = w_new + beta * (w_new - w)
            Gy = Gw_new + beta * (Gw_new - Gw)
            w, Gw, t_momentum = w_new, Gw_new, t_next
        return self._finish(w, "prox_gradient", "prox-gradient mapping", mapping,
                            _stop_at(L, w), iterations, restarts)

    def _pattern_solve(
        self, c: np.ndarray, anchor: np.ndarray, rho: float, r: float, reg: RegularizerSpec
    ) -> np.ndarray | None:
        """The w-step's stationary point on the anchor's pattern, or None.

        The pattern puts w = 0 off the anchor's support S and each w_j,
        j in S, on the anchor's piece of the penalty with the anchor's
        sign, where g'(w_j) = alpha_j sign(anchor_j) - beta_j w_j
        (``affine_pieces``).  Stationarity of the smooth part plus g on S
        is then the linear system

            (rho G_SS + diag(r - beta_S)) w_S = c_S - alpha_S sign(anchor_S),

        positive definite because r exceeds the penalty's weak-convexity
        modulus, which bounds beta.  Whether w stays on the
        pattern is left to the caller's mapping test.

        A rejected solve at |S| = 2000 takes about 0.2 s, up to three times
        the proximal gradient run that follows it, so the solve is tried
        only once the pattern has held: None unless the anchor's pattern
        equals the previous call's anchor pattern, or if the system is
        singular.
        """
        alpha, beta = affine_pieces(reg, anchor)
        sign = np.sign(anchor)
        pattern = np.stack((sign, alpha, beta))
        held = self._pattern is not None and np.array_equal(pattern, self._pattern)
        self._pattern = pattern
        if not held:
            return None
        S = np.flatnonzero(sign)
        M = self._gram[S][:, S]
        M *= rho
        M[np.diag_indices_from(M)] += r - beta[S]
        b = c[S] - alpha[S] * sign[S]
        try:
            w_S = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            return None
        w = np.zeros(self.d)
        w[S] = w_S
        return w

    # -- smoothed penalty --------------------------------------------------

    def _solve_smooth(
        self, target: np.ndarray, anchor: np.ndarray, c: np.ndarray,
        rho: float, r: float, reg: RegularizerSpec, gamma: float,
    ) -> np.ndarray:
        """Minimize q(w) + smoothed penalty to gradient norm <= _TOL by the
        exact reformulation min_{w,x} q(w) + g(x) + ||x-w||^2/(2 gamma).

        For fixed x the w-block is a ridge solve; eliminating w leaves a
        composite problem in x whose smooth part has curvature bounded by
        the data spectrum uniformly in gamma.  Accelerated proximal steps
        on x with restarts; convergence is measured on the true smoothed
        gradient at w(x).  Each point x is evaluated once (w(x), its
        residual A w - t, its objective) and the gradient at an accepted
        point reuses that residual: an iteration makes one product with A
        and one with A^T beside its two ridge solves; a restart adds one
        ridge solve and one product with A.
        """
        shift = r + 1.0 / gamma

        def w_of_x(x):
            return self.ridge_solve(rho, shift, c + x / gamma)[0]

        a = rho * self.d_norm**2 + r
        L_x = a / (1.0 + gamma * a)
        eta = 1.0 / L_x

        def at(x):
            """w(x), its residual A w - t, and the objective at (w(x), x)."""
            w = w_of_x(x)
            q, rz = self._smooth_part(w, target, anchor, rho, r)
            xd = x - w
            return w, rz, (q + reg_value(reg, x)) + float(xd @ xd) / (2.0 * gamma)

        def grad_norm(w, rz):
            _, g = moreau_value_and_grad(reg, gamma, w)
            return float(np.linalg.norm(rho * self._rmatvec(rz) + r * (w - anchor) + g))

        curvature = a + 1.0 / gamma
        x = prox(reg, gamma, anchor)
        w, rz, f_x = at(x)
        y = x.copy()
        t_momentum = 1.0
        gnorm = grad_norm(w, rz)
        iterations = restarts = 0
        for iterations in range(1, _SPLIT_MAX_ITER + 1):
            stop_at = _stop_at(curvature, w)
            if gnorm <= stop_at or not (math.isfinite(gnorm) and math.isfinite(stop_at)):
                break
            x_new = prox(reg, eta, y - eta * (y - w_of_x(y)) / gamma)
            w_new, rz_new, f_new = at(x_new)
            if f_new > f_x and not np.array_equal(y, x):
                # overshoot: drop the momentum and retake a plain step
                restarts += 1
                t_momentum = 1.0
                x_new = prox(reg, eta, x - eta * (x - w) / gamma)
                w_new, rz_new, f_new = at(x_new)
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            y = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            x, w, rz, f_x, t_momentum = x_new, w_new, rz_new, f_new, t_next
            gnorm = grad_norm(w, rz)
        return self._finish(w, "smooth_splitting", "smoothed solve gradient", gnorm,
                            _stop_at(curvature, w), iterations, restarts)

    # -- dispatch ----------------------------------------------------------

    def solve(
        self,
        target: np.ndarray,
        anchor: np.ndarray,
        rho: float,
        r: float,
        reg: RegularizerSpec,
        gamma: float | None = None,
    ) -> np.ndarray:
        """One w-step.  ``gamma`` selects the smoothed penalty (the Moreau
        envelope of ``reg``); None minimizes with ``reg`` itself.  Requires
        r above the penalty's weak-convexity modulus either way.

        Every method solves with the right-hand side c = rho A^T t + r anchor;
        zero and l2 penalties solve (rho A^T A + (mu + r) I) w = c exactly."""
        At = self._rmatvec(target)
        c = rho * At + r * anchor
        if gamma is not None:
            return self._solve_smooth(target, anchor, c, rho, r, reg, gamma)
        if reg.variant in ("zero", "l2"):
            w, rel = self.ridge_solve(rho, reg.mu + r, c)
            return self._finish(w, "closed_form", "linear solve residual", rel, 1e-10)
        return self._solve_prox_gradient(target, anchor, At, c, rho, r, reg)
