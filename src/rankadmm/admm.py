"""Outer loop: alternating updates of (z, w, lambda) with penalty schedules.

Each iteration solves the chain-constrained z-step by block merging, the
regularized least-squares w-step, then takes a dual ascent step.  The
smoothed variant replaces the penalty by its envelope with a shrinking
smoothing parameter and reports the proximal point of the final iterate.
Per-iteration traces carry the objective, augmented Lagrangian, the three
stationarity surrogates, and descent margins for the monitors.
"""

from __future__ import annotations

import csv
import logging
import math
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, RankAdmmError, SolverError
from .pava import solve_z_subproblem
from .problem import Problem, rank_loss_value
from .regularizers import (
    MOREAU_CURVATURE_LIMIT,
    RegularizerSpec,
    moreau_value_and_grad,
    prox,
    reg_value,
)
from .wsolver import WSolver

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScheduleSpec:
    """Penalty weight sequence.

    kinds: constant | srm (rho0 * 1.2^k) | aorr (rho0 * 5^floor((k-7)/3))
    | ehrm (multiply 1.02 while the residual ||z - Dw|| exceeds 1e-2,
    else 1.07).
    """

    kind: str
    rho0: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "srm", "aorr", "ehrm"):
            raise InvalidParameterError(f"unknown schedule {self.kind!r}")
        if not (self.rho0 > 0):
            raise InvalidParameterError(f"rho0 must be positive, got {self.rho0}")

    @staticmethod
    def constant(rho: float) -> "ScheduleSpec":
        return ScheduleSpec("constant", rho0=rho)

    @staticmethod
    def srm(rho0: float = 1e-5) -> "ScheduleSpec":
        return ScheduleSpec("srm", rho0=rho0)

    @staticmethod
    def aorr(rho0: float = 2e-7) -> "ScheduleSpec":
        return ScheduleSpec("aorr", rho0=rho0)

    @staticmethod
    def ehrm(rho0: float = 1e-4) -> "ScheduleSpec":
        return ScheduleSpec("ehrm", rho0=rho0)

    def rho_at(self, k: int, prev_rho: float | None, feas_norm: float) -> float:
        if self.kind == "constant":
            return self.rho0
        if self.kind == "srm":
            return min(self.rho0 * 1.2**k, 1e300)
        if self.kind == "aorr":
            return self.rho0 * 5.0 ** math.floor((k - 7) / 3)
        if k == 0 or prev_rho is None:
            return self.rho0
        return prev_rho * (1.02 if feas_norm > 1e-2 else 1.07)


@dataclass(frozen=True)
class GammaSchedule:
    """Smoothing parameter sequence: decaying max(1e-5 * 0.9^k, 1e-9)
    or constant."""

    kind: str = "decay"
    value: float = 0.0

    @staticmethod
    def default() -> "GammaSchedule":
        return GammaSchedule("decay")

    @staticmethod
    def constant(gamma: float) -> "GammaSchedule":
        if not (gamma > 0):
            raise InvalidParameterError(f"gamma must be positive, got {gamma}")
        return GammaSchedule("constant", value=gamma)

    def gamma_at(self, k: int) -> float:
        if self.kind == "constant":
            return self.value
        return max(1e-5 * 0.9**k, 1e-9)


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 300
    rho_schedule: ScheduleSpec = field(default_factory=ScheduleSpec.srm)
    r: float = 1.0
    gamma_schedule: GammaSchedule = field(default_factory=GammaSchedule.default)
    stop_eps: float = 1e-6
    seed: int = 0
    sigma_min: float | None = None
    wall_budget_s: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.r > 0):
            raise InvalidParameterError(f"r must be positive, got {self.r}")


@dataclass(frozen=True)
class IterationTrace:
    """One row per outer iteration; the fields, in order, are the CSV
    schema v1 columns."""

    k: int
    objective: float
    aug_lagrangian: float
    lyapunov: float | None
    kkt_z: float
    kkt_w: float
    kkt_feas: float
    dual_step: float
    z_decrease: float
    w_decrease: float
    rho: float
    gamma: float | None
    wall_ns: int


_TRACE_FIELDS = fields(IterationTrace)
TRACE_COLUMNS = tuple(f.name for f in _TRACE_FIELDS)


@dataclass
class SolverResult:
    w: np.ndarray
    trace: list[IterationTrace]
    #: Why the loop stopped: "eps" (the KKT surrogates fell to stop_eps),
    #: "max_iter" or "wall_budget".
    stop_reason: str = "max_iter"
    r_effective: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "eps"


def materialize_D(problem: Problem):
    """Signed data matrix -diag(y) X, sparse in, sparse out."""
    if sp.issparse(problem.X):
        return sp.diags(-problem.y) @ problem.X.tocsr()
    return -problem.y[:, None] * problem.X


def _penalty(reg: RegularizerSpec, gamma: float | None, w: np.ndarray) -> float:
    """g(w), or its smoothed envelope with parameter gamma when given."""
    if gamma is None:
        return reg_value(reg, w)
    return moreau_value_and_grad(reg, gamma, w)[0]


def _resolve_r(config: SolverConfig, reg: RegularizerSpec) -> float:
    c = reg.weak_convexity_c
    r = config.r
    if c > 0 and r <= c:
        bumped = 2.0 * c
        logger.warning("r=%g does not exceed weak convexity %g; bumping to %g", r, c, bumped)
        r = bumped
    return r


def admm_solve(
    problem: Problem,
    config: SolverConfig | None = None,
    w0: np.ndarray | None = None,
    z0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
) -> SolverResult:
    """Run the plain outer loop; returns the final w and the trace."""
    return _solve(problem, config or SolverConfig(), False, w0, z0, lambda0)


def sadmm_solve(
    problem: Problem,
    config: SolverConfig | None = None,
    w0: np.ndarray | None = None,
    z0: np.ndarray | None = None,
    lambda0: np.ndarray | None = None,
) -> SolverResult:
    """Smoothed variant: the penalty is replaced by its envelope with the
    configured smoothing schedule and the returned point is the proximal
    map of the final iterate.  With a zero penalty the envelope vanishes
    and the run reduces to the plain loop, trajectory included.
    """
    return _solve(problem, config or SolverConfig(), True, w0, z0, lambda0)


def _solve(problem, config, smooth, w0, z0, lambda0):
    n, d = problem.n, problem.d
    reg = problem.regularizer
    resolved = problem.resolved_weights
    c = reg.weak_convexity_c
    smooth_active = smooth and reg.variant != "zero"
    if smooth_active and reg.variant == "l2":
        logger.warning(
            "smoothed run with an unbounded-gradient penalty (%s) is outside "
            "the bounded-envelope assumptions; proceeding anyway",
            reg.variant,
        )

    D = materialize_D(problem)
    solver = WSolver(D, seed=config.seed)
    d_norm = solver.d_norm
    r = _resolve_r(config, reg)

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=float).copy()
    Dw = problem.apply_D(w)
    z = Dw.copy() if z0 is None else np.asarray(z0, dtype=float).copy()
    lam = np.zeros(n) if lambda0 is None else np.asarray(lambda0, dtype=float).copy()

    trace: list[IterationTrace] = []

    rho = None
    premise_warned = False
    clamp_warned = False
    stop_reason = "max_iter"
    start = time.perf_counter_ns()
    omega = rank_loss_value(z, resolved, problem.loss)

    for k in range(config.max_iter):
        feas_now = float(np.linalg.norm(z - Dw))
        rho = config.rho_schedule.rho_at(k, rho, feas_now)

        gamma = None
        if smooth_active:
            gamma = config.gamma_schedule.gamma_at(k)
            if c > 0 and c * gamma > MOREAU_CURVATURE_LIMIT:
                gamma_clamped = MOREAU_CURVATURE_LIMIT / c
                if not clamp_warned:
                    warnings.warn(
                        f"smoothing parameter {gamma:g} violates c*gamma <= 1/3; "
                        f"clamping to {gamma_clamped:g}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    clamp_warned = True
                gamma = gamma_clamped
            if r <= 1.0 / gamma and not premise_warned:
                logger.warning(
                    "r=%g does not exceed 1/gamma=%g; run is outside the "
                    "smoothed-descent premise",
                    r,
                    1.0 / gamma,
                )
                premise_warned = True

        try:
            m = Dw - lam / rho
            z_new = solve_z_subproblem(m, resolved, rho, problem.loss)
            target = z_new + lam / rho
            w_new = solver.solve(target, w, rho, r, reg, gamma)
        except RankAdmmError as exc:
            raise SolverError(str(exc), iteration=k) from exc
        if not np.all(np.isfinite(w_new)):
            raise SolverError("w-step returned non-finite entries", iteration=k)

        Dw_new = problem.apply_D(w_new)
        r_new = z_new - Dw_new
        lam_new = lam + rho * r_new
        omega_new = rank_loss_value(z_new, resolved, problem.loss)
        pen_old = _penalty(reg, gamma, w)
        pen_new = _penalty(reg, gamma, w_new)
        # L_rho(w, z; lambda) in the cancellation-safe form
        # Omega(z) + lambda.(z - Dw) + (rho/2)||z - Dw||^2 + penalty(w).
        aug = omega_new + float(lam_new @ r_new) + 0.5 * rho * float(r_new @ r_new) + pen_new
        # a non-finite entry of lam_new makes aug non-finite as well
        if not math.isfinite(aug):
            raise SolverError(
                "dual update or augmented Lagrangian is non-finite", iteration=k
            )

        # Descent margins in difference form: the terms are built from the
        # step vectors themselves, so they vanish exactly when a step is
        # zero instead of drowning in rounding noise at large rho.
        r_old = z - Dw
        r_mid = z_new - Dw
        dz = z_new - z
        z_decrease = (
            omega - omega_new
            - float(lam @ dz)
            - 0.5 * rho * float(dz @ (r_old + r_mid))
        )
        Ddw = problem.apply_D(w_new - w)
        w_decrease = (
            float(lam @ Ddw)
            + 0.5 * rho * float(Ddw @ (r_mid + r_new))
            + pen_old
            - pen_new
        )

        dw_norm = float(np.linalg.norm(w_new - w))
        dual_step = float(np.linalg.norm(lam_new - lam))
        kkt_z = rho * d_norm * dw_norm
        kkt_w = r * dw_norm

        if smooth_active:
            w_report = prox(reg, gamma, w_new)
            Dw_report = problem.apply_D(w_report)
        else:
            w_report, Dw_report = w_new, Dw_new
        kkt_feas = float(np.linalg.norm(z_new - Dw_report))
        # Problem.objective(w_report), reusing the product D w_report.
        objective = rank_loss_value(Dw_report, resolved, problem.loss) + reg_value(reg, w_report)

        lyapunov = None
        if config.sigma_min is not None and config.sigma_min > 0:
            lyapunov = aug + (2.0 * r**2 / (config.sigma_min * rho)) * dw_norm**2

        trace.append(
            IterationTrace(
                k=k,
                objective=objective,
                aug_lagrangian=aug,
                lyapunov=lyapunov,
                kkt_z=kkt_z,
                kkt_w=kkt_w,
                kkt_feas=kkt_feas,
                dual_step=dual_step,
                z_decrease=z_decrease,
                w_decrease=w_decrease,
                rho=rho,
                gamma=gamma,
                wall_ns=time.perf_counter_ns() - start,
            )
        )
        w, z, lam, Dw, omega = w_new, z_new, lam_new, Dw_new, omega_new

        if max(kkt_z, kkt_w, kkt_feas) <= config.stop_eps:
            stop_reason = "eps"
            break
        if (
            config.wall_budget_s is not None
            and (time.perf_counter_ns() - start) / 1e9 >= config.wall_budget_s
        ):
            stop_reason = "wall_budget"
            break

    if smooth_active and trace:
        final_gamma = trace[-1].gamma
        w_final = prox(reg, final_gamma, w)
    else:
        w_final = w
    return SolverResult(w=w_final, trace=trace, stop_reason=stop_reason, r_effective=r)


# -- monitors ----------------------------------------------------------------


@dataclass
class LyapunovReport:
    coefficient: float
    violations: list[int]
    skipped_reason: str | None = None


def lyapunov_check(
    trace: list[IterationTrace],
    r: float,
    rho: float,
    sigma_min: float,
    gamma: float | None = None,
    c: float = 0.0,
    tol: float = 1e-8,
) -> LyapunovReport:
    """Check the per-iteration decrease of the descent certificate.

    Smoothed form (gamma given): Phi_k = L_k + (2 r^2 / (sigma rho)) ||dw_k||^2
    must drop by at least coeff * ||dw_{k+1}||^2 + (1/rho) ||dlam_{k+1}||^2
    with coeff = (2r - 1/gamma)/2 - 4 r^2/(sigma rho) - 2/(sigma rho gamma^2).
    Plain form (gamma None): L_k - L_{k+1} >= ((2r - c)/2) ||dw||^2
    - (1/rho) ||dlam||^2.  Requires a constant-rho run.
    """
    if len(trace) < 2:
        return LyapunovReport(coefficient=float("nan"), violations=[])
    if any(abs(row.rho - rho) > 1e-12 * max(1.0, rho) for row in trace):
        return LyapunovReport(
            coefficient=float("nan"),
            violations=[],
            skipped_reason="trace was not produced with a constant rho",
        )
    violations: list[int] = []
    if gamma is not None:
        coeff = (2.0 * r - 1.0 / gamma) / 2.0 - 4.0 * r**2 / (sigma_min * rho) - 2.0 / (
            sigma_min * rho * gamma**2
        )
        if coeff <= 0:
            return LyapunovReport(
                coefficient=coeff,
                violations=[],
                skipped_reason=f"descent coefficient {coeff:g} is nonpositive",
            )
        scale = 2.0 * r**2 / (sigma_min * rho)
        phi = [row.aug_lagrangian + scale * (row.kkt_w / r) ** 2 for row in trace]
        for k in range(len(trace) - 1):
            dw_next = trace[k + 1].kkt_w / r
            required = coeff * dw_next**2 + trace[k + 1].dual_step**2 / rho
            if phi[k] - phi[k + 1] < required - tol * max(1.0, abs(phi[k])):
                violations.append(k)
        return LyapunovReport(coefficient=coeff, violations=violations)
    coeff = (2.0 * r - c) / 2.0
    for k in range(len(trace) - 1):
        dw_next = trace[k + 1].kkt_w / r
        drop = trace[k].aug_lagrangian - trace[k + 1].aug_lagrangian
        required = coeff * dw_next**2 - trace[k + 1].dual_step**2 / rho
        if drop < required - tol * max(1.0, abs(trace[k].aug_lagrangian)):
            violations.append(k)
    return LyapunovReport(coefficient=coeff, violations=violations)


def sigma_min_positive(problem: Problem, limit: int = 10**6) -> float | None:
    """Smallest positive eigenvalue of D D^T (equals that of D^T D).

    Dense eigensolve, restricted to n*d <= limit; None when too large.
    """
    n, d = problem.n, problem.d
    if n * d > limit:
        return None
    D = materialize_D(problem)
    if sp.issparse(D):
        D = D.toarray()
    G = D @ D.T if n <= d else D.T @ D
    eig = np.linalg.eigvalsh(G)
    cutoff = max(eig[-1], 0.0) * 1e-12
    positive = eig[eig > cutoff]
    return float(positive[0]) if positive.size else None


#: r * eps of the theory-mode preset; the analysis needs it above 1.
_THEORY_C2 = 2.0


def theory_mode_config(problem: Problem, eps: float, **settings) -> SolverConfig:
    """Fixed-parameter preset tying (gamma, rho, r) to a target accuracy.

    Needs a strictly weakly convex penalty (the constant bound involves
    1/c) and a computable smallest positive Gram eigenvalue.  ``settings``
    sets the SolverConfig fields the preset leaves free, such as
    ``max_iter``, ``stop_eps`` and ``seed``; the others keep their
    defaults.
    """
    c = problem.regularizer.weak_convexity_c
    if c <= 0:
        raise InvalidParameterError(
            "theory mode needs a penalty with weak convexity c > 0 (mcp or scad)"
        )
    sigma = sigma_min_positive(problem)
    if sigma is None:
        raise InvalidParameterError("problem too large for the dense eigensolve")
    gamma = min(eps, 1.0 / (3.0 * c))
    C2 = _THEORY_C2
    C1 = 1.01 * (8.0 * C2**2 + 1.0 / (3.0 * c) + 4.0) / (sigma * (2.0 * C2 - 1.0))
    return SolverConfig(
        rho_schedule=ScheduleSpec.constant(C1 / eps),
        r=C2 / eps,
        gamma_schedule=GammaSchedule.constant(gamma),
        **settings,
    )


# -- trace serialization ------------------------------------------------------


def trace_rows(trace: list[IterationTrace], include_wall: bool = True) -> list[dict]:
    """CSV records: int fields as is, floats in repr precision, "" for None."""
    rows = []
    for row in trace:
        rec = {}
        for f in _TRACE_FIELDS:
            value = getattr(row, f.name)
            if f.type == "int":
                rec[f.name] = value
            else:
                rec[f.name] = "" if value is None else repr(value)
        if not include_wall:
            rec["wall_ns"] = 0
        rows.append(rec)
    return rows


def write_trace_csv(trace: list[IterationTrace], path, include_wall: bool = True) -> None:
    """Schema v1: one row per iteration, repr-precision floats.

    ``include_wall=False`` zeroes the timing column so files from runs
    with identical seeds compare bit-for-bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRACE_COLUMNS)
        writer.writeheader()
        for row in trace_rows(trace, include_wall):
            writer.writerow(row)


def read_trace_csv(path) -> list[IterationTrace]:
    out: list[IterationTrace] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InvalidParameterError(f"trace file missing columns: {sorted(missing)}")
        for rec in reader:
            values = {}
            for f in _TRACE_FIELDS:
                text = rec[f.name]
                if f.type == "int":
                    values[f.name] = int(text)
                elif not text and f.type.endswith("| None"):
                    values[f.name] = None
                else:
                    values[f.name] = float(text)
            out.append(IterationTrace(**values))
    return out
