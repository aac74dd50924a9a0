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
from dataclasses import dataclass, field

import numpy as np

from .data_io import issparse
from .errors import (
    InvalidParameterError,
    RankAdmmError,
    SolverError,
    check_int,
    check_wall_budget,
    store_floats,
)
from .pava import solve_z_subproblem
from .problem import Problem, rank_loss_value, sorted_rank_loss
from .regularizers import (
    MOREAU_CURVATURE_LIMIT,
    RegularizerSpec,
    moreau_value_and_grad,
    prox,
    reg_value,
)
from .wsolver import WSolver, _norm

logger = logging.getLogger(__name__)


#: Each kind's rho0 when none is given; a constant schedule needs one.
_DEFAULT_RHO0 = {"constant": None, "srm": 1e-5, "aorr": 2e-7, "ehrm": 1e-4}

#: The growing schedules saturate here.
RHO_MAX = 1e300


def _geometric(rho0: float, base: float, e: int) -> float:
    """min(rho0 * base**e, RHO_MAX), also where base**e alone overflows."""
    try:
        return min(rho0 * base**e, RHO_MAX)
    except OverflowError:
        log_rho = math.log(rho0) + e * math.log(base)
        return RHO_MAX if log_rho >= math.log(RHO_MAX) else math.exp(log_rho)


@dataclass(frozen=True)
class ScheduleSpec:
    """Penalty weight sequence.

    kinds: constant | srm (rho0 * 1.2^k) | aorr (rho0 * 5^floor((k-7)/3))
    | ehrm (multiply 1.02 while the residual ||z - Dw|| exceeds 1e-2,
    else 1.07).  The growing kinds saturate at ``RHO_MAX`` (1e300).
    """

    kind: str
    rho0: float | None = None

    def __post_init__(self):
        if self.kind not in _DEFAULT_RHO0:
            raise InvalidParameterError(f"unknown schedule {self.kind!r}")
        rho0 = _DEFAULT_RHO0[self.kind] if self.rho0 is None else self.rho0
        if not (rho0 is not None and 0 < rho0 < math.inf):
            raise InvalidParameterError(f"rho0 must be positive and finite, got {self.rho0}")
        object.__setattr__(self, "rho0", float(rho0))  # a numpy scalar would leak into the z-step

    @staticmethod
    def constant(rho: float) -> "ScheduleSpec":
        return ScheduleSpec("constant", rho)

    @staticmethod
    def srm(rho0: float | None = None) -> "ScheduleSpec":
        return ScheduleSpec("srm", rho0)

    @staticmethod
    def aorr(rho0: float | None = None) -> "ScheduleSpec":
        return ScheduleSpec("aorr", rho0)

    @staticmethod
    def ehrm(rho0: float | None = None) -> "ScheduleSpec":
        return ScheduleSpec("ehrm", rho0)

    def rho_at(self, k: int, prev_rho: float | None, feas_norm: float) -> float:
        if self.kind == "constant":
            return self.rho0
        if self.kind == "srm":
            return _geometric(self.rho0, 1.2, k)
        if self.kind == "aorr":
            return _geometric(self.rho0, 5.0, math.floor((k - 7) / 3))
        if k == 0 or prev_rho is None:
            return self.rho0
        return min(prev_rho * (1.02 if feas_norm > 1e-2 else 1.07), RHO_MAX)


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 300
    rho_schedule: ScheduleSpec = field(default_factory=ScheduleSpec.srm)
    r: float = 1.0
    #: Smoothing parameter of the smoothed solver, held for the run (clamped
    #: to 1/(3c) with a warning; r <= 1/gamma is logged).  None decays it from
    #: 1e-5 by 0.9 per iteration down to 1e-9: never clamped, since c < 1, and
    #: not logged, since its 1/gamma >= 1e5 breaks r > 1/gamma at any usual r.
    gamma: float | None = None
    stop_eps: float = 1e-6
    wall_budget_s: float | None = None

    def __post_init__(self):
        check_int("max_iter", self.max_iter, 1)
        if not (0 < self.r < math.inf):
            raise InvalidParameterError(f"r must be positive and finite, got {self.r}")
        if self.gamma is not None and not (0 < self.gamma < math.inf):
            raise InvalidParameterError(
                f"smoothing parameter 'gamma' must be positive and finite, got {self.gamma}"
            )
        if not (self.stop_eps >= 0):
            raise InvalidParameterError(f"stop_eps must be >= 0, got {self.stop_eps}")
        check_wall_budget(self.wall_budget_s)
        store_floats(self, "r", "gamma", "stop_eps", "wall_budget_s")


#: One row per outer iteration; the fields, in order, are the CSV schema
#: v1 columns.  The gamma of an unsmoothed run is NaN.
TRACE_DTYPE = np.dtype(
    [("k", np.int64)]
    + [(name, np.float64) for name in (
        "objective", "aug_lagrangian", "kkt_z", "kkt_w", "kkt_feas",
        "dual_step", "z_decrease", "w_decrease", "rho", "gamma")]
    + [("wall_ns", np.int64)]
)
TRACE_COLUMNS = TRACE_DTYPE.names
#: Columns that are NaN in memory and empty on disk when not computed.
_OPTIONAL_COLUMNS = ("gamma",)


def trace_array(rows) -> np.recarray:
    """The trace of ``rows``, tuples in TRACE_COLUMNS order."""
    return np.array(rows, TRACE_DTYPE).view(np.recarray)


@dataclass
class SolverResult:
    #: The reported point, whose objective is the trace's last.
    w: np.ndarray
    #: TRACE_DTYPE records, one per iteration (attribute access by column).
    trace: np.recarray
    #: Why the loop stopped: "eps" (the KKT surrogates fell to stop_eps),
    #: "max_iter" or "wall_budget".
    stop_reason: str = "max_iter"
    r_effective: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "eps"


def budget_spent(wall_budget_s: float | None, start_ns: int) -> bool:
    """Whether a run that began at ``perf_counter_ns()`` == ``start_ns`` has
    used its wall-clock budget; a budget of None never ends."""
    return (wall_budget_s is not None
            and (time.perf_counter_ns() - start_ns) / 1e9 >= wall_budget_s)


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
    configured smoothing parameter and the returned point is the proximal
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

    solver = WSolver(problem.X)
    # ||t - D w|| = ||-y*t - X w|| as y = +-1, and D^T D = X^T X: the
    # w-step runs on X itself, with no signed copy of the data
    neg_y = -problem.y
    d_norm = solver.d_norm
    r = _resolve_r(config, reg)

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=float).copy()
    Dw = problem.apply_D(w)
    z = Dw.copy() if z0 is None else np.asarray(z0, dtype=float).copy()
    lam = np.zeros(n) if lambda0 is None else np.asarray(lambda0, dtype=float).copy()
    # The z-step's sorting order, kept as its next warm start.
    order = np.arange(n)

    # A held smoothing parameter is settled once, before the loop.
    gamma = config.gamma if smooth_active else None
    if gamma is not None and c * gamma > MOREAU_CURVATURE_LIMIT:
        warnings.warn(f"smoothing parameter {gamma:g} violates c*gamma <= 1/3; "
                      f"clamping to {MOREAU_CURVATURE_LIMIT / c:g}", RuntimeWarning, stacklevel=2)
        gamma = MOREAU_CURVATURE_LIMIT / c
    if gamma is not None and r <= 1.0 / gamma:
        logger.warning("r=%g does not exceed 1/gamma=%g; run is outside the "
                       "smoothed-descent premise", r, 1.0 / gamma)
    decay = smooth_active and gamma is None

    rows = []

    rho = None
    stop_reason = "max_iter"
    start = time.perf_counter_ns()
    omega = rank_loss_value(z, resolved, problem.loss)
    # The penalty (or envelope) of the current w; a decaying gamma moves
    # the envelope every iteration, so only those runs recompute it
    pen = _penalty(reg, gamma, w)
    # The residual z - Dw and its norm; each iteration hands on its r_new,
    # which is z_new - Dw_new bit for bit, instead of forming it again.
    r_old = z - Dw
    feas_now = _norm(r_old)

    for k in range(config.max_iter):
        rho = config.rho_schedule.rho_at(k, rho, feas_now)

        if decay:
            gamma = max(1e-5 * 0.9**k, 1e-9)

        try:
            lam_rho = lam / rho
            z_new = solve_z_subproblem(Dw - lam_rho, resolved, rho, problem.loss, order=order)
            w_new = solver.solve(neg_y * (z_new + lam_rho), w, rho, r, reg, gamma)
        except RankAdmmError as exc:
            raise SolverError(str(exc), iteration=k) from exc
        if not np.isfinite(w_new).all():
            raise SolverError("w-step returned non-finite entries", iteration=k)

        Dw_new = problem.apply_D(w_new)
        r_new = z_new - Dw_new
        lam_new = lam + rho * r_new
        # z_new ascends along the z-step's order: no second sort
        omega_new = sorted_rank_loss(z_new[order], resolved, problem.loss)
        pen_old = _penalty(reg, gamma, w) if decay else pen
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
        r_mid = z_new - Dw
        dz = z_new - z
        z_decrease = (
            omega - omega_new
            - float(lam @ dz)
            - 0.5 * rho * float(dz @ (r_old + r_mid))
        )
        dw = w_new - w
        Ddw = problem.apply_D(dw)
        w_decrease = (
            float(lam @ Ddw)
            + 0.5 * rho * float(Ddw @ (r_mid + r_new))
            + pen_old
            - pen_new
        )

        # Overflow-safe norms: at rho near RHO_MAX a sum of squares can
        # overflow while the norm itself is finite
        dw_norm = _norm(dw)
        dual_step = _norm(lam_new - lam)
        feas_new = _norm(r_new)
        kkt_z = rho * d_norm * dw_norm
        kkt_w = r * dw_norm

        if smooth_active:
            w_report = prox(reg, gamma, w_new)
            Dw_report = problem.apply_D(w_report)
            pen_report = reg_value(reg, w_report)
            kkt_feas = _norm(z_new - Dw_report)
        else:
            w_report, Dw_report, pen_report = w_new, Dw_new, pen_new
            kkt_feas = feas_new
        # Problem.objective(w_report), reusing the product D w_report.
        objective = rank_loss_value(Dw_report, resolved, problem.loss) + pen_report

        rows.append((
            k, objective, aug, kkt_z, kkt_w, kkt_feas, dual_step,
            z_decrease, w_decrease, rho, math.nan if gamma is None else gamma,
            time.perf_counter_ns() - start,
        ))
        w, z, lam, Dw, omega, pen = w_new, z_new, lam_new, Dw_new, omega_new, pen_new
        r_old, feas_now = r_new, feas_new

        if max(kkt_z, kkt_w, kkt_feas) <= config.stop_eps:
            stop_reason = "eps"
            break
        if budget_spent(config.wall_budget_s, start):
            stop_reason = "wall_budget"
            break

    # the point of the trace's last objective: max_iter >= 1, so the loop ran
    return SolverResult(w=w_report, trace=trace_array(rows), stop_reason=stop_reason,
                        r_effective=r)


# -- monitors ----------------------------------------------------------------


@dataclass
class LyapunovReport:
    coefficient: float
    violations: list[int]
    skipped_reason: str | None = None


def lyapunov_check(
    trace: np.recarray,
    r: float,
    sigma_min: float,
    c: float = 0.0,
    tol: float = 1e-8,
) -> LyapunovReport:
    """Check the per-iteration decrease of the descent certificate.

    rho and gamma are the trace's own; both must be constant over the run.
    Smoothed form (gamma set): Phi_k = L_k + (2 r^2 / (sigma rho)) ||dw_k||^2
    must drop by at least coeff * ||dw_{k+1}||^2 + (1/rho) ||dlam_{k+1}||^2
    with coeff = (2r - 1/gamma)/2 - 4 r^2/(sigma rho) - 2/(sigma rho gamma^2).
    Plain form (gamma NaN): L_k - L_{k+1} >= ((2r - c)/2) ||dw||^2
    - (1/rho) ||dlam||^2.  Any other trace is skipped with a reason.
    """
    if len(trace) < 2:
        return LyapunovReport(coefficient=math.nan, violations=[])
    rho, gamma = float(trace.rho[0]), float(trace.gamma[0])
    if not (rho > 0) or np.any(np.abs(trace.rho - rho) > 1e-12 * max(1.0, rho)):
        return LyapunovReport(math.nan, [], "trace has no constant positive rho")
    if not (np.isnan(trace.gamma).all() or (trace.gamma == gamma).all()):
        return LyapunovReport(math.nan, [], "trace has no constant gamma")
    # ||dw_k||^2 and (1/rho) ||dlam_k||^2 of every row
    dw_sq = (trace.kkt_w / r) ** 2
    dlam_sq = trace.dual_step**2 / rho
    if not math.isnan(gamma):
        coeff = (2.0 * r - 1.0 / gamma) / 2.0 - 4.0 * r**2 / (sigma_min * rho) - 2.0 / (
            sigma_min * rho * gamma**2
        )
        if coeff <= 0:
            return LyapunovReport(
                coefficient=coeff,
                violations=[],
                skipped_reason=f"descent coefficient {coeff:g} is nonpositive",
            )
        phi = trace.aug_lagrangian + 2.0 * r**2 / (sigma_min * rho) * dw_sq
        required = coeff * dw_sq[1:] + dlam_sq[1:]
    else:
        coeff = (2.0 * r - c) / 2.0
        phi = trace.aug_lagrangian
        required = coeff * dw_sq[1:] - dlam_sq[1:]
    short = phi[:-1] - phi[1:] < required - tol * np.maximum(1.0, np.abs(phi[:-1]))
    return LyapunovReport(coefficient=coeff, violations=np.flatnonzero(short).tolist())


#: Largest n*d whose Gram eigenvalues sigma_min_positive computes.
_EIGEN_LIMIT = 10**6


def sigma_min_positive(problem: Problem) -> float | None:
    """Smallest positive eigenvalue of D D^T (equals that of D^T D).

    D D^T and X X^T have the same eigenvalues, as D = -diag(y) X with
    y = +-1.  Dense eigensolve, restricted to n*d <= ``_EIGEN_LIMIT``;
    None when too large.
    """
    n, d = problem.n, problem.d
    if n * d > _EIGEN_LIMIT:
        return None
    X = problem.X.toarray() if issparse(problem.X) else problem.X
    G = X @ X.T if n <= d else X.T @ X
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
    ``max_iter`` and ``stop_eps``; the others keep their defaults.
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
        gamma=gamma,
        **settings,
    )


# -- trace serialization ------------------------------------------------------


def write_trace_csv(trace: np.recarray, path, include_wall: bool = True) -> None:
    """Schema v1: one row per iteration, repr-precision floats, an empty
    cell for a gamma that was not computed.

    ``include_wall=False`` zeroes the timing column so files from repeated
    runs compare bit-for-bit.
    """
    optional = [TRACE_COLUMNS.index(name) for name in _OPTIONAL_COLUMNS]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        # tolist() gives Python ints and floats, whose repr is plain
        for row in trace.tolist():
            cells = [repr(value) for value in row]
            for i in optional:
                if math.isnan(row[i]):
                    cells[i] = ""
            if not include_wall:
                cells[-1] = "0"
            writer.writerow(cells)


def read_trace_csv(path) -> np.recarray:
    """A trace file with the schema v1 header, as written or produced
    elsewhere; an empty gamma reads as NaN."""
    parsers = [
        (name, int if TRACE_DTYPE[name].kind == "i"
         else _float_or_nan if name in _OPTIONAL_COLUMNS else float)
        for name in TRACE_COLUMNS
    ]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InvalidParameterError(f"trace file missing columns: {sorted(missing)}")
        rows = [tuple(parse(rec[name]) for name, parse in parsers) for rec in reader]
    return trace_array(rows)


def _float_or_nan(text: str) -> float:
    return float(text) if text else math.nan
