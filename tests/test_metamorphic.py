"""Whole-solve relations: a relabeling of the data that leaves the problem
the same leaves the solve's answer the same, a rescaling of the data and
the penalty strength that keeps the objective rescales w alone, and convex
cells end at the optimum that an independent method finds (L-BFGS-B for
smooth ones, a linear program for hinge CVaR with l1)."""

import numpy as np
import pytest
from scipy.optimize import linprog, minimize
from scipy.special import expit

from rankadmm.admm import ScheduleSpec, SolverConfig, admm_solve
from rankadmm.data_io import SyntheticSpec, generate_synthetic, standardize
from rankadmm.losses import LossKind
from rankadmm.problem import Problem
from rankadmm.regularizers import l1, l2
from rankadmm.weights import ERM, Extremile, Superquantile, resolve

F_RTOL = 1e-10
W_TOL = 1e-9


@pytest.fixture(scope="module")
def data():
    ds, = standardize(generate_synthetic(SyntheticSpec(n=300, d=10, class_sep=3.0, seed=0)))
    return ds.X, ds.y


def _solve(X, y, weights=Superquantile(0.9), config=None, mu=1e-2):
    problem = Problem(X, y, LossKind.LOGISTIC, weights, l2(mu))
    return admm_solve(problem, config or SolverConfig())


@pytest.fixture(scope="module")
def base(data):
    return _solve(*data)


def _close(f, f_ref, rtol):
    return abs(f - f_ref) <= rtol * abs(f_ref)


def test_permuted_rows_keep_the_objective(data, base):
    X, y = data
    perm = np.random.default_rng(1).permutation(X.shape[0])
    result = _solve(X[perm], y[perm])
    assert _close(result.trace.objective[-1], base.trace.objective[-1], F_RTOL)


def test_permuted_columns_permute_w(data, base):
    X, y = data
    perm = np.random.default_rng(2).permutation(X.shape[1])
    result = _solve(X[:, perm], y)
    assert _close(result.trace.objective[-1], base.trace.objective[-1], F_RTOL)
    assert np.max(np.abs(result.w - base.w[perm])) <= W_TOL


def test_zero_column_gets_a_zero_coordinate(data, base):
    X, y = data
    result = _solve(np.hstack([X, np.zeros((X.shape[0], 1))]), y)
    assert _close(result.trace.objective[-1], base.trace.objective[-1], F_RTOL)
    assert result.w[-1] == 0.0


def _lbfgs_optimum(X, y, weights, mu):
    """min over w of the rank-weighted logistic loss of the margins -y * (X w)
    plus (mu/2)||w||^2, by L-BFGS-B.  Each margin takes the weight of its
    rank; the objective is convex for nondecreasing weights and smooth
    wherever the margins are distinct."""
    D = -y[:, None] * X
    sigma = resolve(weights, len(y)).sigma

    def f_and_grad(w):
        margins = D @ w
        s = np.empty_like(sigma)
        s[np.argsort(margins)] = sigma
        f = s @ np.logaddexp(0.0, margins) + 0.5 * mu * (w @ w)
        return f, D.T @ (s * expit(margins)) + mu * w

    ref = minimize(f_and_grad, np.zeros(X.shape[1]), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    assert ref.success
    return ref.fun


# Constant rho = r = 1e-3 stops on eps within 400 iterations for both schemes.
CONVERGED = SolverConfig(max_iter=1000, rho_schedule=ScheduleSpec.constant(1e-3), r=1e-3,
                         stop_eps=1e-9)


def test_erm_reaches_the_lbfgs_optimum(data):
    result = _solve(*data, ERM(), CONVERGED)
    assert result.stop_reason == "eps"
    assert _close(result.trace.objective[-1], _lbfgs_optimum(*data, ERM(), 1e-2), 1e-6)


def test_extremile_reaches_the_lbfgs_optimum(data):
    # every weight is nonzero: the rank loss evaluates every margin
    result = _solve(*data, Extremile(2.0), CONVERGED)
    assert result.stop_reason == "eps"
    assert _close(result.trace.objective[-1], _lbfgs_optimum(*data, Extremile(2.0), 1e-2), 1e-6)


@pytest.mark.parametrize("c", [0.5, 4.0])
def test_scaled_data_and_strength_keep_the_objective_and_scale_w(data, c):
    # F(w; cX, c^2 mu) = F(c w; X, mu): the optimum moves from w* to w*/c
    X, y = data
    base = _solve(X, y, config=CONVERGED)
    result = _solve(c * X, y, config=CONVERGED, mu=c * c * 1e-2)
    assert base.stop_reason == result.stop_reason == "eps"
    assert _close(result.trace.objective[-1], base.trace.objective[-1], F_RTOL)
    assert np.max(np.abs(result.w - base.w / c)) <= W_TOL


def _cvar_hinge_lp(X, y, q, mu):
    """min over w of the superquantile at level q of the hinge losses of the
    margins -y * (X w), plus (mu/2)||w||_1, as the linear program of
    Rockafellar and Uryasev (J. Risk, 2000): min alpha + sum s / ((1-q) n)
    + (mu/2) sum(w+ + w-) subject to s >= h - alpha, h >= 1 + D(w+ - w-),
    and s, h, w+, w- >= 0."""
    n, d = X.shape
    D = -y[:, None] * X
    # variables: alpha, s (n), h (n), w+ (d), w- (d)
    cost = np.concatenate([[1.0], np.full(n, 1.0 / ((1.0 - q) * n)), np.zeros(n),
                           np.full(2 * d, 0.5 * mu)])
    eye, zeros = np.eye(n), np.zeros((n, d))
    A = np.block([[-np.ones((n, 1)), -eye, eye, zeros, zeros],
                  [np.zeros((n, 1)), np.zeros((n, n)), -eye, D, -D]])
    b = np.concatenate([np.zeros(n), -np.ones(n)])
    ref = linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] + [(0, None)] * (2 * n + 2 * d),
                  method="highs")
    assert ref.status == 0
    return ref.fun


@pytest.mark.parametrize("q, mu", [(0.3, 1e-2), (0.7, 1e-3)])
def test_hinge_cvar_with_l1_reaches_the_lp_optimum(q, mu):
    # class_sep=3 would be separable (slow to settle), class_sep=1 with more
    # flips would have w* = 0; 4000 constant-rho iterations end within
    # 2.5e-7 of the LP value here
    ds, = standardize(generate_synthetic(SyntheticSpec(n=300, d=10, class_sep=2.0,
                                                       flip_fraction=0.05, seed=0)))
    problem = Problem(ds.X, ds.y, LossKind.HINGE, Superquantile(q), l1(mu))
    config = SolverConfig(max_iter=4000, rho_schedule=ScheduleSpec.constant(1e-2), r=1e-3,
                          stop_eps=0.0)
    f = admm_solve(problem, config).trace.objective[-1]
    f_lp = _cvar_hinge_lp(ds.X, ds.y, q, mu)
    assert _close(f, f_lp, 1e-6)
    assert f >= f_lp - 1e-9 * abs(f_lp)
