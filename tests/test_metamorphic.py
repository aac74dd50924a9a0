"""Whole-solve relations: a relabeling of the data that leaves the problem
the same leaves the solve's answer the same, and a smooth convex cell ends
at the optimum that an independent method finds."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from rankadmm.admm import ScheduleSpec, SolverConfig, admm_solve
from rankadmm.data_io import SyntheticSpec, generate_synthetic, standardize
from rankadmm.losses import LossKind
from rankadmm.problem import Problem
from rankadmm.regularizers import l2
from rankadmm.weights import ERM, Extremile, Superquantile, resolve

F_RTOL = 1e-10
W_TOL = 1e-9


@pytest.fixture(scope="module")
def data():
    ds, = standardize(generate_synthetic(SyntheticSpec(n=300, d=10, class_sep=3.0, seed=0)))
    return ds.X, ds.y


def _solve(X, y, weights=Superquantile(0.9), config=None):
    problem = Problem(X, y, LossKind.LOGISTIC, weights, l2(1e-2))
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
