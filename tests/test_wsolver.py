import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankadmm import wsolver
from rankadmm.admm import SolverConfig, admm_solve
from rankadmm.regularizers import (
    ZERO,
    RegularizerSpec,
    affine_pieces,
    l1,
    l2,
    mcp,
    moreau_value_and_grad,
    prox,
    reg_value,
    scad,
)
from rankadmm.weights import Extremile
from rankadmm.wsolver import WSolver
from tests.conftest import make_synthetic_problem


def objective(D, target, rho, r, anchor, reg, w):
    """Unsmoothed w-step objective at w."""
    rz = D @ w - target
    dw = w - anchor
    return 0.5 * rho * float(rz @ rz) + 0.5 * r * float(dw @ dw) + reg_value(reg, w)


def subgrad_residual(D, target, rho, r, anchor, reg, w):
    """Distance from 0 to the subdifferential of the w-step objective."""
    grad_q = rho * D.T @ (D @ w - target) + r * (w - anchor)
    if reg.variant == "zero":
        return np.linalg.norm(grad_q)
    if reg.variant == "l2":
        return np.linalg.norm(grad_q + reg.mu * w)
    # l1: coordinatewise interval check
    res = 0.0
    half = reg.mu / 2.0
    for j, wj in enumerate(w):
        if wj > 0:
            res = max(res, abs(grad_q[j] + half))
        elif wj < 0:
            res = max(res, abs(grad_q[j] - half))
        else:
            res = max(res, max(0.0, abs(grad_q[j]) - half))
    return res


def make_instance(rng, n=20, d=5):
    D = rng.standard_normal((n, d))
    target = rng.standard_normal(n)
    anchor = rng.standard_normal(d) * 0.3
    return D, target, anchor


def test_closed_form_scalar_example():
    solver = WSolver(np.array([[1.0]]))
    w = solver.solve(np.array([4.0]), np.array([0.0]), 1.0, 1.0, l2(1.0))
    assert w == pytest.approx([4.0 / 3.0])
    assert solver.last_info.method == "closed_form"


def test_closed_form_proximal_dominance(rng):
    D, target, anchor = make_instance(rng)
    w = WSolver(D).solve(target, anchor, rho=1.0, r=1e8, reg=l2(0.5))
    assert np.linalg.norm(w - anchor) <= 1e-6


def test_closed_form_gradient_residual(rng):
    D, target, anchor = make_instance(rng)
    solver = WSolver(D)
    for reg in (ZERO, l2(0.3)):
        w = solver.solve(target, anchor, rho=2.0, r=1.0, reg=reg)
        assert subgrad_residual(D, target, 2.0, 1.0, anchor, reg, w) <= 1e-8


def test_closed_form_extreme_rho(rng):
    D, target, anchor = make_instance(rng, n=30, d=5)
    solver = WSolver(D)
    w = solver.solve(target, anchor, rho=1e18, r=1.0, reg=ZERO)
    # solution of the huge-penalty limit: least squares of the target
    ls, *_ = np.linalg.lstsq(D, target, rcond=None)
    assert np.linalg.norm(w - ls) <= 1e-6 * max(1.0, np.linalg.norm(ls))


def ill_conditioned(rng, n=30, d=6, decades=6):
    """A dense D with singular values 1 .. 10^-decades and rotated singular
    vectors, so that its Gram eigendecomposition is not exact."""
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return U @ np.diag(np.logspace(0, -decades, d)) @ V.T


@pytest.mark.parametrize("rho, r, corrections", [(2.0, 1.0, 0), (1e16, 1e-12, 3)])
def test_closed_form_residual_is_that_of_the_returned_w(rho, r, corrections, monkeypatch):
    rng = np.random.default_rng(3)
    D = ill_conditioned(rng) if corrections else rng.standard_normal((30, 6))
    target, anchor = rng.standard_normal(30), rng.standard_normal(6)
    reg = ZERO if corrections else l2(0.3)
    solver = WSolver(D)
    products = []
    gram_matvec = WSolver._gram_matvec

    def counted(self, v):
        products.append(1)
        return gram_matvec(self, v)

    monkeypatch.setattr(WSolver, "_gram_matvec", counted)
    w = solver.solve(target, anchor, rho, r, reg)
    # one residual per iterate: the first solve's and one per correction
    assert len(products) == 1 + corrections
    rhs = rho * (D.T @ target) + r * anchor
    res = rhs - (rho * ((D.T @ D) @ w) + (reg.mu + r) * w)
    rel = np.linalg.norm(res) / max(np.linalg.norm(rhs), 1e-300)
    info = solver.last_info
    assert info.method == "closed_form" and info.warning is None
    assert np.float64(info.residual).tobytes() == np.float64(rel).tobytes()


def test_prox_gradient_pure_prox_when_data_vanishes(rng):
    d = 4
    D = np.zeros((6, d))
    anchor = rng.standard_normal(d)
    reg = l1(1.0)
    w = WSolver(D).solve(np.zeros(6), anchor, 1.0, 2.0, reg)
    assert w == pytest.approx(prox(reg, 1.0 / 2.0, anchor), abs=1e-9)


def test_prox_gradient_1d_grid_oracle(rng):
    D = np.array([[1.5], [-0.5], [2.0]])
    target = np.array([1.0, 0.3, -0.4])
    anchor = np.array([0.2])
    reg = l1(0.8)
    w = WSolver(D).solve(target, anchor, 1.0, 1.0, reg)
    grid = np.arange(-2.0, 2.0, 1e-7)
    vals = (
        0.5 * ((grid[None, :] * D) - target[:, None]).__pow__(2).sum(axis=0)
        + 0.5 * (grid - anchor[0]) ** 2
        + 0.4 * np.abs(grid)
    )
    best = grid[int(np.argmin(vals))]
    assert w[0] == pytest.approx(best, abs=1e-6)


@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0), scad(0.4, 3.0)])
def test_prox_gradient_residual_and_probes(reg, rng):
    D, target, anchor = make_instance(rng)
    solver = WSolver(D)
    w = solver.solve(target, anchor, 1.0, 1.0, reg)
    assert solver.last_info.method == "prox_gradient"
    assert solver.last_info.residual <= 1e-8
    f_w = objective(D, target, 1.0, 1.0, anchor, reg, w)
    for _ in range(1000):
        delta = rng.standard_normal(len(w))
        delta *= 1e-3 / np.linalg.norm(delta)
        assert f_w <= objective(D, target, 1.0, 1.0, anchor, reg, w + delta) + 1e-12


def test_prox_gradient_l1_residual(rng):
    D, target, anchor = make_instance(rng)
    reg = l1(0.6)
    w = WSolver(D).solve(target, anchor, 1.0, 1.0, reg)
    assert subgrad_residual(D, target, 1.0, 1.0, anchor, reg, w) <= 1e-7


def test_prox_gradient_huge_rho_warm_start(rng):
    D, target, anchor = make_instance(rng, n=40, d=6)
    reg = l1(0.01)
    solver = WSolver(D)
    w = solver.solve(target, anchor, 1e10, 1.0, reg)
    ls, *_ = np.linalg.lstsq(D, target, rcond=None)
    assert np.linalg.norm(w - ls) <= 1e-5 * max(1.0, np.linalg.norm(ls))


@pytest.mark.parametrize("rho, parent_iterations", [(1e6, 112), (1e10, 13)])
def test_prox_gradient_huge_rho_restarts_stay_sound(rho, parent_iterations, rng):
    # The restart test compares the prox step from y with the last move and
    # needs no objective value, so nothing cancels at large rho (44 and 9
    # iterations here).  The bounds are the counts of the former objective
    # restart test in D form; in Gram form its objective difference
    # cancelled at large rho and took 118 and 14.
    D, target, anchor = make_instance(rng, n=60, d=20)
    solver = WSolver(D)
    solver.solve(target, anchor, rho, 1.0, mcp(0.1, 3.0))
    assert solver.last_info.iterations <= parent_iterations


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("reg, gamma", [(l2(0.5), None), (mcp(0.5, 4.0), None),
                                        (mcp(0.5, 4.0), 0.05)])
def test_solve_on_X_matches_solve_on_D(reg, gamma, sparse, rng):
    # The outer loop solves on X with target -y*t, not on D = -diag(y) X
    # with target t: the same w-step, bit for bit.
    X, t, anchor = make_instance(rng, n=30, d=8)
    if sparse:
        X[rng.random(X.shape) < 0.6] = 0.0
    y = rng.choice([-1.0, 1.0], size=30)
    D = -y[:, None] * X
    if sparse:
        X, D = sp.csr_matrix(X), sp.csr_matrix(D)
    on_X, on_D = WSolver(X), WSolver(D)
    for _ in range(2):  # the second mcp solve tries the pattern solve
        w = on_X.solve(-y * t, anchor, 2.0, 1.0, reg, gamma)
        assert np.array_equal(w, on_D.solve(t, anchor, 2.0, 1.0, reg, gamma))
        anchor = w


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0)])
def test_prox_gradient_matrix_free_matches_gram(reg, sparse, rng, monkeypatch):
    D, target, anchor = make_instance(rng, n=30, d=8)
    w_gram = WSolver(D).solve(target, anchor, 2.0, 1.0, reg)
    # Above the threshold the Gram matrix is never formed: products are
    # D^T (D v) and the ridge start is a conjugate gradient solve.
    monkeypatch.setattr(wsolver, "_EIG_THRESHOLD", 4)
    solver = WSolver(sp.csr_matrix(D) if sparse else D)
    w = solver.solve(target, anchor, 2.0, 1.0, reg)
    assert solver._gram is None
    assert solver.last_info.method == "prox_gradient"
    assert solver.last_info.residual <= 1e-8
    assert np.linalg.norm(w - w_gram) <= 1e-9


@pytest.mark.parametrize("reg", [l1(0.1), mcp(0.1, 3.0), scad(0.1, 3.0)])
def test_prox_gradient_matrix_free_gradient_restarts(reg, monkeypatch):
    # A sparse D on the matrix-free path.  The gradient restart takes
    # 215 / 244 / 277 iterations (l1 / MCP / SCAD); the objective restart
    # it replaced took 425 / 518 / 377.
    D = sp.random(200, 120, density=0.05, random_state=1, format="csr")
    rng = np.random.default_rng(0)
    target = rng.standard_normal(200)
    anchor = 0.3 * rng.standard_normal(120)
    monkeypatch.setattr(wsolver, "_EIG_THRESHOLD", 4)
    solver = WSolver(D)
    solver.solve(target, anchor, 5.0, 1.0, reg)
    assert solver._gram is None
    assert solver.last_info.iterations <= 320
    assert solver.last_info.residual <= 1e-8


@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0), scad(0.4, 3.0)])
def test_prox_gradient_one_gram_product_per_iteration(reg, rng, monkeypatch):
    D, target, anchor = make_instance(rng, n=40, d=12)
    solver = WSolver(D)
    assert solver.d_norm > 0  # the cached power iteration is shared set-up
    events = []
    in_ridge = []

    def counted(name, method):
        def wrapper(self, *args):
            if not in_ridge:
                events.append(name)
            return method(self, *args)
        return wrapper

    def ridge(self, *args):
        in_ridge.append(True)
        try:
            return ridge_solve(self, *args)
        finally:
            in_ridge.pop()

    ridge_solve = WSolver.ridge_solve
    monkeypatch.setattr(WSolver, "ridge_solve", ridge)
    monkeypatch.setattr(WSolver, "_gram_matvec", counted("G", WSolver._gram_matvec))
    monkeypatch.setattr(WSolver, "_matvec", counted("D", WSolver._matvec))
    # The first solve records the anchor's pattern, so the second tries the
    # pattern solve; the answer has zeros where the anchor has none, so the
    # attempt is rejected after one Gram product and the iteration runs.
    solver.solve(target, anchor, 3.0, 1.0, reg)
    events.clear()
    solver.solve(target, anchor, 3.0, 1.0, reg)
    info = solver.last_info
    assert info.iterations > 0 and events[0] == "G"
    assert info.residual <= 1e-8
    # set-up picks the start by two objective values; from the start
    # point's Gram product on, the iteration makes no product with D
    first_gram = events.index("G", events.index("D"))
    assert "D" not in events[first_gram:]
    assert events.count("G") <= info.iterations + info.restarts + 2


@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0), scad(0.4, 3.0)])
def test_prox_gradient_starts_from_a_settled_anchor(reg, rng, monkeypatch):
    # Late in the outer loop the anchor is nearly the w-step's answer.  With
    # no pattern solve (beyond _EIG_THRESHOLD) the start choice then takes
    # the anchor and stops at once; started from the penalty-free solution
    # the loop would take 42-43 iterations at every such step.
    D, target, anchor = make_instance(rng, n=40, d=12)
    monkeypatch.setattr(wsolver, "_EIG_THRESHOLD", 4)
    solver = WSolver(D)
    w = anchor
    for _ in range(60):
        w = solver.solve(target, w, 2.0, 1.0, reg)
    assert solver._gram is None
    assert solver.last_info.iterations == 1
    assert solver.last_info.residual <= 1e-8


def fista_only(monkeypatch):
    """Make every prox-gradient w-step skip the pattern solve."""
    monkeypatch.setattr(WSolver, "_pattern_solve", lambda self, *args: None)


@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.1, 3.0), scad(0.1, 3.0)])
def test_pattern_solve_once_the_pattern_holds(reg, rng, monkeypatch):
    D, target, anchor = make_instance(rng, n=30, d=8)
    solver = WSolver(D)
    w1 = solver.solve(target, anchor, 2.0, 1.0, reg)
    w2 = solver.solve(target, w1, 2.0, 1.0, reg)
    assert solver.last_info.iterations > 0  # w1 holds another pattern than anchor
    # w2 keeps w1's pattern, so the next w-step is the pattern solve
    w3 = solver.solve(target, w2, 2.0, 1.0, reg)
    info = solver.last_info
    assert info.method == "prox_gradient"
    assert info.iterations == 0 and info.restarts == 0
    assert info.residual <= 1e-9
    a = np.abs(w3)
    if reg.variant == "mcp":  # the linear piece, and the flat one
        assert np.any((a > 0) & (a <= reg.theta * reg.mu))
        assert np.any(a > reg.theta * reg.mu)
    if reg.variant == "scad":  # the middle piece
        assert np.any((a > reg.mu) & (a <= reg.theta * reg.mu))
    fista_only(monkeypatch)
    reference = WSolver(D)
    w_ref = reference.solve(target, w2, 2.0, 1.0, reg)
    assert reference.last_info.iterations > 0
    assert np.linalg.norm(w3 - w_ref) <= 1e-10


@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.1, 3.0), scad(0.1, 3.0)])
def test_pattern_solve_wrong_support_falls_back(reg, rng, monkeypatch):
    D, target, _ = make_instance(rng, n=30, d=8)
    anchor = np.zeros(8)
    anchor[0] = 0.3
    tried = []
    pattern_solve = WSolver._pattern_solve

    def recording(self, *args):
        tried.append(pattern_solve(self, *args))
        return tried[-1]

    monkeypatch.setattr(WSolver, "_pattern_solve", recording)
    solver = WSolver(D)
    solver.solve(target, anchor, 2.0, 1.0, reg)
    w = solver.solve(target, anchor, 2.0, 1.0, reg)
    assert tried[0] is None and tried[1] is not None
    assert solver.last_info.iterations > 0
    assert solver.last_info.residual <= 1e-8
    assert np.count_nonzero(w) > 1
    fista_only(monkeypatch)
    assert np.linalg.norm(w - WSolver(D).solve(target, anchor, 2.0, 1.0, reg)) == 0.0


@given(
    st.sampled_from(["l1", "mcp", "scad"]),
    st.floats(0.05, 2.0),
    st.floats(2.5, 6.0),
    st.floats(-15.0, 15.0),
)
@settings(max_examples=300, deadline=None)
def test_affine_pieces_match_finite_differences(variant, mu, theta, x):
    reg = RegularizerSpec(variant, mu=mu, theta=theta)
    h = 1e-6
    assume(all(abs(abs(x) - b) > 10 * h for b in (0.0, mu, theta * mu)))
    alpha, beta = affine_pieces(reg, np.array([x]))
    slope = (reg_value(reg, [x + h]) - reg_value(reg, [x - h])) / (2 * h)
    assert alpha[0] * np.sign(x) - beta[0] * x == pytest.approx(slope, abs=1e-7)


def test_admm_mcp_pattern_solve_matches_fista(monkeypatch):
    problem = make_synthetic_problem(n=100, d=40, weights=Extremile(order=2.0),
                                     regularizer=mcp(0.01, 3.0), class_sep=3.0)
    config = SolverConfig(max_iter=60)
    accepted = []
    solve = WSolver.solve

    def recording(self, *args):
        w = solve(self, *args)
        accepted.append(self.last_info.iterations == 0)
        return w

    monkeypatch.setattr(WSolver, "solve", recording)
    with_pattern = admm_solve(problem, config)
    assert sum(accepted) >= 10
    fista_only(monkeypatch)
    plain = admm_solve(problem, config)
    assert len(with_pattern.trace) == len(plain.trace)
    f, f_ref = with_pattern.trace[-1].objective, plain.trace[-1].objective
    assert abs(f - f_ref) <= 1e-8 * abs(f_ref)


def test_smooth_zero_matches_closed_form(rng):
    D, target, anchor = make_instance(rng)
    solver = WSolver(D)
    w_smooth = solver.solve(target, anchor, 1.0, 1.0, ZERO, gamma=0.5)
    assert solver.last_info.method == "smooth_splitting"
    w_exact = solver.solve(target, anchor, 1.0, 1.0, ZERO)
    assert np.linalg.norm(w_smooth - w_exact) <= 1e-7


@pytest.mark.parametrize("gamma", [0.5, 1e-3, 1e-6])
@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0)])
def test_smooth_gradient_residual(reg, gamma, rng):
    if reg.weak_convexity_c * gamma > 1.0 / 3.0:
        pytest.skip("outside envelope curvature range")
    D, target, anchor = make_instance(rng)
    solver = WSolver(D)
    w = solver.solve(target, anchor, 1.0, 1.0, reg, gamma=gamma)
    assert solver.last_info.method == "smooth_splitting"
    _, mgrad = moreau_value_and_grad(reg, gamma, w)
    grad = D.T @ (D @ w - target) + (w - anchor) + mgrad
    assert np.linalg.norm(grad) <= 1e-8 * max(1.0, 1e9 * gamma)


@pytest.mark.parametrize("gamma", [0.5, 1e-3, 1e-6])
@pytest.mark.parametrize("reg", [l1(0.6), mcp(0.5, 4.0)])
def test_smooth_solve_forms_each_residual_once(reg, gamma, rng, monkeypatch):
    # Each point of the splitting loop is evaluated once: its objective and,
    # once accepted, its gradient share one residual A w - t.
    D, target, anchor = make_instance(rng)
    solver = WSolver(D)
    calls = {"A": 0, "A^T": 0}

    def counted(name, product):
        def wrapped(self, v):
            calls[name] += 1
            return product(self, v)
        return wrapped

    monkeypatch.setattr(WSolver, "_matvec", counted("A", WSolver._matvec))
    monkeypatch.setattr(WSolver, "_rmatvec", counted("A^T", WSolver._rmatvec))
    solver.solve(target, anchor, 1.0, 1.0, reg, gamma=gamma)
    info = solver.last_info
    assert info.method == "smooth_splitting"
    assert info.iterations >= 3
    assert calls["A"] <= info.iterations + info.restarts + 1
    assert calls["A^T"] <= info.iterations + 1  # A^T t of ``solve`` included


def test_smooth_tiny_gamma_approaches_nonsmooth(rng):
    D, target, anchor = make_instance(rng)
    reg = l1(0.6)
    solver = WSolver(D)
    w_sharp = solver.solve(target, anchor, 1.0, 1.0, reg)
    w_smooth = solver.solve(target, anchor, 1.0, 1.0, reg, gamma=1e-9)
    assert np.linalg.norm(w_smooth - w_sharp) <= 1e-4


@pytest.mark.parametrize("reg, gamma, method", [
    (l2(1e-2), None, "closed_form"),
    (l1(0.1), None, "prox_gradient"),
    (mcp(0.5, 1.5), None, "prox_gradient"),
    (mcp(0.5, 1.5), 0.1, "smooth_splitting"),
])
def test_overflowing_residual_warns_at_once(reg, gamma, method, rng):
    # targets of 1e200 overflow every norm: the residual and the rounding
    # floor are non-finite, and no stop test can pass
    D, _, anchor = make_instance(rng)
    solver = WSolver(D)
    with np.errstate(all="ignore"):
        solver.solve(np.full(20, 1e200), anchor, 1.0, 2.0, reg, gamma)
    info = solver.last_info
    assert info.method == method
    assert info.warning is not None
    assert not np.isfinite(info.residual)
    assert info.iterations == 1


def test_descent_versus_anchor(rng):
    # exactness implies the w-step never loses to its anchor
    for reg in (ZERO, l2(0.4), l1(0.7), mcp(0.5, 4.0)):
        D, target, anchor = make_instance(rng)
        w = WSolver(D).solve(target, anchor, 1.5, 1.0, reg)
        f_w = objective(D, target, 1.5, 1.0, anchor, reg, w)
        assert f_w <= objective(D, target, 1.5, 1.0, anchor, reg, anchor) + 1e-12


def test_power_iteration_norm(rng):
    D = rng.standard_normal((25, 7))
    est = WSolver(D).d_norm
    exact = np.linalg.norm(D, 2)
    assert est == pytest.approx(exact, rel=1e-6)
    # deterministic: the iteration starts from a fixed vector
    assert WSolver(D).d_norm == est
