import csv
import math
import tracemalloc

import numpy as np
import pytest

import rankadmm.admm as admm_module
from rankadmm.admm import (
    ScheduleSpec,
    SolverConfig,
    admm_solve,
    lyapunov_check,
    read_trace_csv,
    sadmm_solve,
    sigma_min_positive,
    theory_mode_config,
    trace_array,
    write_trace_csv,
)
from rankadmm.baselines import SgdConfig, sgd_solve
from rankadmm.errors import InvalidParameterError, SolverError
from rankadmm.losses import LossKind
from rankadmm.regularizers import ZERO, l1, l2, mcp, reg_value, scad
from rankadmm.weights import ERM, CPTValueDependent, Superquantile
from rankadmm.wsolver import WSolver
from tests.conftest import make_synthetic_problem


def test_schedule_srm_values():
    s = ScheduleSpec.srm()
    assert s.rho_at(0, None, 0.0) == pytest.approx(1e-5)
    assert s.rho_at(10, None, 0.0) == pytest.approx(1e-5 * 1.2**10)


def test_schedule_aorr_values():
    s = ScheduleSpec.aorr()
    assert s.rho_at(7, None, 0.0) == pytest.approx(2e-7)
    assert s.rho_at(10, None, 0.0) == pytest.approx(2e-7 * 5.0)
    assert s.rho_at(0, None, 0.0) == pytest.approx(2e-7 * 5.0 ** math.floor(-7 / 3))
    rhos = [s.rho_at(k, None, 0.0) for k in range(50)]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    assert all(r > 0 for r in rhos)


def test_schedule_ehrm_feasibility_switch():
    s = ScheduleSpec.ehrm()
    assert s.rho_at(0, None, 1.0) == pytest.approx(1e-4)
    assert s.rho_at(1, 1e-4, 0.5) == pytest.approx(1.02e-4)  # residual above 1e-2
    assert s.rho_at(1, 1e-4, 1e-3) == pytest.approx(1.07e-4)


@pytest.mark.parametrize("kind, rho0", [("srm", None), ("aorr", None), ("ehrm", 1e250)])
def test_schedule_saturates_at_rho_max(kind, rho0):
    # 1.2**k alone overflows from k = 3893 and 5.0**e from e = 442 (k = 1333),
    # and ehrm's product passes 1e300: rho climbs to RHO_MAX and stays there,
    # without raising, and below the cap it is the uncapped formula bit for bit
    s, prev, steps = ScheduleSpec(kind, rho0), None, []
    for k in range(5001):
        rho = s.rho_at(k, prev, 1e-3)
        if kind == "srm":
            uncapped = s.rho0 * 1.2**k if k < 3893 else math.inf
        elif kind == "aorr":
            uncapped = s.rho0 * 5.0 ** math.floor((k - 7) / 3) if k < 1333 else math.inf
        else:
            uncapped = s.rho0 if prev is None else prev * 1.07
        assert rho == (uncapped if uncapped < admm_module.RHO_MAX else admm_module.RHO_MAX)
        steps.append(rho)
        prev = rho
    assert steps[-1] == admm_module.RHO_MAX


def test_schedule_with_tiny_rho0_grows_past_the_overflow_of_its_power():
    s = ScheduleSpec.srm(1e-300)
    rhos = [s.rho_at(k, None, 0.0) for k in range(3880, 3910)]
    assert all(a < b < admm_module.RHO_MAX for a, b in zip(rhos, rhos[1:]))
    assert s.rho_at(5000, None, 0.0) == pytest.approx(10 ** (5000 * math.log10(1.2) - 300))


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        ScheduleSpec.constant(0.0)
    with pytest.raises(InvalidParameterError):
        ScheduleSpec("warp")


@pytest.mark.parametrize("kind", ["srm", "aorr", "ehrm"])
def test_schedule_kind_alone_takes_its_own_start(kind):
    assert ScheduleSpec(kind) == getattr(ScheduleSpec, kind)()


def test_constant_schedule_needs_a_start():
    with pytest.raises(InvalidParameterError, match="rho0"):
        ScheduleSpec("constant")


def test_default_gamma_decays_to_its_floor():
    problem = make_synthetic_problem(n=20, d=4, regularizer=l1(0.1), seed=8)
    res = sadmm_solve(problem, SolverConfig(max_iter=100, stop_eps=0.0))
    assert len(res.trace) == 100
    # 1e-5 * 0.9**k falls below the floor 1e-9 from k = 88 on
    expected = [max(1e-5 * 0.9**k, 1e-9) for k in range(100)]
    assert res.trace.gamma.tolist() == expected
    assert expected[-1] == 1e-9
    res = sadmm_solve(problem, SolverConfig(max_iter=100, gamma=0.1, stop_eps=0.0))
    assert res.trace.gamma.tolist() == [0.1] * 100


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(InvalidParameterError, match="gamma"):
        SolverConfig(gamma=gamma)


def test_dual_update_example():
    problem = make_synthetic_problem(n=2, d=2, seed=1)
    lam = np.zeros(2)
    z_minus_dw = np.array([0.5, -1.0])
    assert lam + 2.0 * z_minus_dw == pytest.approx([1.0, -2.0])


def test_fixed_point_stationarity():
    # build the exact stationary triple for the smooth uniform-weight case
    # and check one iteration leaves it in place
    problem = make_synthetic_problem(n=40, d=6, loss=LossKind.LOGISTIC,
                                     regularizer=l2(1e-2), seed=2)
    D = -problem.y[:, None] * problem.X
    n = problem.n
    L = np.linalg.norm(D, 2) ** 2 / (4 * n) + 1e-2
    w = np.zeros(problem.d)
    for _ in range(10**6):
        g = D.T @ (1.0 / (1.0 + np.exp(-D @ w))) / n + 1e-2 * w
        if np.linalg.norm(g) <= 1e-13:
            break
        w -= g / L
    z = problem.apply_D(w)
    lam = -(1.0 / (1.0 + np.exp(-z))) / n
    cfg = SolverConfig(max_iter=1, rho_schedule=ScheduleSpec.constant(1.0),
                       r=0.5, stop_eps=0.0)
    res = admm_solve(problem, cfg, w0=w, z0=z, lambda0=lam)
    t = res.trace[0]
    assert max(t.kkt_z, t.kkt_w, t.kkt_feas) <= 1e-8


def test_kkt_surrogate_identities(iterates):
    problem = make_synthetic_problem(n=30, d=5, regularizer=l2(1e-2), seed=3)
    cfg = SolverConfig(max_iter=25, rho_schedule=ScheduleSpec.constant(2.0), stop_eps=0.0)
    res = admm_solve(problem, cfg)
    states = iterates.states(problem)
    d_norm = iterates.d_norm
    assert len(states) == len(res.trace) + 1
    for k, (prev, state, row) in enumerate(zip(states, states[1:], res.trace)):
        (w_prev, _, lam_prev, _), (w, z, lam, Dw) = prev, state
        rho, r = iterates.rho[k], iterates.r[k]
        dw = float(np.linalg.norm(w - w_prev))
        assert rho * d_norm * dw == pytest.approx(row.kkt_z, rel=1e-12, abs=1e-15)
        assert r * dw == pytest.approx(row.kkt_w, rel=1e-12, abs=1e-15)
        assert float(np.linalg.norm(z - Dw)) == pytest.approx(row.kkt_feas, rel=1e-12, abs=1e-15)
        # dual-update identity lambda' - lambda = rho (z - Dw), with lambda
        # as the next z-step sees it
        if k + 1 < len(res.trace):
            dlam = iterates.dual_seen(problem, k + 1) - lam_prev
            scale = max(1.0, float(np.linalg.norm(dlam)))
            assert np.linalg.norm(dlam - rho * (z - Dw)) <= 1e-12 * scale
        assert row.dual_step == pytest.approx(rho * np.linalg.norm(z - Dw), rel=1e-12)
        assert row.dual_step == pytest.approx(float(np.linalg.norm(lam - lam_prev)), rel=1e-12)
        if dw > 0:
            assert row.kkt_z / dw == pytest.approx(rho * d_norm, rel=1e-12)


def test_descent_margins_nonnegative():
    for weights in (ERM(), Superquantile(0.7)):
        for reg in (ZERO, l2(1e-2), l1(1e-2)):
            problem = make_synthetic_problem(n=50, d=6, weights=weights,
                                             regularizer=reg, seed=4,
                                             loss=LossKind.HINGE)
            cfg = SolverConfig(max_iter=60, rho_schedule=ScheduleSpec.srm(),
                               r=0.5, stop_eps=0.0)
            res = admm_solve(problem, cfg)
            assert min(t.z_decrease for t in res.trace) >= -1e-10
            assert min(t.w_decrease for t in res.trace) >= -1e-10


def test_erm_matches_gradient_descent_oracle():
    problem = make_synthetic_problem(n=80, d=8, loss=LossKind.LOGISTIC,
                                     regularizer=l2(1e-2), seed=5)
    cfg = SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.srm(), r=0.1,
                       stop_eps=0.0)
    res = admm_solve(problem, cfg)
    D = -problem.y[:, None] * problem.X
    n = problem.n
    L = np.linalg.norm(D, 2) ** 2 / (4 * n) + 1e-2
    w = np.zeros(problem.d)
    for _ in range(10**6):
        g = D.T @ (1.0 / (1.0 + np.exp(-D @ w))) / n + 1e-2 * w
        if np.linalg.norm(g) <= 1e-12:
            break
        w -= g / L
    f_star = problem.objective(w)
    assert problem.objective(res.w) == pytest.approx(f_star, rel=1e-4)


def test_sadmm_zero_reg_identical_to_admm():
    problem = make_synthetic_problem(n=40, d=5, regularizer=ZERO, seed=6)
    cfg = SolverConfig(max_iter=40, rho_schedule=ScheduleSpec.srm(), stop_eps=0.0)
    a = admm_solve(problem, cfg)
    s = sadmm_solve(problem, cfg)
    assert np.array_equal(a.w, s.w)
    for ta, ts in zip(a.trace, s.trace):
        assert ta.objective == ts.objective
        assert ta.aug_lagrangian == ts.aug_lagrangian


def test_sadmm_reports_proximal_point(iterates):
    problem = make_synthetic_problem(n=40, d=5, regularizer=l1(0.5), seed=7)
    cfg = SolverConfig(max_iter=30, rho_schedule=ScheduleSpec.constant(1.0), stop_eps=0.0)
    res = sadmm_solve(problem, cfg)
    from rankadmm.regularizers import prox

    final_gamma = res.trace[-1].gamma
    assert len(iterates.w) == len(res.trace)
    assert np.array_equal(res.w, prox(problem.regularizer, final_gamma, iterates.w[-1]))


def test_sadmm_reports_premise_bumped_r():
    c = 1.0 / 1.5
    problem = make_synthetic_problem(n=30, d=5, regularizer=mcp(0.5, 1.5), seed=9)
    cfg = SolverConfig(max_iter=5, rho_schedule=ScheduleSpec.constant(1.0), r=0.5,
                       stop_eps=0.0)
    # r = 0.5 <= c = 1/theta, so both loops run with the bumped r = 2c
    assert sadmm_solve(problem, cfg).r_effective == pytest.approx(2.0 * c)
    assert admm_solve(problem, cfg).r_effective == pytest.approx(2.0 * c)


@pytest.mark.parametrize("solve, per_iteration", [(admm_solve, 2), (sadmm_solve, 3)])
def test_D_products_per_iteration(monkeypatch, solve, per_iteration):
    # D w_new, D (w_new - w) and, smoothed, D at the reported proximal
    # point; the objective reuses the last of these.
    from rankadmm.problem import Problem

    problem = make_synthetic_problem(n=30, d=5, regularizer=mcp(1e-2, 3.0), seed=8)
    real_apply = Problem.apply_D
    calls = []

    def counting(self, w):
        calls.append(1)
        return real_apply(self, w)

    monkeypatch.setattr(Problem, "apply_D", counting)
    cfg = SolverConfig(max_iter=10, rho_schedule=ScheduleSpec.constant(1.0), stop_eps=0.0)
    assert len(solve(problem, cfg).trace) == 10
    assert len(calls) == 1 + per_iteration * 10


def test_nonfinite_w_step_stops_at_its_iteration(monkeypatch):
    problem = make_synthetic_problem(n=20, d=4, regularizer=l2(1e-2), seed=10)
    real_solve = WSolver.solve
    calls = []

    def nan_on_third_call(self, *args, **kwargs):
        w = real_solve(self, *args, **kwargs)
        calls.append(w)
        return np.full_like(w, np.nan) if len(calls) == 3 else w

    monkeypatch.setattr(WSolver, "solve", nan_on_third_call)
    with pytest.raises(SolverError, match="w-step") as info:
        admm_solve(problem, SolverConfig(max_iter=10, stop_eps=0.0))
    assert info.value.iteration == 2


def test_nonfinite_dual_stops_at_its_iteration(monkeypatch):
    problem = make_synthetic_problem(n=20, d=4, regularizer=l2(1e-2), seed=10)
    real_z_step = admm_module.solve_z_subproblem
    calls = []

    def huge_on_second_call(*args, **kwargs):
        z = real_z_step(*args, **kwargs)
        calls.append(z)
        return np.full_like(z, 1e200) if len(calls) == 2 else z

    monkeypatch.setattr(admm_module, "solve_z_subproblem", huge_on_second_call)
    with pytest.raises(SolverError, match="non-finite") as info:
        admm_solve(problem, SolverConfig(max_iter=5, stop_eps=0.0))
    assert info.value.iteration == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("reg", [l1(1e-2), mcp(1e-2, 3.0), scad(1e-2, 3.7)],
                         ids=lambda reg: reg.variant)
def test_nonfinite_w_step_start_stops_at_its_iteration(monkeypatch, caplog, reg):
    # the same injection on the prox-gradient w-step: both of its start
    # objectives overflow, so it raises instead of iterating from either
    problem = make_synthetic_problem(n=20, d=4, regularizer=reg, seed=10)
    real_z_step = admm_module.solve_z_subproblem
    calls = []

    def huge_on_second_call(*args, **kwargs):
        z = real_z_step(*args, **kwargs)
        calls.append(z)
        return np.full_like(z, 1e200) if len(calls) == 2 else z

    monkeypatch.setattr(admm_module, "solve_z_subproblem", huge_on_second_call)
    with pytest.raises(SolverError, match="w-step objective is non-finite") as info:
        admm_solve(problem, SolverConfig(max_iter=5, stop_eps=0.0))
    assert info.value.iteration == 1
    assert "prox-gradient mapping" not in caplog.text


def test_gamma_clamp_warns():
    problem = make_synthetic_problem(n=20, d=4, regularizer=mcp(0.5, 1.5), seed=8)
    cfg = SolverConfig(max_iter=2, rho_schedule=ScheduleSpec.constant(1.0), r=2.0,
                       gamma=1.0, stop_eps=0.0)
    c = problem.regularizer.weak_convexity_c
    assert c * 1.0 > 1.0 / 3.0
    with pytest.warns(RuntimeWarning, match="clamping"):
        res = sadmm_solve(problem, cfg)
    assert res.trace[0].gamma == pytest.approx(1.0 / (3.0 * c))


def test_lyapunov_zero_violations_on_premise_instance():
    problem = make_synthetic_problem(n=20, d=30, regularizer=mcp(0.01, 4.0),
                                     seed=9, class_sep=2.0, flip_fraction=0.05)
    sigma = sigma_min_positive(problem)
    assert sigma is not None and sigma > 0
    rho, r, gamma = 10.0, 2.0, 1.0
    coeff = (2 * r - 1 / gamma) / 2 - 4 * r**2 / (sigma * rho) - 2 / (sigma * rho * gamma**2)
    assert coeff > 0
    cfg = SolverConfig(max_iter=80, rho_schedule=ScheduleSpec.constant(rho), r=r,
                       gamma=gamma, stop_eps=0.0)
    rng = np.random.default_rng(0)
    res = sadmm_solve(problem, cfg, w0=rng.standard_normal(problem.d) * 0.5)
    report = lyapunov_check(res.trace, r=r, sigma_min=sigma,
                            c=problem.regularizer.weak_convexity_c)
    assert report.skipped_reason is None
    assert report.violations == []


def test_lyapunov_skips_nonpositive_coefficient():
    problem = make_synthetic_problem(n=20, d=30, regularizer=mcp(0.01, 4.0), seed=9)
    sigma = sigma_min_positive(problem)
    cfg = SolverConfig(max_iter=5, rho_schedule=ScheduleSpec.constant(0.01), r=2.0,
                       gamma=1.0, stop_eps=0.0)
    res = sadmm_solve(problem, cfg)
    report = lyapunov_check(res.trace, r=2.0, sigma_min=sigma)
    assert report.skipped_reason is not None
    assert report.violations == []


@pytest.mark.parametrize("gamma", [None, 1.0])
def test_lyapunov_violations_match_a_row_loop(gamma, rng):
    # a made-up constant-rho trace whose L_k moves at random, so some
    # steps fall short of the required decrease and others meet it
    r, rho, sigma, c, tol = 2.0, 10.0, 50.0, 0.5, 1e-8
    trace = trace_array([(k, 0.0, float(rng.normal()), 0.0, float(rng.uniform(0, 1)),
                          0.0, float(rng.uniform(0, 1)), 0.0, 0.0, rho,
                          math.nan if gamma is None else gamma, 0)
                         for k in range(40)])
    report = lyapunov_check(trace, r=r, sigma_min=sigma, c=c, tol=tol)
    assert report.skipped_reason is None
    expected = []
    for k in range(len(trace) - 1):
        row, nxt = trace[k], trace[k + 1]
        dw, dw_next = row.kkt_w / r, nxt.kkt_w / r
        if gamma is None:
            coeff = (2.0 * r - c) / 2.0
            phi, phi_next = row.aug_lagrangian, nxt.aug_lagrangian
            required = coeff * dw_next**2 - nxt.dual_step**2 / rho
        else:
            coeff = ((2.0 * r - 1.0 / gamma) / 2.0 - 4.0 * r**2 / (sigma * rho)
                     - 2.0 / (sigma * rho * gamma**2))
            scale = 2.0 * r**2 / (sigma * rho)
            phi = row.aug_lagrangian + scale * dw**2
            phi_next = nxt.aug_lagrangian + scale * dw_next**2
            required = coeff * dw_next**2 + nxt.dual_step**2 / rho
        if phi - phi_next < required - tol * max(1.0, abs(phi)):
            expected.append(k)
    assert report.coefficient == coeff
    assert 0 < len(expected) < len(trace) - 1
    assert report.violations == expected


def test_lyapunov_single_row_empty():
    problem = make_synthetic_problem(n=10, d=3, seed=10)
    cfg = SolverConfig(max_iter=1, rho_schedule=ScheduleSpec.constant(1.0), stop_eps=0.0)
    res = admm_solve(problem, cfg)
    report = lyapunov_check(res.trace, r=1.0, sigma_min=1.0)
    assert report.violations == []


def test_plain_descent_check_unsmoothed():
    problem = make_synthetic_problem(n=30, d=5, regularizer=l2(1e-2), seed=11)
    cfg = SolverConfig(max_iter=40, rho_schedule=ScheduleSpec.constant(1.0), r=1.0,
                       stop_eps=0.0)
    res = admm_solve(problem, cfg)
    report = lyapunov_check(res.trace, r=1.0, sigma_min=1.0, c=0.0)
    assert report.violations == []


def test_lyapunov_skips_a_trace_without_constant_rho_and_gamma():
    problem = make_synthetic_problem(n=20, d=4, regularizer=mcp(0.01, 4.0), seed=9)
    cfg = SolverConfig(max_iter=5, rho_schedule=ScheduleSpec.constant(1.0), stop_eps=0.0)
    # the default smoothing parameter decays from one iteration to the next
    report = lyapunov_check(sadmm_solve(problem, cfg).trace, r=1.0, sigma_min=1.0)
    assert report.skipped_reason == "trace has no constant gamma"
    assert report.violations == []
    # the subgradient baseline has no penalty weight: its rho column is 0
    trace = sgd_solve(problem, SgdConfig(epochs=5)).trace
    report = lyapunov_check(trace, r=1.0, sigma_min=1.0)
    assert report.skipped_reason == "trace has no constant positive rho"
    assert report.violations == []


def test_default_smoothing_logs_no_premise_warning(caplog):
    problem = make_synthetic_problem(n=20, d=4, regularizer=mcp(0.01, 4.0), seed=9)
    with caplog.at_level("WARNING", logger="rankadmm.admm"):
        sadmm_solve(problem, SolverConfig(max_iter=5))
    assert not [rec for rec in caplog.records if "premise" in rec.getMessage()]


def test_held_gamma_outside_the_premise_logs_once(caplog):
    problem = make_synthetic_problem(n=20, d=4, regularizer=mcp(0.01, 4.0), seed=9)
    cfg = SolverConfig(max_iter=5, r=1.0, gamma=0.1, stop_eps=0.0)  # r <= 1/gamma = 10
    with caplog.at_level("WARNING", logger="rankadmm.admm"):
        sadmm_solve(problem, cfg)
    premise = [rec.getMessage() for rec in caplog.records if "premise" in rec.getMessage()]
    assert premise == ["r=1 does not exceed 1/gamma=10; run is outside the "
                       "smoothed-descent premise"]


@pytest.mark.parametrize("config_class, name, value", [
    (SolverConfig, "stop_eps", math.nan),
    (SolverConfig, "stop_eps", -1e-6),
    *[(cls, "wall_budget_s", budget)
      for cls in (SolverConfig, SgdConfig) for budget in (0.0, -1.0, math.nan)],
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_config_rejects_bad_stop_settings(config_class, name, value):
    with pytest.raises(InvalidParameterError, match=name):
        config_class(**{name: value})


def test_augmented_lagrangian_value(iterates):
    check_augmented_lagrangian(iterates, ERM())


def test_augmented_lagrangian_value_dependent_weights(iterates):
    # These weights are evaluated on the sorted margins, so the loop's
    # rank-loss value must take z in ascending order.
    check_augmented_lagrangian(iterates, CPTValueDependent())


def check_augmented_lagrangian(iterates, weights):
    problem = make_synthetic_problem(n=12, d=3, weights=weights, regularizer=l2(0.1),
                                     seed=12)
    cfg = SolverConfig(max_iter=8, rho_schedule=ScheduleSpec.constant(2.5), stop_eps=0.0)
    res = admm_solve(problem, cfg)
    states = iterates.states(problem)
    assert len(states) == len(res.trace) + 1
    for (w, z, lam, Dw), row in zip(states[1:], res.trace):
        resid = z - Dw
        expected = (
            problem.rank_loss(z)
            + float(lam @ resid)
            + 0.5 * 2.5 * float(resid @ resid)
            + reg_value(problem.regularizer, w)
        )
        assert row.aug_lagrangian == pytest.approx(expected, rel=1e-12)


def test_trace_csv_roundtrip(tmp_path):
    problem = make_synthetic_problem(n=20, d=4, regularizer=l2(1e-2), seed=13)
    cfg = SolverConfig(max_iter=10, rho_schedule=ScheduleSpec.srm(), stop_eps=0.0)
    res = admm_solve(problem, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    back = read_trace_csv(path)
    # bitwise, so the NaN of an uncomputed gamma compares equal
    assert back.tobytes() == res.trace.tobytes()


def test_trace_csv_bytes_pinned(tmp_path):
    row = trace_array([(3, 0.1, -2.5, 1e-300, 0.0, 1.0 / 3.0, 2.0, -0.0, 7e22,
                        1.2, math.nan, 123456789)])
    header = ("k,objective,aug_lagrangian,kkt_z,kkt_w,kkt_feas,dual_step,"
              "z_decrease,w_decrease,rho,gamma,wall_ns\r\n")
    body = "3,0.1,-2.5,1e-300,0.0,0.3333333333333333,2.0,-0.0,7e+22,1.2,,{}\r\n"
    path = tmp_path / "trace.csv"
    write_trace_csv(row, path)
    assert path.read_bytes() == (header + body.format(123456789)).encode()
    write_trace_csv(row, path, include_wall=False)
    assert path.read_bytes() == (header + body.format(0)).encode()
    smoothed = row.copy()
    smoothed.gamma = 1e-05
    write_trace_csv(smoothed, path)
    assert path.read_bytes().splitlines()[1] == (
        b"3,0.1,-2.5,1e-300,0.0,0.3333333333333333,2.0,-0.0,7e+22,1.2,1e-05,123456789"
    )
    assert read_trace_csv(path).tolist() == smoothed.tolist()


@pytest.mark.parametrize("solver", ["admm", "sadmm", "sgd"])
def test_trace_csv_write_read_write_bytes(solver, tmp_path):
    problem = make_synthetic_problem(n=20, d=4, regularizer=l1(1e-2), seed=13)
    if solver == "sgd":
        trace = sgd_solve(problem, SgdConfig(epochs=6, seed=2)).trace
    else:
        cfg = SolverConfig(max_iter=10, rho_schedule=ScheduleSpec.srm(), stop_eps=0.0)
        trace = (sadmm_solve if solver == "sadmm" else admm_solve)(problem, cfg).trace
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace_csv(trace, first)
    write_trace_csv(read_trace_csv(first), second)
    assert first.read_bytes() == second.read_bytes()
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace)
    # an uncomputed gamma is an empty cell; sgd's missing augmented
    # Lagrangian is a number, NaN
    assert "lyapunov" not in rows[0]
    assert all((row["gamma"] != "") == (solver == "sadmm") for row in rows)
    assert all((row["aug_lagrangian"] == "nan") == (solver == "sgd") for row in rows)


@pytest.mark.parametrize("schedule", [ScheduleSpec.constant, ScheduleSpec.srm])
def test_numpy_scalar_rho_gives_the_same_trace(schedule, tmp_path):
    # the merge-heavy z-step of a logistic superquantile run
    problem = make_synthetic_problem(n=40, d=4, weights=Superquantile(0.9),
                                     regularizer=l2(1e-2), seed=13)
    paths = []
    for rho in (1e-3, np.float64(1e-3)):
        cfg = SolverConfig(max_iter=20, rho_schedule=schedule(rho), stop_eps=0.0)
        paths.append(tmp_path / f"{type(rho).__name__}.csv")
        write_trace_csv(admm_solve(problem, cfg).trace, paths[-1], include_wall=False)
    assert paths[0].read_bytes() == paths[1].read_bytes()


#: Settings made from a float type: each value is one that float32 holds exactly.
_FLOAT_SETTINGS = {
    "admm-l1": lambda f: (admm_solve, l1(f(0.25)), SolverConfig(
        max_iter=15, r=f(4.0), stop_eps=f(2.0**-30), wall_budget_s=f(1024.0))),
    "admm-l2": lambda f: (admm_solve, l2(f(0.5)), SolverConfig(max_iter=15, r=f(4.0))),
    "sadmm-mcp": lambda f: (sadmm_solve, mcp(f(0.25), f(4.0)), SolverConfig(
        max_iter=15, r=f(4.0), gamma=f(0.5))),
    "sgd": lambda f: (sgd_solve, l2(f(0.5)), SgdConfig(
        learning_rate=f(0.125), epochs=5, wall_budget_s=f(1024.0))),
}


@pytest.mark.parametrize("case", sorted(_FLOAT_SETTINGS))
def test_float32_settings_give_the_same_trace(case, tmp_path):
    # Stored as given, a float32 setting would take numpy 2's promotion
    # rules into the run and compute parts of it in float32.
    paths = []
    for cast in (float, np.float32):
        solve, reg, cfg = _FLOAT_SETTINGS[case](cast)
        out = solve(make_synthetic_problem(n=80, d=6, regularizer=reg, seed=5), cfg)
        paths.append(tmp_path / f"{cast.__name__}.csv")
        write_trace_csv(out.trace, paths[-1], include_wall=False)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_reproducibility_without_wall(tmp_path):
    problem = make_synthetic_problem(n=25, d=4, regularizer=l2(1e-2), seed=14)
    cfg = SolverConfig(max_iter=15, rho_schedule=ScheduleSpec.srm(), stop_eps=0.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(admm_solve(problem, cfg).trace, p1, include_wall=False)
    write_trace_csv(admm_solve(problem, cfg).trace, p2, include_wall=False)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("solve, reg", [(admm_solve, l2(1e-2)), (sadmm_solve, mcp(1e-2, 3.0))])
def test_dense_solve_allocates_no_n_by_d_array(solve, reg):
    # The w-step runs on X itself: a signed n x d copy of the data alone
    # would take twice the bound.
    n, d = 4000, 200
    problem = make_synthetic_problem(n=n, d=d, regularizer=reg)
    tracemalloc.start()
    try:
        solve(problem, SolverConfig(max_iter=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8 / 2


def test_sigma_min_positive_small():
    problem = make_synthetic_problem(n=10, d=20, seed=15)
    sig = sigma_min_positive(problem)
    D = -problem.y[:, None] * problem.X
    eig = np.linalg.eigvalsh(D @ D.T)
    assert sig == pytest.approx(eig[eig > 1e-9][0], rel=1e-9)
    assert sigma_min_positive(problem, limit=10) is None


def test_theory_mode_config():
    problem = make_synthetic_problem(n=15, d=20, regularizer=mcp(0.1, 4.0), seed=16)
    cfg = theory_mode_config(problem, eps=0.01)
    assert cfg.rho_schedule.kind == "constant"
    assert cfg.r == pytest.approx(2.0 / 0.01)
    assert cfg.gamma == pytest.approx(0.01)
    cfg = theory_mode_config(problem, eps=0.01, max_iter=40, stop_eps=1e-4)
    assert (cfg.max_iter, cfg.stop_eps) == (40, 1e-4)
    with pytest.raises(InvalidParameterError):
        theory_mode_config(make_synthetic_problem(n=10, d=4, regularizer=l2(0.1), seed=1), eps=0.01)


def test_constant_rho_feasibility_within_300():
    # with a fixed penalty and no early stop, the residual norm falls
    # below 1e-3 inside the standard iteration budget
    problem = make_synthetic_problem(n=200, d=20, regularizer=l2(1e-2), seed=7)
    cfg = SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.constant(1.0),
                       r=0.5, stop_eps=0.0)
    res = admm_solve(problem, cfg)
    assert res.trace[-1].kkt_feas <= 1e-3


def test_wall_budget_stops_early():
    problem = make_synthetic_problem(n=60, d=8, regularizer=l2(1e-2), seed=17)
    cfg = SolverConfig(max_iter=100000, rho_schedule=ScheduleSpec.constant(1.0),
                       stop_eps=0.0, wall_budget_s=0.3)
    res = admm_solve(problem, cfg)
    assert len(res.trace) < 100000
    assert res.stop_reason == "wall_budget"
    assert not res.converged


def test_stop_reason_eps():
    problem = make_synthetic_problem(n=60, d=8, regularizer=l2(1e-2), seed=17)
    cfg = SolverConfig(max_iter=2000, rho_schedule=ScheduleSpec.constant(0.1), stop_eps=1e-3)
    res = admm_solve(problem, cfg)
    assert res.stop_reason == "eps"
    assert res.converged
    last = res.trace[-1]
    assert len(res.trace) < 2000
    assert max(last.kkt_z, last.kkt_w, last.kkt_feas) <= 1e-3


@pytest.mark.parametrize("solve", [admm_solve, sadmm_solve])
def test_stop_reason_max_iter(solve):
    problem = make_synthetic_problem(n=60, d=8, regularizer=l1(1e-2), seed=17)
    cfg = SolverConfig(max_iter=7, rho_schedule=ScheduleSpec.constant(1.0), stop_eps=0.0)
    res = solve(problem, cfg)
    assert res.stop_reason == "max_iter"
    assert not res.converged
    assert len(res.trace) == 7


def test_invalid_config():
    with pytest.raises(InvalidParameterError):
        SolverConfig(max_iter=0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(r=0.0)


@pytest.mark.parametrize("max_iter", [2.5, 2.0, "3", None])
def test_config_rejects_a_max_iter_not_integral(max_iter):
    with pytest.raises(InvalidParameterError, match="max_iter must be an integer"):
        SolverConfig(max_iter=max_iter)


def test_config_takes_a_numpy_integer_max_iter():
    res = admm_solve(make_synthetic_problem(), SolverConfig(max_iter=np.int64(3), stop_eps=0.0))
    assert len(res.trace) == 3


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_config_rejects_an_r_not_finite(r):
    with pytest.raises(InvalidParameterError, match="r must be positive and finite"):
        SolverConfig(r=r)


@pytest.mark.parametrize("kind", ["constant", "srm", "aorr", "ehrm"])
def test_schedule_rejects_a_rho0_not_finite(kind):
    with pytest.raises(InvalidParameterError, match="rho0 must be positive and finite"):
        ScheduleSpec(kind, math.inf)
