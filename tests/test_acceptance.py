"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass lines as
they complete.
"""

import time

import numpy as np
import pytest

from rankadmm.admm import (
    ScheduleSpec,
    SolverConfig,
    admm_solve,
    lyapunov_check,
    sadmm_solve,
    sigma_min_positive,
    write_trace_csv,
)
from rankadmm.baselines import SgdConfig, rank_subgradient, sgd_solve
from rankadmm.losses import LossKind
from rankadmm.oracle import chain_objective_reference, grid_dp_chain
from rankadmm.pava import merge_blocks, solve_z_subproblem
from rankadmm.regularizers import (
    ZERO,
    l1,
    l2,
    mcp,
    moreau_value_and_grad,
    prox,
    scad,
)
from rankadmm.weights import (
    AoRR,
    CPTValueDependent,
    ERM,
    ESRM,
    Explicit,
    Extremile,
    Superquantile,
    cpt_omega,
    resolve,
)
from tests.conftest import make_synthetic_problem
from tests.reference import block_hi, pairwise_merge_chain, record_merges


def passline(num, text):
    print(f"[PASS] criterion {num}: {text}", flush=True)


def random_constant_weights(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        sigma = rng.uniform(0.0, 1.0, size=n)
        sigma[rng.random(n) < 0.3] = 0.0
        return resolve(Explicit(sigma), n)
    if kind == 1:
        return resolve(Superquantile(float(rng.uniform(0.0, 0.9))), n)
    return resolve(ERM(), n)


def test_criterion_1_pava_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    rhos = [0.1, 1.0, 10.0]
    for trial in range(200):
        n = int(rng.integers(2, 9))
        kind = LossKind.HINGE if trial % 2 else LossKind.LOGISTIC
        rho = rhos[trial % 3]
        m = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        resolved = random_constant_weights(rng, n)
        z = solve_z_subproblem(m, resolved, rho, kind)
        order = np.argsort(m, kind="stable")
        assert np.all(np.diff(z[order]) >= 0.0), "output must be isotonic exactly"
        _, ref = grid_dp_chain(m, resolved, rho, kind)
        got = chain_objective_reference(z, m, resolved, rho, kind)
        assert abs(got - ref) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passline(1, f"200 instances match the grid reference (<=1e-3) in {elapsed:.1f}s")


def test_criterion_2_merge_interval(monkeypatch):
    rng = np.random.default_rng(202)
    merges = record_merges(monkeypatch)
    instances = 0
    while len(merges) < 10**4 and instances < 2000:
        n = int(rng.integers(20, 120))
        m = np.sort(rng.standard_normal(n) * float(rng.uniform(0.2, 1.0)))
        resolved = random_constant_weights(rng, n)
        kind = LossKind.HINGE if instances % 2 else LossKind.LOGISTIC
        merge_blocks(m, resolved, float(rng.choice([0.3, 1.0, 5.0])), kind)
        instances += 1
    assert len(merges) >= 10**4, f"only {len(merges)} merges recorded"
    violations = [e for e in merges if not (e.v_lo - 1e-9 <= e.v <= e.v_hi + 1e-9)]
    assert violations == []
    passline(2, f"{len(merges)} merges, merged value always inside [right, left] interval")


def test_criterion_3_fast_path_identical():
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(3, 501))
        k = int(rng.integers(2, n + 1))
        m_idx = int(rng.integers(1, k))
        resolved = resolve(AoRR(k=k, m=m_idx), n)
        m = np.sort(rng.standard_normal(n) * float(rng.uniform(0.5, 2.0)))
        kind = LossKind.HINGE if trial % 2 else LossKind.LOGISTIC
        rho = float(rng.choice([0.1, 1.0, 10.0]))
        engine = merge_blocks(m, resolved, rho, kind)
        reference = pairwise_merge_chain(m, resolved.sigma, rho, kind)
        assert list(zip(engine.lo.tolist(), block_hi(engine).tolist())) == [
            (lo, hi) for lo, hi, _ in reference
        ]
        gaps = abs(engine.z[engine.lo] - [v for *_, v in reference])
        assert max(gaps) <= 1e-12
    passline(3, "ranked-range partitions identical to pairwise merging on 100 instances (n<=500)")


def test_criterion_4_refined_vs_classic():
    rng = np.random.default_rng(404)
    for trial in range(150):
        n = int(rng.integers(2, 80))
        m = np.sort(rng.standard_normal(n) * float(rng.uniform(0.2, 2.0)))
        resolved = random_constant_weights(rng, n)
        kind = LossKind.HINGE if trial % 2 else LossKind.LOGISTIC
        rho = float(rng.choice([0.1, 1.0, 10.0]))
        refined = merge_blocks(m, resolved, rho, kind)
        classic = pairwise_merge_chain(m, resolved.sigma, rho, kind)
        assert list(zip(refined.lo.tolist(), block_hi(refined).tolist())) == [
            (lo, hi) for lo, hi, _ in classic
        ]
    passline(4, "merge-pass partitions identical to pairwise merging")


def test_criterion_5_admm_reaches_global_optimum():
    start = time.perf_counter()
    problem = make_synthetic_problem(n=200, d=20, loss=LossKind.LOGISTIC,
                                     regularizer=l2(1e-2), seed=7)
    cfg = SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.srm(), r=0.1,
                       stop_eps=0.0)
    res = admm_solve(problem, cfg)
    assert len(res.trace) == 300

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
    rel = abs(problem.objective(res.w) - f_star) / abs(f_star)
    assert rel <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passline(5, f"uniform-weight logistic+l2 run within {rel:.1e} of the descent oracle "
                f"in {elapsed:.1f}s")


def test_criterion_6_kkt_surrogates_converge(iterates):
    problem = make_synthetic_problem(n=150, d=10, loss=LossKind.HINGE,
                                     weights=Superquantile(0.8),
                                     regularizer=l2(1e-2), seed=3)
    cfg = SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.constant(1.0),
                       r=1.0, stop_eps=0.0)
    res = admm_solve(problem, cfg)
    best = min(max(t.kkt_z, t.kkt_w, t.kkt_feas) for t in res.trace)
    final = res.trace[-1]
    assert max(final.kkt_z, final.kkt_w, final.kkt_feas) <= 1e-3
    # lambda as each z-step sees it moves by rho (z - Dw) of the iteration before
    states = iterates.states(problem)
    assert len(states) == len(res.trace) + 1
    for k in range(1, len(res.trace)):
        _, z, _, Dw = states[k]
        dlam = iterates.dual_seen(problem, k) - iterates.dual_seen(problem, k - 1)
        drift = np.linalg.norm(dlam - iterates.rho[k - 1] * (z - Dw))
        assert drift <= 1e-12 * max(1.0, float(np.linalg.norm(dlam)))
    passline(6, f"superquantile hinge run reaches max surrogate {best:.1e} "
                "and the dual identity holds to 1e-12")


def test_criterion_7_descent_inequalities():
    # z- and w-descent on constant-weight runs across schedules and losses.
    # Iteration counts keep the penalty weight below ~1e7: beyond that a
    # 1e-10 margin falls under double-precision rounding of the dual terms.
    combos = [
        (ERM(), l2(1e-2), LossKind.LOGISTIC, ScheduleSpec.srm(), 150),
        (Superquantile(0.8), l2(1e-2), LossKind.HINGE, ScheduleSpec.constant(1.0), 300),
        (Superquantile(0.5), l1(1e-2), LossKind.LOGISTIC, ScheduleSpec.srm(), 150),
        (AoRR(k=20, m=5), l2(1e-4), LossKind.HINGE, ScheduleSpec.aorr(), 60),
    ]
    for weights, reg, kind, schedule, iters in combos:
        problem = make_synthetic_problem(n=60, d=8, weights=weights,
                                         regularizer=reg, loss=kind, seed=13)
        cfg = SolverConfig(max_iter=iters, rho_schedule=schedule, r=0.5, stop_eps=0.0)
        res = admm_solve(problem, cfg)
        assert min(t.z_decrease for t in res.trace) >= -1e-10
        assert min(t.w_decrease for t in res.trace) >= -1e-10

    # certificate decrease on the premise-satisfying smoothed instance
    problem = make_synthetic_problem(n=20, d=30, regularizer=mcp(0.01, 4.0),
                                     seed=9, class_sep=2.0, flip_fraction=0.05)
    sigma = sigma_min_positive(problem)
    rho, r, gamma = 10.0, 2.0, 1.0
    coeff = (2 * r - 1 / gamma) / 2 - 4 * r**2 / (sigma * rho) - 2 / (sigma * rho * gamma**2)
    assert coeff > 0, "test instance must satisfy the descent premise"
    cfg = SolverConfig(max_iter=100, rho_schedule=ScheduleSpec.constant(rho), r=r,
                       gamma=gamma, stop_eps=0.0)
    rng = np.random.default_rng(0)
    res = sadmm_solve(problem, cfg, w0=rng.standard_normal(problem.d) * 0.5)
    report = lyapunov_check(res.trace, r=r, sigma_min=sigma,
                            c=problem.regularizer.weak_convexity_c)
    assert report.skipped_reason is None
    assert report.violations == []
    passline(7, "z/w descent every iteration; certificate decrease with zero violations")


def test_criterion_8_moreau_layer():
    rng = np.random.default_rng(808)
    specs = [ZERO, l2(0.8), l1(1.2), mcp(0.7, 4.0), scad(0.5, 3.5)]
    for spec in specs:
        c = spec.weak_convexity_c
        gamma = 0.3 if c == 0 else 1.0 / (3.0 * c)
        for _ in range(100):
            w = rng.uniform(-2.0, 2.0, size=3)
            value, grad = moreau_value_and_grad(spec, gamma, w)
            h = 1e-6
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                vp, _ = moreau_value_and_grad(spec, gamma, w + e)
                vm, _ = moreau_value_and_grad(spec, gamma, w - e)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j])) + 1e-7

    # closed-form membership of the envelope gradient in the subdifferential
    for _ in range(200):
        w = rng.uniform(-3.0, 3.0, size=4)
        gamma = float(rng.uniform(0.05, 1.0))
        spec = l1(1.4)
        p = prox(spec, gamma, w)
        _, grad = moreau_value_and_grad(spec, gamma, w)
        half = spec.mu / 2.0
        for pj, gj in zip(p, grad):
            if pj > 0:
                assert abs(gj - half) <= 1e-12
            elif pj < 0:
                assert abs(gj + half) <= 1e-12
            else:
                assert abs(gj) <= half + 1e-12
        spec = l2(0.9)
        p = prox(spec, gamma, w)
        _, grad = moreau_value_and_grad(spec, gamma, w)
        assert np.linalg.norm(grad - spec.mu * p) <= 1e-12

    # squared-distance contraction bound of the proximal map
    for spec in [l1(1.2), mcp(0.7, 4.0), scad(0.5, 3.5)]:
        c = spec.weak_convexity_c
        gamma = 0.25 if c == 0 else 1.0 / (3.0 * c)
        x = rng.uniform(-3.0, 3.0, size=(10**4, 2))
        y = rng.uniform(-3.0, 3.0, size=(10**4, 2))
        px = np.stack([prox(spec, gamma, row) for row in x])
        py = np.stack([prox(spec, gamma, row) for row in y])
        lhs = np.sum((px - py) ** 2, axis=1)
        rhs = 3.0 * np.sum((x - y) ** 2, axis=1)
        assert np.all(lhs <= rhs + 1e-12)
    passline(8, "envelope gradient matches finite differences, membership and "
                "contraction bounds hold")


def test_criterion_9_weight_generators():
    for scheme in (ERM(), Superquantile(0.5), Superquantile(0.9),
                   Extremile(2.0), ESRM(1.3)):
        for n in (1, 2, 10, 10**3):
            sigma = resolve(scheme, n).sigma
            assert abs(sigma.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(sigma) >= -1e-12)
            assert np.all(sigma >= 0.0)
    sigma = AoRR(7, 2).resolve(12)
    assert abs(sigma.sum() - 1.0) <= 1e-12
    assert int(np.count_nonzero(sigma)) == 5
    resolved = resolve(CPTValueDependent(B=0.0), 9)
    assert resolved.sigma_for(np.full(9, -1.0)).sum() == pytest.approx(1.0, abs=1e-12)
    assert resolved.sigma_for(np.full(9, 1.0)).sum() == pytest.approx(1.0, abs=1e-12)
    for exponent in (0.3, 0.61, 0.69, 1.0):
        assert cpt_omega(0.0, exponent) == 0.0
        assert cpt_omega(1.0, exponent) == 1.0
    passline(9, "weight families normalized, ordered, and telescoping as required")


def test_criterion_10_baseline_contrast():
    problem = make_synthetic_problem(n=50, d=6, weights=ERM(),
                                     regularizer=l2(1e-2), seed=21)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(6)
    g = rank_subgradient(problem, w, np.arange(50))
    D = -problem.y[:, None] * problem.X
    avg = D.T @ (1.0 / (1.0 + np.exp(-D @ w))) / 50 + 1e-2 * w
    assert np.linalg.norm(g - avg) <= 1e-12 * max(1.0, np.linalg.norm(avg))

    problem = make_synthetic_problem(n=400, d=30, loss=LossKind.LOGISTIC,
                                     weights=Superquantile(0.8),
                                     regularizer=l2(1e-2), seed=22)
    budget = 10.0
    res = admm_solve(problem, SolverConfig(
        max_iter=300, rho_schedule=ScheduleSpec.srm(), r=0.1, stop_eps=0.0,
        wall_budget_s=budget,
    ))
    w_sgd = sgd_solve(problem, SgdConfig(
        learning_rate=1e-3, batch=64, epochs=10**6, seed=0, wall_budget_s=budget,
    )).w
    f_admm = problem.objective(res.w)
    f_sgd = problem.objective(w_sgd)
    assert f_admm <= f_sgd
    passline(10, f"uniform-weight gradient identity to 1e-12; equal-budget objectives "
                 f"{f_admm:.5f} (admm) <= {f_sgd:.5f} (sgd)")


def test_criterion_11_smoothed_agreement():
    problem = make_synthetic_problem(n=200, d=20, loss=LossKind.LOGISTIC,
                                     weights=ERM(), regularizer=l1(1e-2), seed=11)
    cfg = SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.srm(), r=0.1,
                       stop_eps=0.0)
    res_plain = admm_solve(problem, cfg)
    res_smooth = sadmm_solve(problem, cfg)
    f_plain = problem.objective(res_plain.w)
    f_smooth = problem.objective(res_smooth.w)
    rel = abs(f_plain - f_smooth) / abs(f_plain)
    assert rel <= 5e-3

    problem0 = make_synthetic_problem(n=80, d=10, regularizer=ZERO, seed=12)
    a = admm_solve(problem0, cfg)
    s = sadmm_solve(problem0, cfg)
    assert np.max(np.abs(a.w - s.w)) <= 1e-12
    for ta, ts in zip(a.trace, s.trace):
        assert abs(ta.objective - ts.objective) <= 1e-12
        assert abs(ta.aug_lagrangian - ts.aug_lagrangian) <= 1e-12
    passline(11, f"smoothed and plain runs agree to {rel:.1e} on l1; identical with "
                 "no penalty")


def test_criterion_12_bit_identical_traces(tmp_path):
    problem = make_synthetic_problem(n=100, d=12, weights=Superquantile(0.7),
                                     regularizer=l2(1e-2), seed=31)
    cfg = SolverConfig(max_iter=60, rho_schedule=ScheduleSpec.srm(), r=0.5, stop_eps=0.0)
    paths = []
    for tag in ("one", "two"):
        res = admm_solve(problem, cfg)
        path = tmp_path / f"{tag}.csv"
        write_trace_csv(res.trace, path, include_wall=False)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    passline(12, "the same solve twice gives bit-identical trace files")
