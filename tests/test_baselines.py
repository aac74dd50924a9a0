import numpy as np
import pytest

from rankadmm.admm import SolverConfig, ScheduleSpec, admm_solve
from rankadmm.baselines import SgdConfig, rank_subgradient, sgd_solve
from rankadmm.errors import InvalidParameterError, SolverError
from rankadmm.losses import LossKind, loss_value
from rankadmm.regularizers import l2
from rankadmm.weights import ERM, Explicit, Superquantile, resolve
from tests.conftest import make_synthetic_problem


def test_uniform_weights_equal_average_gradient(rng):
    problem = make_synthetic_problem(n=50, d=6, weights=ERM(), regularizer=l2(0.3), seed=1)
    w = rng.standard_normal(6)
    g = rank_subgradient(problem, w, np.arange(50))
    D = -problem.y[:, None] * problem.X
    z = D @ w
    expected = D.T @ (1.0 / (1.0 + np.exp(-z))) / 50 + 0.3 * w
    assert np.linalg.norm(g - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_max_loss_weights_support(rng):
    n = 10
    sigma = np.zeros(n)
    sigma[-1] = 1.0
    problem = make_synthetic_problem(n=n, d=4, weights=Explicit(sigma), seed=2)
    w = rng.standard_normal(4)
    g = rank_subgradient(problem, w, np.arange(n))
    z = problem.apply_D(w)
    worst = int(np.argmax(z))
    expected = -problem.y[worst] * problem.X[worst] / (1.0 + np.exp(-z[worst]))
    assert g == pytest.approx(expected, abs=1e-12)


def test_subgradient_matches_directional_derivative(rng):
    problem = make_synthetic_problem(n=24, d=5, weights=Superquantile(0.6), seed=3)
    resolved = resolve(Superquantile(0.6), 24)

    def batch_objective(w):
        z = problem.apply_D(w)
        losses = np.sort([loss_value(LossKind.LOGISTIC, v) for v in z])
        return float(resolved.sigma @ losses)

    w = rng.standard_normal(5)
    # keep away from ties so the objective is differentiable at w
    z = problem.apply_D(w)
    assert np.min(np.diff(np.sort(z))) > 1e-6
    g = rank_subgradient(problem, w, np.arange(24))
    h = 1e-6
    for _ in range(5):
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        fd = (batch_objective(w + h * direction) - batch_objective(w - h * direction)) / (2 * h)
        assert fd == pytest.approx(float(g @ direction), abs=1e-5)


def test_empty_batch_rejected():
    problem = make_synthetic_problem(n=8, d=3, seed=4)
    with pytest.raises(InvalidParameterError):
        rank_subgradient(problem, np.zeros(3), np.array([], dtype=int))


def test_zero_learning_rate_keeps_w():
    problem = make_synthetic_problem(n=20, d=4, seed=5)
    w, trace = sgd_solve(problem, SgdConfig(learning_rate=0.0, epochs=3, seed=0))
    assert w == pytest.approx(np.zeros(4))
    assert len(trace) == 3


def test_deterministic_under_seed():
    problem = make_synthetic_problem(n=30, d=4, regularizer=l2(1e-2), seed=6)
    cfg = SgdConfig(learning_rate=1e-3, batch=8, epochs=20, seed=9)
    w1, t1 = sgd_solve(problem, cfg)
    w2, t2 = sgd_solve(problem, cfg)
    assert np.array_equal(w1, w2)
    assert [r.objective for r in t1] == [r.objective for r in t2]


def test_sgd_approaches_admm_on_strongly_convex(rng):
    problem = make_synthetic_problem(n=60, d=5, weights=ERM(),
                                     regularizer=l2(1.0), seed=7)
    w_sgd, _ = sgd_solve(problem, SgdConfig(learning_rate=1e-3, batch=8, epochs=2000, seed=0))
    res = admm_solve(problem, SolverConfig(max_iter=300, rho_schedule=ScheduleSpec.srm(),
                                           r=0.1, stop_eps=0.0))
    assert problem.objective(w_sgd) <= problem.objective(res.w) + 1e-2


def test_config_validation():
    for rate in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="learning rate"):
            SgdConfig(learning_rate=rate)
    with pytest.raises(InvalidParameterError):
        SgdConfig(epochs=0)
    with pytest.raises(InvalidParameterError):
        SgdConfig(batch=0)
    with pytest.raises(InvalidParameterError):
        SgdConfig(batch=5.5)


@pytest.mark.parametrize("name", ["epochs", "batch"])
@pytest.mark.parametrize("value", [2.5, 2.0, "3"])
def test_config_rejects_counts_not_integral(name, value):
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
        SgdConfig(**{name: value})


def test_config_takes_numpy_integer_counts():
    problem = make_synthetic_problem(n=20, d=3, weights=ERM(), seed=0)
    _, trace = sgd_solve(problem, SgdConfig(epochs=np.int64(3), batch=np.int32(8)))
    assert len(trace) == 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("rate, batch", [
    (1e200, 8),  # w itself overflows
    (1e155, None),  # w stays finite, its l2 penalty overflows
])
def test_diverging_step_stops_at_its_epoch(rate, batch):
    problem = make_synthetic_problem(n=30, d=4, weights=Superquantile(0.9),
                                     regularizer=l2(1e-2), seed=6)
    with pytest.raises(SolverError, match="non-finite") as info:
        sgd_solve(problem, SgdConfig(learning_rate=rate, batch=batch, epochs=5))
    assert info.value.iteration == 0


def test_cached_batch_weights_match_per_batch_resolve():
    # 37 = 4 * 8 + 5: full batches and a shorter last one per epoch
    problem = make_synthetic_problem(n=37, d=4, weights=Superquantile(0.6),
                                     regularizer=l2(1e-2), seed=8)
    cfg = SgdConfig(learning_rate=1e-2, batch=8, epochs=3, seed=4)
    w_cached, _ = sgd_solve(problem, cfg)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(problem.d)
    for _ in range(cfg.epochs):
        perm = rng.permutation(problem.n)
        for lo in range(0, problem.n, cfg.batch):
            w = w - cfg.learning_rate * rank_subgradient(problem, w, perm[lo : lo + cfg.batch])
    assert np.array_equal(w_cached, w)
