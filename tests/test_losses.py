import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankadmm.errors import InvalidParameterError
from rankadmm.losses import (
    BlockObjective,
    LossKind,
    block_minimize,
    block_minimize_cpt,
    loss_value,
    singleton_minimize,
    singleton_minimize_cpt,
)
from rankadmm import losses
from rankadmm.oracle import block_stationarity_residual, loss_subgradient_interval


def grid_scan_minimizer(fn, lo=-10.0, hi=10.0, step=1e-6, chunk=2_000_000):
    """Argmin of fn over a uniform grid, evaluated in chunks."""
    best_v, best_f = None, np.inf
    total = int(round((hi - lo) / step)) + 1
    start = 0
    while start < total:
        count = min(chunk, total - start)
        grid = lo + step * (start + np.arange(count))
        vals = fn(grid)
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_f, best_v = float(vals[i]), float(grid[i])
        start += count
    return best_v, best_f


def block_fn(obj: BlockObjective, kind: LossKind):
    def fn(v):
        if kind == LossKind.HINGE:
            lv = np.maximum(0.0, 1.0 + v)
        else:
            lv = np.logaddexp(0.0, v)
        return obj.s * lv + 0.5 * obj.rho * (obj.count * v * v - 2.0 * obj.m_sum * v)

    return fn


def test_loss_values():
    assert loss_value(LossKind.HINGE, -1.0) == 0.0
    assert loss_value(LossKind.LOGISTIC, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert loss_value(LossKind.HINGE, 2.0) == 3.0


def test_loss_value_overflow_safe():
    assert loss_value(LossKind.LOGISTIC, 800.0) == pytest.approx(800.0)
    assert loss_value(LossKind.LOGISTIC, -800.0) == pytest.approx(0.0)


def test_subgradient_intervals():
    assert loss_subgradient_interval(LossKind.HINGE, -1.0) == (0.0, 1.0)
    assert loss_subgradient_interval(LossKind.HINGE, -2.0) == (0.0, 0.0)
    assert loss_subgradient_interval(LossKind.HINGE, 0.0) == (1.0, 1.0)
    lo, hi = loss_subgradient_interval(LossKind.LOGISTIC, 0.0)
    assert lo == hi == pytest.approx(0.5)


def test_block_minimize_pure_quadratic():
    obj = BlockObjective(s=0.0, count=4, m_sum=6.0, rho=2.5)
    assert block_minimize(obj, LossKind.HINGE) == pytest.approx(1.5)
    assert block_minimize(obj, LossKind.LOGISTIC) == pytest.approx(1.5)


def test_block_minimize_hinge_kink_absorbs():
    obj = BlockObjective(s=5.0, count=2, m_sum=0.05, rho=1.0)
    v = block_minimize(obj, LossKind.HINGE)
    assert v == -1.0
    grid_v, _ = grid_scan_minimizer(block_fn(obj, LossKind.HINGE))
    assert abs(v - grid_v) <= 2e-6


def test_block_minimize_logistic_reference_root():
    obj = BlockObjective(s=1.0, count=1, m_sum=0.0, rho=1.0)
    v = block_minimize(obj, LossKind.LOGISTIC)
    lo, hi = -1.0, 0.0
    for _ in range(60):  # bisection on sigmoid(v) + v = 0
        mid = 0.5 * (lo + hi)
        if 1.0 / (1.0 + math.exp(-mid)) + mid > 0:
            hi = mid
        else:
            lo = mid
    assert v == pytest.approx(0.5 * (lo + hi), abs=1e-10)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_block_minimize_against_grid_scan(kind, rng):
    for _ in range(12):
        obj = BlockObjective(
            s=float(rng.uniform(0.0, 3.0)),
            count=int(rng.integers(1, 5)),
            m_sum=float(rng.uniform(-4.0, 4.0)),
            rho=float(rng.choice([0.1, 1.0, 10.0])),
        )
        v = block_minimize(obj, kind)
        fn = block_fn(obj, kind)
        grid_v, grid_f = grid_scan_minimizer(fn, lo=-8.0, hi=8.0, step=1e-4)
        assert fn(np.array([v]))[0] <= grid_f + 1e-7
        assert block_stationarity_residual(obj, kind, v) <= 1e-8


def test_block_minimize_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        block_minimize(BlockObjective(s=float("nan"), count=1, m_sum=0.0, rho=1.0), LossKind.HINGE)
    with pytest.raises(InvalidParameterError):
        BlockObjective(s=1.0, count=1, m_sum=0.0, rho=0.0)


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=120, deadline=None)
def test_block_minimize_stationarity_property(s, count, m_sum, rho, kind):
    obj = BlockObjective(s=s, count=count, m_sum=m_sum, rho=rho)
    v = block_minimize(obj, kind)
    assert block_stationarity_residual(obj, kind, v) <= 1e-8


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 3.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=80, deadline=None)
def test_block_minimize_monotone_in_m_sum(s, count, m_sum, bump, kind):
    lo = block_minimize(BlockObjective(s, count, m_sum, 1.0), kind)
    hi = block_minimize(BlockObjective(s, count, m_sum + bump, 1.0), kind)
    assert hi >= lo - 1e-11


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=80, deadline=None)
def test_block_minimize_shift_bound(s, count, m_sum, kind):
    v = block_minimize(BlockObjective(s, count, m_sum, 1.0), kind)
    assert v <= m_sum / count + 1e-12
    if s == 0.0:
        assert v == pytest.approx(m_sum / count)


def test_block_minimize_no_bracket_ping_pong(monkeypatch):
    # plain safeguarded Newton alternates between the bracket's ends here
    # and spends all 100 iterations plus a bisection tail (254 sigmoid calls)
    calls = []
    sigmoid = losses._sigmoid_scalar

    def counting(u):
        calls.append(u)
        return sigmoid(u)

    monkeypatch.setattr(losses, "_sigmoid_scalar", counting)
    obj = BlockObjective(s=1.0, count=1101, m_sum=3010.85, rho=1.728e-05)
    v = block_minimize(obj, LossKind.LOGISTIC)
    assert len(calls) <= 20
    assert block_stationarity_residual(obj, LossKind.LOGISTIC, v) <= 1e-12


@given(
    st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), st.floats(-50.0, 50.0)),
        min_size=1,
        max_size=20,
    ),
    st.floats(-5.0, 6.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=200, deadline=None)
def test_singleton_minimize_matches_scalar(pairs, log_rho, kind):
    s, m = (np.array(col) for col in zip(*pairs))
    rho = 10.0**log_rho
    got = singleton_minimize(s, m, rho, kind)
    want = [block_minimize(BlockObjective(si, 1, mi, rho), kind) for si, mi in pairs]
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got[s == 0.0], m[s == 0.0])


_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
# zero weights on the low side, the high side and both sides
_ZERO_SIDES = [(0.0, 1.0, -0.5), (0.0, 1.0, 0.5), (1.0, 0.0, -0.5), (1.0, 0.0, 0.5),
               (0.0, 0.0, -0.5), (0.0, 0.0, 0.5)]


@given(
    st.lists(
        st.tuples(_WEIGHT, _WEIGHT, st.floats(-50.0, 50.0)),
        min_size=1,
        max_size=20,
    ),
    st.floats(-10.0, 10.0),
    st.floats(-5.0, 6.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@example(_ZERO_SIDES, 0.0, 0.0, LossKind.HINGE)
@example(_ZERO_SIDES, 0.0, 0.0, LossKind.LOGISTIC)
@settings(max_examples=300, deadline=None)
def test_singleton_minimize_cpt_matches_scalar(triples, boundary, log_rho, kind):
    s_low, s_high, m = (np.array(col) for col in zip(*triples))
    rho = 10.0**log_rho
    got = singleton_minimize_cpt(s_low, s_high, m, boundary, rho, kind)
    want = np.array([
        block_minimize_cpt(
            BlockObjective(a, 1, mi, rho), BlockObjective(b, 1, mi, rho), boundary, kind
        )
        for a, b, mi in triples
    ])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    both_zero = (s_low == 0.0) & (s_high == 0.0)
    assert np.array_equal(got[both_zero], m[both_zero])


def test_cpt_identical_pieces_degenerate():
    low = BlockObjective(s=1.3, count=2, m_sum=0.7, rho=2.0)
    high = BlockObjective(s=1.3, count=2, m_sum=0.7, rho=2.0)
    for kind in (LossKind.HINGE, LossKind.LOGISTIC):
        assert block_minimize_cpt(low, high, 0.0, kind) == pytest.approx(
            block_minimize(low, kind)
        )


def test_cpt_two_piece_hinge_example():
    low = BlockObjective(s=0.0, count=1, m_sum=1.0, rho=1.0)
    high = BlockObjective(s=10.0, count=1, m_sum=1.0, rho=1.0)
    v = block_minimize_cpt(low, high, 0.0, LossKind.HINGE)

    def fn(u):
        s = np.where(u <= 0.0, 0.0, 10.0)
        return s * np.maximum(0.0, 1.0 + u) + 0.5 * (u - 1.0) ** 2

    grid_v, grid_f = grid_scan_minimizer(fn, lo=-5.0, hi=5.0, step=1e-6)
    assert abs(v - grid_v) <= 2e-6
    assert v == pytest.approx(0.0)


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_cpt_matches_grid_scan_random(kind, rng):
    for _ in range(10):
        m_sum = float(rng.uniform(-3.0, 3.0))
        count = int(rng.integers(1, 4))
        rho = float(rng.choice([0.5, 1.0, 5.0]))
        s_low = float(rng.uniform(0.0, 2.0))
        s_high = float(rng.uniform(0.0, 2.0))
        boundary = float(rng.uniform(-2.0, 2.0))
        low = BlockObjective(s_low, count, m_sum, rho)
        high = BlockObjective(s_high, count, m_sum, rho)
        v = block_minimize_cpt(low, high, boundary, kind)

        def fn(u):
            if kind == LossKind.HINGE:
                lv = np.maximum(0.0, 1.0 + u)
            else:
                lv = np.logaddexp(0.0, u)
            s = np.where(u <= boundary, s_low, s_high)
            return s * lv + 0.5 * rho * (count * u * u - 2.0 * m_sum * u)

        got = float(fn(np.array([v]))[0])
        _, grid_f = grid_scan_minimizer(fn, lo=-8.0, hi=8.0, step=1e-5)
        assert got <= grid_f + 1e-5
