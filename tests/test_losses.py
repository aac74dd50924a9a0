import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankadmm.errors import InvalidParameterError
from rankadmm.losses import (
    LossKind,
    block_minimize,
    block_minimize_cpt,
    loss_value,
    singleton_minimize,
    singleton_minimize_cpt,
)
from rankadmm import losses
from rankadmm.pava import solve_z_subproblem
from rankadmm.weights import CPTValueDependent, ResolvedWeights, resolve
from tests.reference import block_stationarity_residual, loss_subgradient_interval


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


def block_fn(s: float, count: int, m_sum: float, rho: float, kind: LossKind):
    def fn(v):
        if kind == LossKind.HINGE:
            lv = np.maximum(0.0, 1.0 + v)
        else:
            lv = np.logaddexp(0.0, v)
        return s * lv + 0.5 * rho * (count * v * v - 2.0 * m_sum * v)

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
    assert block_minimize(0.0, 4, 6.0, 2.5, LossKind.HINGE) == pytest.approx(1.5)
    assert block_minimize(0.0, 4, 6.0, 2.5, LossKind.LOGISTIC) == pytest.approx(1.5)


def test_block_minimize_hinge_kink_absorbs():
    block = (5.0, 2, 0.05, 1.0)  # s, count, m_sum, rho
    v = block_minimize(*block, LossKind.HINGE)
    assert v == -1.0
    grid_v, _ = grid_scan_minimizer(block_fn(*block, LossKind.HINGE))
    assert abs(v - grid_v) <= 2e-6


def test_block_minimize_logistic_reference_root():
    v = block_minimize(1.0, 1, 0.0, 1.0, LossKind.LOGISTIC)
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
        block = (
            float(rng.uniform(0.0, 3.0)),
            int(rng.integers(1, 5)),
            float(rng.uniform(-4.0, 4.0)),
            float(rng.choice([0.1, 1.0, 10.0])),
        )
        v = block_minimize(*block, kind)
        fn = block_fn(*block, kind)
        grid_v, grid_f = grid_scan_minimizer(fn, lo=-8.0, hi=8.0, step=1e-4)
        assert fn(np.array([v]))[0] <= grid_f + 1e-7
        assert block_stationarity_residual(*block, kind, v) <= 1e-8


def test_newton_start_does_not_overflow_near_the_float_max():
    # both bracket ends lie above ~9e307, where 0.5 * (lo + hi) overflows
    s, m, rho = [0.0, 1.0, 2.0], [1e308] * 3, 1e-307
    v = singleton_minimize(s, m, rho, LossKind.LOGISTIC)
    scalar = [block_minimize(si, 1, mi, rho, LossKind.LOGISTIC) for si, mi in zip(s, m)]
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(scalar))
    # sigmoid(v) = 1 there, so the root is m - s/rho
    assert v == pytest.approx([1e308, 9e307, 8e307], rel=1e-12)
    assert scalar == pytest.approx([1e308, 9e307, 8e307], rel=1e-12)


def test_bisection_tail_reaches_the_root():
    # s/rho = 1e308: the Newton steps all bisect toward the target and leave
    # a bracket ~1e218 wide; the tail must narrow it to the root near -702
    s, rho = 1e308, 1.0
    for v in (block_minimize(s, 1, 0.0, rho, LossKind.LOGISTIC),
              float(singleton_minimize([s], [0.0], rho, LossKind.LOGISTIC)[0])):
        sg = math.exp(v) / (1.0 + math.exp(v))
        residual = s * sg + rho * v
        slope = s * sg * (1.0 - sg) + rho
        assert abs(residual) <= 4.0 * slope * math.ulp(v)


def test_overflowing_bracket_end_gives_the_root():
    # s/(rho*count) = 1e310 overflows, so the bracket's low end
    # m_sum/count - s/(rho*count) is -inf; the root lies near -707
    s, m_sum, rho = 1e300, 0.0, 1e-10
    for v in (block_minimize(s, 1, m_sum, rho, LossKind.LOGISTIC),
              float(singleton_minimize([s], [m_sum], rho, LossKind.LOGISTIC)[0])):
        assert math.isfinite(v)
        sg = losses._sigmoid_scalar(v)
        terms = (s * sg, rho * (v - m_sum))
        slope = s * sg * (1.0 - sg) + rho
        # zero up to one step of v and the rounding of the two terms
        rounding = slope * math.ulp(v) + 4.0 * sys.float_info.epsilon * sum(map(abs, terms))
        assert abs(sum(terms)) <= rounding
    # a falling chain whose merged block overflows the same way
    sigma = np.array([1e298, 1e299, 1e300])
    z = solve_z_subproblem(np.array([0.0, 1.0, 2.0]), ResolvedWeights(3, sigma), rho,
                           LossKind.LOGISTIC)
    assert np.all(np.isfinite(z))


def test_block_minimize_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        block_minimize(float("nan"), 1, 0.0, 1.0, LossKind.HINGE)


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=120, deadline=None)
def test_block_minimize_stationarity_property(s, count, m_sum, rho, kind):
    v = block_minimize(s, count, m_sum, rho, kind)
    assert block_stationarity_residual(s, count, m_sum, rho, kind, v) <= 1e-8


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 3.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=80, deadline=None)
def test_block_minimize_monotone_in_m_sum(s, count, m_sum, bump, kind):
    lo = block_minimize(s, count, m_sum, 1.0, kind)
    hi = block_minimize(s, count, m_sum + bump, 1.0, kind)
    assert hi >= lo - 1e-11


@given(
    st.floats(0.0, 5.0),
    st.integers(1, 6),
    st.floats(-5.0, 5.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@settings(max_examples=80, deadline=None)
def test_block_minimize_shift_bound(s, count, m_sum, kind):
    v = block_minimize(s, count, m_sum, 1.0, kind)
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
    block = (1.0, 1101, 3010.85, 1.728e-05)  # s, count, m_sum, rho
    v = block_minimize(*block, LossKind.LOGISTIC)
    assert len(calls) <= 20
    assert block_stationarity_residual(*block, LossKind.LOGISTIC, v) <= 1e-12


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
    want = [block_minimize(si, 1, mi, rho, kind) for si, mi in pairs]
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
    want = np.array([block_minimize_cpt(a, b, 1, mi, rho, boundary, kind) for a, b, mi in triples])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    both_zero = (s_low == 0.0) & (s_high == 0.0)
    assert np.array_equal(got[both_zero], m[both_zero])


def masked_sigmoid(u):
    """The boolean-mask form of the array sigmoid."""
    out = np.empty_like(u, dtype=float)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def test_sigmoid_bitwise_equals_masked_form(rng):
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e300, -1e300])
    for u in (edges, rng.standard_normal(3000) * 40.0, rng.standard_normal(257) * 1e-3):
        assert losses._sigmoid(u).tobytes() == masked_sigmoid(u).tobytes()


_RUN = st.lists(
    st.tuples(_WEIGHT, st.integers(1, 5), st.floats(-50.0, 50.0)), min_size=2, max_size=8
)


@given(_RUN, st.floats(-5.0, 6.0), st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]))
@settings(max_examples=300, deadline=None)
def test_bracketed_merge_solve_stays_in_run(blocks, log_rho, kind):
    # merging blocks with values v_i: the minimizer lies in [min v_i, max v_i]
    rho = 10.0**log_rho
    values = [block_minimize(s, c, c * mean, rho, kind) for s, c, mean in blocks]
    s = sum(b[0] for b in blocks)
    count = sum(b[1] for b in blocks)
    m_sum = sum(c * mean for _, c, mean in blocks)
    v_last, v_first = min(values), max(values)
    assume(v_last < v_first)  # a merged run falls strictly
    got = block_minimize(s, count, m_sum, rho, kind, v_last, v_first)
    want = block_minimize(s, count, m_sum, rho, kind)
    assert v_last - 1e-12 <= got <= v_first + 1e-12
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@given(
    st.just(0.0) | st.floats(0.0, 50.0),
    st.integers(1, 50),
    st.floats(-50.0, 50.0),
    st.floats(-2.0, 3.0),
    st.booleans(),
    st.floats(-60.0, 60.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@example(0.0, 3, 0.5, 0.0, True, 0.0, LossKind.LOGISTIC)  # s = 0, u at the mean
@example(1.0, 1, 0.0, 0.0, False, -1.0, LossKind.HINGE)  # minimizer at the kink
@settings(max_examples=400, deadline=None)
def test_block_side_agrees_with_the_solve(s, count, mean, log_rho, near, u, kind):
    # the sign test tells where the solve's value lies without solving
    rho = 10.0**log_rho
    m_sum = count * mean
    v = block_minimize(s, count, m_sum, rho, kind)
    if near:
        u = v + u * 1e-7
    side = losses.block_side(s, count, m_sum, rho, kind, u)
    if s == 0.0 or kind == LossKind.HINGE:
        # closed form: exact, ties included
        assert side == (v > u) - (v < u)
    elif abs(v - u) > 1e-9 * (1.0 + abs(v)):
        assert side == (1 if v > u else -1)


def test_merge_bracket_outside_the_block_bracket_is_ignored():
    # [5, 6] misses [-0.5, 0]: the full bracket is used, bit for bit
    for v_lo, v_hi in ((5.0, 6.0), (-3.0, -0.5), (-0.25, -0.25)):
        got = block_minimize(1.0, 2, 0.0, 1.0, LossKind.LOGISTIC, v_lo, v_hi)
        assert got == block_minimize(1.0, 2, 0.0, 1.0, LossKind.LOGISTIC)


def solve_both_pieces(s_low, s_high, m, boundary, rho, kind):
    """singleton_minimize_cpt with both pieces solved at every entry."""
    v_low = np.minimum(singleton_minimize(s_low, m, rho, kind), boundary)
    v_high = np.maximum(singleton_minimize(s_high, m, rho, kind), boundary)
    f_low = s_low * losses.loss_value_vec(kind, v_low) + 0.5 * rho * (v_low**2 - 2.0 * m * v_low)
    f_high = s_high * losses.loss_value_vec(kind, v_high) + 0.5 * rho * (
        v_high**2 - 2.0 * m * v_high
    )
    out = np.where(f_low <= f_high, v_low, v_high)
    return np.where((s_low == 0.0) & (s_high == 0.0), m, out)


_SIGNED_ZEROS = [(0.0, 1.0, -0.0), (1.0, 0.0, -0.0), (0.0, 0.0, -0.0), (0.0, 1.0, 0.0),
                 (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 2.0), (2.0, 1.0, -3.0)]


@given(
    st.lists(st.tuples(_WEIGHT, _WEIGHT, st.floats(-50.0, 50.0)), min_size=1, max_size=30),
    st.floats(-10.0, 10.0),
    st.sampled_from(["free", "m", "low_end", "zero", "-zero"]),
    st.integers(0, 29),
    st.floats(-5.0, 6.0),
    st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]),
)
@example(_SIGNED_ZEROS, 0.0, "zero", 0, 0.0, LossKind.LOGISTIC)
@example(_SIGNED_ZEROS, 0.0, "-zero", 0, 0.0, LossKind.LOGISTIC)
@settings(max_examples=400, deadline=None)
def test_cpt_piece_skip_bitwise_equals_both_solved(triples, boundary, edge, pick, log_rho, kind):
    s_low, s_high, m = (np.array(col) for col in zip(*triples))
    rho = 10.0**log_rho
    i = pick % m.size
    # the skip's edges: m == B (high piece) and m - s_low/rho == B (low piece)
    boundary = {"free": boundary, "m": m[i], "low_end": m[i] - s_low[i] / rho,
                "zero": 0.0, "-zero": -0.0}[edge]
    got = singleton_minimize_cpt(s_low, s_high, m, boundary, rho, kind)
    want = solve_both_pieces(s_low, s_high, m, boundary, rho, kind)
    assert got.tobytes() == want.tobytes()


def test_cpt_identical_pieces_degenerate():
    for kind in (LossKind.HINGE, LossKind.LOGISTIC):
        assert block_minimize_cpt(1.3, 1.3, 2, 0.7, 2.0, 0.0, kind) == pytest.approx(
            block_minimize(1.3, 2, 0.7, 2.0, kind)
        )


def test_cpt_two_piece_hinge_example():
    v = block_minimize_cpt(0.0, 10.0, 1, 1.0, 1.0, 0.0, LossKind.HINGE)

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
        v = block_minimize_cpt(s_low, s_high, count, m_sum, rho, boundary, kind)

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


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
def test_cpt_piece_choice_near_the_float_max_is_exact(kind):
    # the piece values overflow here (v * v), so the float comparison is NaN
    m = np.array([1e308, 9e307, 1e308, 1.1e308, 1.5e308])
    resolved = resolve(CPTValueDependent(B=1e308), 5)
    s_low, s_high, boundary, rho = resolved.sigma_low, resolved.sigma_high, 1e308, 1e-307
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = singleton_minimize_cpt(s_low, s_high, m, boundary, rho, kind)
        z = solve_z_subproblem(m, resolved, rho, kind)
        scalar = [block_minimize_cpt(a, b, 1, mi, rho, boundary, kind)
                  for a, b, mi in zip(s_low.tolist(), s_high.tolist(), m.tolist())]
    assert np.all(np.isfinite(z))
    v_low = np.minimum(singleton_minimize(s_low, m, rho, kind), boundary)
    v_high = np.maximum(singleton_minimize(s_high, m, rho, kind), boundary)

    def exact(s, v, mi):
        v, loss = Fraction(v), Fraction(losses.loss_value_vec(kind, np.array([v]))[0])
        return Fraction(s) * loss + Fraction(rho) / 2 * (v * v - 2 * Fraction(mi) * v)

    want = [lo if exact(a, lo, mi) <= exact(b, hi, mi) else hi
            for a, b, lo, hi, mi in zip(s_low, s_high, v_low, v_high, m)]
    assert got.tolist() == want
    assert scalar == want
