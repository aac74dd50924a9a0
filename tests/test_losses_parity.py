"""The z-step kernels return byte for byte what their plain forms in
:mod:`tests.reference` return."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankadmm import losses
from rankadmm.errors import InvalidParameterError
from rankadmm.losses import (
    _LOWEST,
    LossKind,
    block_minimize,
    block_minimize_cpt,
    block_side,
    singleton_minimize,
    singleton_minimize_cpt,
)
from tests.reference import (
    count_exp_calls,
    plain_block_minimize,
    plain_block_minimize_cpt,
    plain_block_side,
    plain_singleton_minimize,
    plain_singleton_minimize_cpt,
)

KINDS = st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC])
# zero weights, moderate ones and ones whose s/rho overflows
WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e300))
# signed zeros, moderate targets and targets whose ulp hides a small s/rho
TARGET = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-50.0, 50.0),
                   st.floats(-1e300, 1e300))
LOG_RHO = st.floats(-300.0, 300.0)
# a weight switch, and with the infinities a merge's interval end
SWITCH = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-60.0, 60.0))
BOUND = st.one_of(st.sampled_from([-math.inf, math.inf]), SWITCH)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def outcome(fn, *args):
    """The bytes of ``fn(*args)``, or the type of the error it raises: the
    exact piece comparison refuses a piece value that overflowed to an
    infinity or a NaN."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*args), dtype=float).tobytes()
    except (InvalidParameterError, OverflowError, ValueError) as exc:
        return type(exc)


# (s, m, rho): a zero weight, s/rho below the ulp of m, a low bracket end
# that overflows to _LOWEST, two wide brackets that end in the bisection
# tail, and signed-zero targets
EDGES = [(0.0, 3.0, 1.0), (1e-10, 1e10, 1e10), (1e300, 0.0, 1e-10),
         (10.0**252.5, -7.9, 10.0**-65.0), (10.0**74.0, -9.5, 10.0**-141.5),
         (1.0, 0.0, 1.0), (1.0, -0.0, 1.0), (0.0, -0.0, 1e-300)]


@pytest.mark.parametrize("s, m, rho", EDGES[3:5] + EDGES[2:3])
def test_wide_brackets_reach_the_bisection_tail(monkeypatch, s, m, rho):
    calls = count_exp_calls(monkeypatch)
    v = block_minimize(s, 1, m, rho, LossKind.LOGISTIC)
    # more sigmoids than Newton iterations: the tail ran
    assert len(calls) > losses._NEWTON_MAX_ITER + 1
    monkeypatch.undo()
    assert same_bits(v, plain_block_minimize(s, 1, m, rho, LossKind.LOGISTIC))
    got = singleton_minimize([s], [m], rho, LossKind.LOGISTIC)
    assert got.tobytes() == plain_singleton_minimize([s], [m], rho, LossKind.LOGISTIC).tobytes()


@pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.LOGISTIC])
@pytest.mark.parametrize("s, m, rho", EDGES)
def test_edges_bitwise_equal_plain(s, m, rho, kind):
    # the overflow and ulp edges take the paths EDGES names
    if s / rho == math.inf:
        assert np.maximum(m - s / rho, _LOWEST) == _LOWEST
    if 0.0 < s / rho < math.ulp(m) / 2:
        assert m - s / rho == m
    assert outcome(singleton_minimize, [s, 1.0], [m, m], rho, kind) == outcome(
        plain_singleton_minimize, [s, 1.0], [m, m], rho, kind)
    assert same_bits(block_minimize(s, 1, m, rho, kind), plain_block_minimize(s, 1, m, rho, kind))


@given(st.lists(st.tuples(WEIGHT, TARGET), min_size=1, max_size=30), LOG_RHO, KINDS)
@example([(s, m) for s, m, _ in EDGES], 0.0, LossKind.LOGISTIC)
@example([(1.0, 0.0), (1.0, -0.0), (0.0, -0.0)], 0.0, LossKind.HINGE)
@settings(max_examples=400, deadline=None)
def test_singleton_minimize_bitwise_equals_plain(pairs, log_rho, kind):
    s, m = (np.array(col, dtype=float) for col in zip(*pairs))
    rho = 10.0**log_rho
    with np.errstate(all="ignore"):
        got = singleton_minimize(s, m, rho, kind)
        want = plain_singleton_minimize(s, m, rho, kind)
    assert got.tobytes() == want.tobytes()


@given(WEIGHT, st.integers(1, 5), TARGET, LOG_RHO, BOUND, BOUND, KINDS)
@example(1.0, 2, 0.0, 0.0, -0.0, 0.0, LossKind.LOGISTIC)
@example(1.0, 2, -0.0, 0.0, -1.0, 0.0, LossKind.LOGISTIC)
@example(1.0, 2, -0.0, 0.0, -1.0, -0.0, LossKind.LOGISTIC)
@example(1.0, 1, 0.0, 0.0, 0.0, math.inf, LossKind.LOGISTIC)
@settings(max_examples=600, deadline=None)
def test_block_minimize_bitwise_equals_plain(s, count, mean, log_rho, v_lo, v_hi, kind):
    m_sum, rho = mean * count, 10.0**log_rho
    assume(math.isfinite(m_sum))
    got = block_minimize(s, count, m_sum, rho, kind, v_lo, v_hi)
    assert same_bits(got, plain_block_minimize(s, count, m_sum, rho, kind, v_lo, v_hi))


@given(WEIGHT, st.integers(1, 5), TARGET, LOG_RHO, BOUND, KINDS)
@example(1.0, 1, 0.0, 0.0, -0.0, LossKind.LOGISTIC)
@settings(max_examples=400, deadline=None)
def test_block_side_equals_plain(s, count, m_sum, log_rho, u, kind):
    rho = 10.0**log_rho
    assert block_side(s, count, m_sum, rho, kind, u) == plain_block_side(
        s, count, m_sum, rho, kind, u
    )


@given(WEIGHT, WEIGHT, st.integers(1, 5), TARGET, LOG_RHO, SWITCH, KINDS)
# near the float max the piece values overflow: the exact comparison decides
@example(0.0, 1.0, 1, 1e308, math.log10(1e-307), 1e308, LossKind.LOGISTIC)
@example(1.0, 0.5, 1, 1.5e308, math.log10(1e-307), 1e308, LossKind.HINGE)
@example(1.0, 2.0, 1, -0.0, 0.0, 0.0, LossKind.LOGISTIC)
@settings(max_examples=400, deadline=None)
def test_block_minimize_cpt_bitwise_equals_plain(s_low, s_high, count, mean, log_rho,
                                                 boundary, kind):
    m_sum, rho = mean * count, 10.0**log_rho
    assume(math.isfinite(m_sum))
    args = (s_low, s_high, count, m_sum, rho, boundary, kind)
    assert outcome(block_minimize_cpt, *args) == outcome(plain_block_minimize_cpt, *args)


@given(st.lists(st.tuples(WEIGHT, WEIGHT, TARGET), min_size=1, max_size=30), SWITCH,
       st.sampled_from(["free", "m", "low_end"]), st.integers(0, 29), LOG_RHO, KINDS)
@example([(0.0, 1.0, -0.0), (1.0, 0.0, 0.0), (0.0, 0.0, -0.0), (1.0, 1.0, 2.0)],
         -0.0, "free", 0, 0.0, LossKind.LOGISTIC)
@example([(1.0, 0.5, 1e308), (0.5, 1.0, 9e307), (1.0, 1.0, 1.5e308)],
         1e308, "free", 0, math.log10(1e-307), LossKind.LOGISTIC)
@settings(max_examples=400, deadline=None)
def test_singleton_minimize_cpt_bitwise_equals_plain(triples, boundary, edge, pick,
                                                     log_rho, kind):
    s_low, s_high, m = (np.array(col, dtype=float) for col in zip(*triples))
    rho = 10.0**log_rho
    i = pick % m.size
    # the piece skip's edges: m == B (high piece), m - s_low/rho == B (low)
    with np.errstate(all="ignore"):
        boundary = {"free": boundary, "m": m[i], "low_end": m[i] - s_low[i] / rho}[edge]
    assume(math.isfinite(boundary))
    args = (s_low, s_high, m, boundary, rho, kind)
    assert outcome(singleton_minimize_cpt, *args) == outcome(plain_singleton_minimize_cpt, *args)


def random_blocks(rng, n):
    """Weights (a twentieth zero), targets and counts of n random blocks."""
    s = 10.0 ** rng.uniform(-3.0, 3.0, n)
    s[rng.random(n) < 0.05] = 0.0
    return s, rng.normal(0.0, 10.0, n), rng.integers(1, 6, n)


@pytest.mark.parametrize("seed", range(4))
def test_many_singletons_bitwise_equal_plain(seed):
    # a last-place change of one Newton step moves about one entry in a
    # thousand: thousands of entries per call find it where a few do not
    rng = np.random.default_rng(seed)
    n = 20_000
    s, m, _ = random_blocks(rng, n)
    s_high = 10.0 ** rng.uniform(-3.0, 3.0, n)
    boundary = float(rng.normal(0.0, 5.0))
    for rho in 10.0 ** rng.uniform(-6.0, 4.0, 3):
        for kind in (LossKind.HINGE, LossKind.LOGISTIC):
            got = singleton_minimize(s, m, rho, kind)
            assert got.tobytes() == plain_singleton_minimize(s, m, rho, kind).tobytes()
            got = singleton_minimize_cpt(s, s_high, m, boundary, rho, kind)
            want = plain_singleton_minimize_cpt(s, s_high, m, boundary, rho, kind)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(2))
def test_many_blocks_bitwise_equal_plain(seed):
    # the fold test is read where it is closest to a tie: at the solve's
    # own value and the floats next to it
    rng = np.random.default_rng(seed)
    n = 1_500
    s, mean, count = random_blocks(rng, n)
    s_high = 10.0 ** rng.uniform(-3.0, 3.0, n)
    rho = 10.0 ** rng.uniform(-6.0, 4.0, n)
    width = rng.exponential(1.0, n)
    for args in zip(s.tolist(), count.tolist(), (mean * count).tolist(), rho.tolist(),
                    s_high.tolist(), width.tolist()):
        s_i, count_i, m_sum, rho_i, s_high_i, width_i = args
        kind = LossKind.LOGISTIC
        v = plain_block_minimize(s_i, count_i, m_sum, rho_i, kind)
        interval = (v - width_i, v + width_i / 3.0)
        assert same_bits(block_minimize(s_i, count_i, m_sum, rho_i, kind, *interval),
                         plain_block_minimize(s_i, count_i, m_sum, rho_i, kind, *interval))
        for u in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)):
            assert block_side(s_i, count_i, m_sum, rho_i, kind, float(u)) == plain_block_side(
                s_i, count_i, m_sum, rho_i, kind, float(u))
        cpt = (s_i, s_high_i, count_i, m_sum, rho_i, v + width_i - 0.5, kind)
        assert same_bits(block_minimize_cpt(*cpt), plain_block_minimize_cpt(*cpt))
