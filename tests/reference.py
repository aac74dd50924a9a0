"""Reference code for the z-step tests.

The pairwise solver is the textbook pool-adjacent-violators loop that
merges two adjacent blocks per scalar solve; it shares only the scalar
block solver with the merge engine in :mod:`rankadmm.pava`, so the tests
can check the engine's partitions against it.

The stationarity residuals measure first-order optimality from the loss
subdifferential (:func:`loss_subgradient_interval`): of one block value
(:func:`block_stationarity_residual`), of one value-dependent two-piece
block (:func:`block_stationarity_residual_cpt`), and of a whole partition
(:func:`stationarity_residual`, the worst block).  :func:`block_hi` gives
each block's last index.

:func:`record_merges` records the merge pass's scalar solves, and
:func:`count_exp_calls` the exponentials the scalar solves evaluate.

The ``plain_*`` functions are the z-step kernels of :mod:`rankadmm.losses`
in their plain form: one numpy call per operation, a helper call per
sigmoid, loss value and rtsafe test, and the two pieces of the
value-dependent singletons solved in two passes.  The package's kernels
do the same floating-point operations in the same order with fewer
calls, so the tests require byte-equal results from both.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from rankadmm import losses, pava
from rankadmm.errors import InvalidParameterError
from rankadmm.losses import (
    _DERIV_TOL,
    _LOWEST,
    _NEWTON_MAX_ITER,
    LossKind,
    _closed_form,
    _exact_block_value,
    block_minimize,
    loss_derivative_vec,
    loss_value,
    loss_value_vec,
)
from rankadmm.pava import BlockPartition
from rankadmm.weights import ResolvedWeights


def pairwise_merge_chain(
    m_sorted: np.ndarray,
    sigma: np.ndarray,
    rho: float,
    kind: LossKind,
) -> list[tuple[int, int, float]]:
    """Textbook block merging for constant weights on ascending targets.

    Merges exactly two adjacent blocks per scalar solve and backs up one
    block after each merge.  Returns the blocks as (lo, hi, value) triples
    with 0-based inclusive index ranges in the sorted order.
    """
    # Each block is (lo, hi, weight sum, target sum, value).
    blocks = []
    for i, (s, m_i) in enumerate(zip(np.asarray(sigma, dtype=float), m_sorted)):
        s, m_i = float(s), float(m_i)
        blocks.append((i, i, s, m_i, block_minimize(s, 1, m_i, rho, kind)))
    i = 0
    while i < len(blocks) - 1:
        lo, _, s_left, m_left, v_left = blocks[i]
        _, hi, s_right, m_right, v_right = blocks[i + 1]
        if v_left > v_right:
            s, m_sum = s_left + s_right, m_left + m_right
            v = block_minimize(s, hi - lo + 1, m_sum, rho, kind)
            blocks[i : i + 2] = [(lo, hi, s, m_sum, v)]
            i = max(i - 1, 0)
        else:
            i += 1
    return [(lo, hi, v) for lo, hi, _, _, v in blocks]


def loss_subgradient_interval(kind: LossKind, u: float) -> tuple[float, float]:
    """Subdifferential of the loss at u as a closed interval [lo, hi]."""
    if kind == LossKind.LOGISTIC:
        s = float(loss_derivative_vec(kind, np.array([u]))[0])
        return (s, s)
    if u < -1.0:
        return (0.0, 0.0)
    if u == -1.0:
        return (0.0, 1.0)
    return (1.0, 1.0)


def block_stationarity_residual(
    s: float, count: int, m_sum: float, rho: float, kind: LossKind, v: float
) -> float:
    """Distance from 0 to the block subdifferential at v (0 when stationary).

    The block is that of :func:`~rankadmm.losses.block_minimize`: weight
    sum ``s``, ``count`` targets summing to ``m_sum``, penalty ``rho``.
    """
    lo, hi = loss_subgradient_interval(kind, v)
    lin = rho * (count * v - m_sum)
    a, b = s * lo + lin, s * hi + lin
    if a <= 0.0 <= b:
        return 0.0
    return min(abs(a), abs(b))


def block_stationarity_residual_cpt(
    s_low: float,
    s_high: float,
    count: int,
    m_sum: float,
    rho: float,
    boundary: float,
    kind: LossKind,
    v: float,
) -> float:
    """First-order residual at v of the two-piece block objective of
    :func:`~rankadmm.losses.block_minimize_cpt`.

    At v == boundary the condition is one-sided: either the low piece is
    nonincreasing into the boundary or the high piece is nondecreasing
    away from it.
    """
    if v < boundary:
        return block_stationarity_residual(s_low, count, m_sum, rho, kind, v)
    if v > boundary:
        return block_stationarity_residual(s_high, count, m_sum, rho, kind, v)
    lo, hi = loss_subgradient_interval(kind, v)
    lin = rho * (count * v - m_sum)
    low_ok = s_low * lo + lin  # smallest low-piece subgradient
    high_ok = s_high * hi + lin  # largest high-piece subgradient
    return min(max(0.0, low_ok), max(0.0, -high_ok))


def block_hi(partition: BlockPartition) -> np.ndarray:
    """Last index (inclusive) of each block of the partition."""
    return np.append(partition.lo[1:], len(partition.z)) - 1


def stationarity_residual(
    partition: BlockPartition,
    resolved: ResolvedWeights,
    m_sorted: np.ndarray,
    rho: float,
    kind: LossKind,
) -> float:
    """Max over blocks of the first-order residual at the block value."""
    worst = 0.0
    for lo, hi in zip(partition.lo.tolist(), block_hi(partition).tolist()):
        v = float(partition.z[lo])
        count = hi - lo + 1
        m_sum = float(np.sum(m_sorted[lo : hi + 1]))
        if resolved.is_value_dependent:
            s_low = float(np.sum(resolved.sigma_low[lo : hi + 1]))
            s_high = float(np.sum(resolved.sigma_high[lo : hi + 1]))
            r = block_stationarity_residual_cpt(
                s_low, s_high, count, m_sum, rho, resolved.reference, kind, v
            )
        else:
            s = float(np.sum(resolved.sigma[lo : hi + 1]))
            r = block_stationarity_residual(s, count, m_sum, rho, kind, v)
        worst = max(worst, r)
    return worst


class Merge(NamedTuple):
    """One recorded merge solve.  ``v_lo`` and ``v_hi`` are the smallest
    and largest values of the parts a constant-weight block pooled, the
    bracket handed to its solve; the two-piece solve takes none, and
    records None."""

    count: int
    v_lo: float | None
    v_hi: float | None
    v: float
    args: tuple  # every argument, as passed


def record_merges(monkeypatch) -> list[Merge]:
    """Record every ``pava.block_minimize`` and ``pava.block_minimize_cpt``
    call of the merge pass, in call order, into the returned list.

    The pass looks both up as module globals at call time.  It solves the
    singletons in bulk, so every recorded call is one merge.
    """
    merges: list[Merge] = []
    solve, solve_cpt = pava.block_minimize, pava.block_minimize_cpt

    def recording(s, count, m_sum, rho, kind, v_lo, v_hi):
        v = solve(s, count, m_sum, rho, kind, v_lo, v_hi)
        merges.append(Merge(count, v_lo, v_hi, v, (s, count, m_sum, rho, kind, v_lo, v_hi)))
        return v

    def recording_cpt(s_low, s_high, count, m_sum, rho, boundary, kind):
        v = solve_cpt(s_low, s_high, count, m_sum, rho, boundary, kind)
        args = (s_low, s_high, count, m_sum, rho, boundary, kind)
        merges.append(Merge(count, None, None, v, args))
        return v

    monkeypatch.setattr(pava, "block_minimize", recording)
    monkeypatch.setattr(pava, "block_minimize_cpt", recording_cpt)
    return merges


def count_exp_calls(monkeypatch) -> list[float]:
    """Record the argument of every ``math.exp`` call in
    :mod:`rankadmm.losses` into the returned list.  The scalar solves
    evaluate the sigmoid inline, one ``math.exp`` each, so its length
    counts their sigmoid evaluations."""
    calls: list[float] = []

    def counting(u):
        calls.append(u)
        return math.exp(u)

    monkeypatch.setattr(losses, "math", SimpleNamespace(**{**vars(math), "exp": counting}))
    return calls


# -- the z-step kernels in their plain form ------------------------------------


def plain_sigmoid(u: np.ndarray) -> np.ndarray:
    # exp of -|u| never overflows; both branches equal the masked
    # 1/(1+exp(-u)) for u >= 0 and exp(u)/(1+exp(u)) below bit for bit
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def plain_sigmoid_scalar(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    eu = math.exp(u)
    return eu / (1.0 + eu)


def plain_block_value(
    s: float, count: int, m_sum: float, rho: float, kind: LossKind, v: float
) -> float:
    return s * loss_value(kind, v) + 0.5 * rho * (count * v * v - 2.0 * m_sum * v)


def plain_bisects(v_new, lo, hi, step, dx_old):
    """Numerical Recipes' rtsafe rule: bisect instead of taking the Newton
    point ``v_new`` when it leaves the open bracket (lo, hi) or when the
    Newton step is larger than half the step before last.  Without the
    second test the iterates can alternate between the bracket's ends and
    shrink it only slowly.  Works elementwise on arrays as well."""
    return (v_new <= lo) | (v_new >= hi) | (abs(step) > 0.5 * abs(dx_old))


def plain_block_side(
    s: float, count: int, m_sum: float, rho: float, kind: LossKind, u: float
) -> int:
    if s == 0.0 or kind == LossKind.HINGE:
        v = _closed_form(s, count, m_sum, rho)
        return (v > u) - (v < u)
    d = s * plain_sigmoid_scalar(u) + rho * count * u - rho * m_sum
    return (d < 0.0) - (d > 0.0)


def plain_block_minimize(
    s: float,
    count: int,
    m_sum: float,
    rho: float,
    kind: LossKind,
    v_lo: float = -math.inf,
    v_hi: float = math.inf,
) -> float:
    if not (math.isfinite(s) and math.isfinite(m_sum)):
        raise InvalidParameterError("non-finite block objective inputs")
    if s == 0.0 or kind == LossKind.HINGE:
        return _closed_form(s, count, m_sum, rho)

    rc = rho * count
    mean_m = m_sum / count
    lo = mean_m - s / rc
    if lo < _LOWEST:
        lo = _LOWEST
    hi = mean_m
    if lo == hi:
        return lo
    a, b = max(lo, v_lo), min(hi, v_hi)
    if a < b:
        lo, hi = a, b

    rm = rho * m_sum
    # halves first: 0.5 * (lo + hi) overflows when both ends pass ~9e307
    v = 0.5 * lo + 0.5 * hi
    dx_old = dx = hi - lo
    for _ in range(_NEWTON_MAX_ITER):
        sg = plain_sigmoid_scalar(v)
        d = s * sg + rc * v - rm
        if abs(d) <= _DERIV_TOL:
            return v
        if d > 0:
            hi = v
        else:
            lo = v
        step = d / (s * sg * (1.0 - sg) + rc)
        v_new = v - step
        # plain_bisects, written out
        if v_new <= lo or v_new >= hi or abs(step) > 0.5 * abs(dx_old):
            dx_old, dx = dx, 0.5 * (hi - lo)
            v_new = 0.5 * lo + 0.5 * hi
        else:
            dx_old, dx = dx, step
        if v_new == v:
            return v
        v = v_new
    # Rarely reached: the rtsafe rule at least halves the step every
    # second iteration.  Finish with plain bisection until the midpoint is
    # a bracket end (or NaN), about 2,100 halvings at most from a bracket
    # as wide as the float range.
    while True:
        v = 0.5 * lo + 0.5 * hi
        if not lo < v < hi:
            return v
        if s * plain_sigmoid_scalar(v) + rc * v - rm > 0:
            hi = v
        else:
            lo = v


def plain_singleton_minimize(
    s: np.ndarray, m: np.ndarray, rho: float, kind: LossKind
) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    m = np.asarray(m, dtype=float)
    if kind == LossKind.HINGE:
        v_right = (rho * m - s) / rho
        out = np.where(m < -1.0, m, np.where(v_right > -1.0, v_right, -1.0))
        return np.where(s == 0.0, m, out)

    out = m.copy()
    with np.errstate(over="ignore"):
        lo_all = np.maximum(m - s / rho, _LOWEST)
    # lo == hi (s == 0, or s/rho below m's ulp) leaves the target itself
    act = np.flatnonzero(lo_all != m)
    s, m, lo, hi = s[act], m[act], lo_all[act], m[act]
    v = 0.5 * lo + 0.5 * hi
    dx_old = dx = hi - lo
    for _ in range(_NEWTON_MAX_ITER):
        if act.size == 0:
            return out
        sg = plain_sigmoid(v)
        d = s * sg + rho * v - rho * m
        right = d > 0
        hi = np.where(right, v, hi)
        lo = np.where(right, lo, v)
        step = d / (s * sg * (1.0 - sg) + rho)
        bis = plain_bisects(v - step, lo, hi, step, dx_old)
        dx_old, dx = dx, np.where(bis, 0.5 * (hi - lo), step)
        v_new = np.where(bis, 0.5 * lo + 0.5 * hi, v - step)
        done = (np.abs(d) <= _DERIV_TOL) | (v_new == v)
        out[act[done]] = v[done]
        keep = ~done
        act, s, m, lo, hi, dx_old, dx, v = (
            a[keep] for a in (act, s, m, lo, hi, dx_old, dx, v_new)
        )
    while True:
        v = 0.5 * lo + 0.5 * hi
        done = ~((lo < v) & (v < hi))
        out[act[done]] = v[done]
        keep = ~done
        act, s, m, lo, hi, v = (a[keep] for a in (act, s, m, lo, hi, v))
        if act.size == 0:
            return out
        right = s * plain_sigmoid(v) + rho * v - rho * m > 0
        hi = np.where(right, v, hi)
        lo = np.where(right, lo, v)


def plain_block_minimize_cpt(
    s_low: float,
    s_high: float,
    count: int,
    m_sum: float,
    rho: float,
    boundary: float,
    kind: LossKind,
) -> float:
    if not (math.isfinite(s_low) and math.isfinite(s_high) and math.isfinite(m_sum)):
        raise InvalidParameterError("non-finite block objective inputs")
    v_low = v_high = boundary
    mean_m = m_sum / count
    logistic = kind == LossKind.LOGISTIC
    if not (logistic and mean_m - s_low / (rho * count) > boundary):
        v_low = min(plain_block_minimize(s_low, count, m_sum, rho, kind), boundary)
    if not (logistic and mean_m < boundary):
        v_high = max(plain_block_minimize(s_high, count, m_sum, rho, kind), boundary)
    f_low = plain_block_value(s_low, count, m_sum, rho, kind, v_low)
    f_high = plain_block_value(s_high, count, m_sum, rho, kind, v_high)
    if not (math.isfinite(f_low) and math.isfinite(f_high)):
        f_low = _exact_block_value(s_low, loss_value(kind, v_low), count, m_sum, rho, v_low)
        f_high = _exact_block_value(s_high, loss_value(kind, v_high), count, m_sum, rho, v_high)
    return v_low if f_low <= f_high else v_high


def plain_singleton_minimize_cpt(
    s_low: np.ndarray,
    s_high: np.ndarray,
    m: np.ndarray,
    boundary: float,
    rho: float,
    kind: LossKind,
) -> np.ndarray:
    s_low = np.asarray(s_low, dtype=float)
    s_high = np.asarray(s_high, dtype=float)
    m = np.asarray(m, dtype=float)

    low = high = slice(None)
    if kind == LossKind.LOGISTIC:
        low = np.flatnonzero(m - s_low / rho <= boundary)
        high = np.flatnonzero(m >= boundary)
    v_low = np.full_like(m, boundary)
    v_low[low] = np.minimum(plain_singleton_minimize(s_low[low], m[low], rho, kind), boundary)
    v_high = np.full_like(m, boundary)
    v_high[high] = np.maximum(plain_singleton_minimize(s_high[high], m[high], rho, kind), boundary)
    loss_low, loss_high = loss_value_vec(kind, v_low), loss_value_vec(kind, v_high)
    # plain_block_value with count 1; near the float max v * v overflows
    with np.errstate(over="ignore", invalid="ignore"):
        f_low = s_low * loss_low + 0.5 * rho * (v_low * v_low - 2.0 * m * v_low)
        f_high = s_high * loss_high + 0.5 * rho * (v_high * v_high - 2.0 * m * v_high)
    take_low = f_low <= f_high
    for i in np.flatnonzero(~(np.isfinite(f_low) & np.isfinite(f_high))).tolist():
        take_low[i] = _exact_block_value(
            s_low[i], loss_low[i], 1, m[i], rho, v_low[i]
        ) <= _exact_block_value(s_high[i], loss_high[i], 1, m[i], rho, v_high[i])
    out = np.where(take_low, v_low, v_high)
    return np.where((s_low == 0.0) & (s_high == 0.0), m, out)
