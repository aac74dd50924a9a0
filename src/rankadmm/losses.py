"""Scalar loss kernels and single-block minimization.

The chain solver repeatedly minimizes, over a scalar v, the aggregated
block objective

    s * l(v) + (rho / 2) * sum_i (v - m_i)^2

where s is the total rank weight of the block.  Only (s, count, m_sum)
are needed: sum_i (v - m_i)^2 differs from count * (v - m_sum/count)^2
by a v-independent constant, which is what makes block merges O(1).

Hinge has a closed form.  Logistic uses bracketed Newton with Numerical
Recipes' ``rtsafe`` rule (bisect when the Newton step leaves the bracket
or is larger than half the step before last), which bounds the iteration
count; without the second test the iterates can alternate between the
bracket's ends and shrink it only slowly.  :func:`block_minimize` solves
one block; :func:`singleton_minimize` solves every count-1 block of a
chain at once with the same bracket, rule and bisection tail.  The two-piece
value-dependent objective has the same pair: :func:`block_minimize_cpt`
and :func:`singleton_minimize_cpt`; the latter solves a piece only where
its bracket can cross the weight switch, and sets the rest to the switch
point, bitwise what solving would give.  It solves the low-piece and
high-piece entries together, in one array pass.

The kernels are bound by interpreter and numpy-call overhead, not by
arithmetic, so they are written for few calls: the scalar solves
evaluate the sigmoid and the logistic loss inline, not through helper
functions, and the array pass forms each shared term once per Newton
iteration.  Each keeps the floating-point operations of its plain form
in the same order, so the outputs are bitwise those of the plain form.

:func:`block_side` tells on which side of a value the block minimizer
lies without solving for it: the sign of the slope there, since the
block objective is convex.  The merge pass decides its folds with it.

The block solvers take plain floats and trust the caller's validation
(the merge pass checks its inputs once per z-step); they reject only a
non-finite weight or target sum.  A merge passes the interval its value
must lie in, which narrows the Newton bracket.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError


class LossKind(str, Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


_NEWTON_MAX_ITER = 100
_DERIV_TOL = 1e-12
#: Low end of a logistic bracket whose ``m - s/rho`` overflows: the root
#: lies above it, since ``s*sigmoid(v)`` vanishes long before.
_LOWEST = -sys.float_info.max


def loss_value(kind: LossKind, u: float) -> float:
    """Scalar loss: logistic log(1+e^u) or hinge max(0, 1+u)."""
    if kind == LossKind.HINGE:
        return max(0.0, 1.0 + u)
    # log1p(exp(u)) with the overflow-safe branch for large u.
    if u > 0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def loss_value_vec(kind: LossKind, u: np.ndarray) -> np.ndarray:
    """Vectorized :func:`loss_value`."""
    u = np.asarray(u, dtype=float)
    if kind == LossKind.HINGE:
        return np.maximum(0.0, 1.0 + u)
    return np.logaddexp(0.0, u)


def loss_derivative_vec(kind: LossKind, u: np.ndarray) -> np.ndarray:
    """Pointwise derivative, using the right-hand slope at the hinge kink."""
    u = np.asarray(u, dtype=float)
    if kind == LossKind.HINGE:
        return np.where(u >= -1.0, 1.0, 0.0)
    return _sigmoid(u)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # exp of -|u| never overflows; the quotient equals the masked
    # 1/(1+exp(-u)) for u >= 0 and exp(u)/(1+exp(u)) below bit for bit
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _exact_block_value(
    s: float, loss: float, count: int, m_sum: float, rho: float, v: float
) -> Fraction:
    """``s*loss + (rho/2)*(count*v^2 - 2*m_sum*v)``, the block objective at
    v with the loss value ``loss`` there and without its v-independent
    constant ``(rho/2)*sum(m_i^2)``, in exact arithmetic on its float
    terms: it cannot overflow, so it decides the piece choice where the
    float value does.  A non-finite term raises InvalidParameterError."""
    if not all(map(math.isfinite, (s, loss, m_sum, rho, v))):
        raise InvalidParameterError(
            f"non-finite block value term: s={s}, loss={loss}, m_sum={m_sum}, rho={rho}, v={v}"
        )
    v = Fraction(v)
    return Fraction(s) * Fraction(loss) + Fraction(rho) / 2 * (
        count * v * v - 2 * Fraction(m_sum) * v
    )


def _closed_form(s: float, count: int, m_sum: float, rho: float) -> float:
    """:func:`block_minimize` where it has a closed form: the target mean
    for a zero weight sum (either loss), else the hinge's three cases."""
    mean_m = m_sum / count
    # Zero weight, or the hinge's left branch (slope 0) strictly left of the kink.
    if s == 0.0 or mean_m < -1.0:
        return mean_m
    # Right branch (slope s).
    v_right = (rho * m_sum - s) / (rho * count)
    if v_right > -1.0:
        return v_right
    # 0 lies in the subdifferential at the kink.
    return -1.0


def block_side(
    s: float, count: int, m_sum: float, rho: float, kind: LossKind, u: float
) -> int:
    """Where the minimizer of :func:`block_minimize` lies relative to u,
    without solving for it: -1 below u, 1 above it, 0 at u.

    Takes the block arguments of :func:`block_minimize`, unchecked.  For
    logistic loss with ``s > 0`` it is the sign at u of the strictly
    increasing slope ``s*sigmoid(v) + rho*(count*v - m_sum)``, negated: a
    positive slope puts the minimizer below u.  Hinge loss and ``s == 0``
    compare u with the closed form, bitwise the value the solve returns.
    Near a tie the two can disagree by the solve's own tolerance.
    """
    if s == 0.0 or kind == LossKind.HINGE:
        v = _closed_form(s, count, m_sum, rho)
        return (v > u) - (v < u)
    # the sigmoid of :func:`block_minimize`, written out likewise
    if u >= 0:
        sg = 1.0 / (1.0 + math.exp(-u))
    else:
        e = math.exp(u)
        sg = e / (1.0 + e)
    d = s * sg + rho * count * u - rho * m_sum
    return (d < 0.0) - (d > 0.0)


def block_minimize(
    s: float,
    count: int,
    m_sum: float,
    rho: float,
    kind: LossKind,
    v_lo: float = -math.inf,
    v_hi: float = math.inf,
) -> float:
    """Unique minimizer of ``s*l(v) + (rho/2)*sum (v - m_i)^2`` over v.

    The block has ``count`` targets summing to ``m_sum`` and rank weight
    sum ``s``.  The caller vouches for ``rho > 0``, ``count >= 1`` and
    ``s >= 0``; only non-finite ``s`` or ``m_sum`` (an overflowed sum) is
    rejected here.  Hinge uses the three-case closed form around the kink
    at v = -1.  Logistic uses Newton on the strictly increasing derivative
    ``s*sigmoid(v) + rho*(count*v - m_sum)``, bracketed by
    ``[m_sum/count - s/(rho*count), m_sum/count]`` and safeguarded by the
    rtsafe rule (module docstring); the bracket assumes 0 <= l' <= 1,
    which both losses satisfy (sigmoid, unit hinge slope).  A low end that
    overflows to -inf is replaced by the most negative float.  An interval
    ``[v_lo, v_hi]`` known to hold the minimizer narrows that bracket; if
    the two do not overlap in more than a point, rounding has put the
    minimizer outside the interval, and the full bracket is used.
    """
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
    # max(lo, v_lo) and min(hi, v_hi), ties and signed zeros included
    a = v_lo if v_lo > lo else lo
    b = v_hi if v_hi < hi else hi
    if a < b:
        lo, hi = a, b

    rm = rho * m_sum
    # halves first: 0.5 * (lo + hi) overflows when both ends pass ~9e307
    v = 0.5 * lo + 0.5 * hi
    # the rule reads only the magnitudes of the last two steps
    adx_old = adx = hi - lo
    # The sigmoid and the rtsafe rule are written out: a function call per
    # iteration costs about a tenth of a merge.
    for _ in range(_NEWTON_MAX_ITER):
        if v >= 0:
            sg = 1.0 / (1.0 + math.exp(-v))
        else:
            e = math.exp(v)
            sg = e / (1.0 + e)
        ssg = s * sg
        d = ssg + rc * v - rm
        if abs(d) <= _DERIV_TOL:
            return v
        if d > 0:
            hi = v
        else:
            lo = v
        step = d / (ssg * (1.0 - sg) + rc)
        v_new = v - step
        astep = abs(step)
        if v_new <= lo or v_new >= hi or astep > 0.5 * adx_old:
            adx_old, adx = adx, 0.5 * (hi - lo)
            v_new = 0.5 * lo + 0.5 * hi
        else:
            adx_old, adx = adx, astep
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
        if v >= 0:
            sg = 1.0 / (1.0 + math.exp(-v))
        else:
            e = math.exp(v)
            sg = e / (1.0 + e)
        if s * sg + rc * v - rm > 0:
            hi = v
        else:
            lo = v


def singleton_minimize(
    s: np.ndarray, m: np.ndarray, rho: float, kind: LossKind
) -> np.ndarray:
    """``block_minimize(s[i], 1, m[i], rho, kind)`` for every i.

    Hinge takes the closed form elementwise.  Logistic runs the same
    bracketed Newton with the same rtsafe rule and bisection tail over the
    entries still active.  A zero weight returns its target exactly.
    numpy's ``exp`` may differ from ``math.exp`` in the last place, so the
    logistic values agree with the scalar solve to rounding, not bitwise.
    """
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
    s, m, lo = s[act], m[act], lo_all[act]
    hi, rm = m, rho * m
    v = 0.5 * lo + 0.5 * hi
    # the rule reads only the magnitudes of the last two steps
    adx_old = adx = hi - lo
    # The scalar solve's operations in its order, with as few numpy calls
    # per iteration as that allows: their dispatch, not the arithmetic on
    # a few hundred entries, sets the time.
    for _ in range(_NEWTON_MAX_ITER):
        if act.size == 0:
            return out
        sg = _sigmoid(v)
        ssg = s * sg
        d = ssg + rho * v - rm
        right = d > 0
        hi = np.where(right, v, hi)
        lo = np.where(right, lo, v)
        step = d / (ssg * (1.0 - sg) + rho)
        v_step = v - step
        astep = np.abs(step)
        bis = (v_step <= lo) | (v_step >= hi) | (astep > 0.5 * adx_old)
        adx_old, adx = adx, np.where(bis, 0.5 * (hi - lo), astep)
        v_new = np.where(bis, 0.5 * lo + 0.5 * hi, v_step)
        done = (np.abs(d) <= _DERIV_TOL) | (v_new == v)
        if np.count_nonzero(done):
            out[act[done]] = v[done]
            keep = ~done
            act, s, rm, lo, hi, adx_old, adx, v_new = (
                a[keep] for a in (act, s, rm, lo, hi, adx_old, adx, v_new)
            )
        v = v_new
    while True:
        v = 0.5 * lo + 0.5 * hi
        done = ~((lo < v) & (v < hi))
        out[act[done]] = v[done]
        keep = ~done
        act, s, rm, lo, hi, v = (a[keep] for a in (act, s, rm, lo, hi, v))
        if act.size == 0:
            return out
        right = s * _sigmoid(v) + rho * v - rm > 0
        hi = np.where(right, v, hi)
        lo = np.where(right, lo, v)


def block_minimize_cpt(
    s_low: float,
    s_high: float,
    count: int,
    m_sum: float,
    rho: float,
    boundary: float,
    kind: LossKind,
) -> float:
    """Minimizer of the two-piece block objective with a weight switch.

    The weight sum s_low applies on ``v <= boundary`` and s_high on
    ``v > boundary``; count, m_sum and rho are as in
    :func:`block_minimize`.  Each piece is convex: minimize both restricted
    to their half-lines (clamping to the boundary when the unconstrained
    minimizer falls on the wrong side) and keep the better one.  Ties go
    to the low piece, consistent with classifying v == boundary as low.
    Where a piece value overflows, :func:`_exact_block_value` compares.

    For logistic loss a piece is solved only where it can cross the
    boundary, as in :func:`singleton_minimize_cpt`: the solve returns a
    value in ``[mean - s/(rho*count), mean]`` (its low end raised to the
    most negative float), so the low piece clamps to the boundary when
    ``mean - s_low/(rho*count) > boundary`` and the high piece when
    ``mean < boundary``.  Non-finite inputs are rejected first, as the
    solve would.
    """
    if not (math.isfinite(s_low) and math.isfinite(s_high) and math.isfinite(m_sum)):
        raise InvalidParameterError("non-finite block objective inputs")
    v_low = v_high = boundary
    mean_m = m_sum / count
    logistic = kind == LossKind.LOGISTIC
    if not (logistic and mean_m - s_low / (rho * count) > boundary):
        v_low = min(block_minimize(s_low, count, m_sum, rho, kind), boundary)
    if not (logistic and mean_m < boundary):
        v_high = max(block_minimize(s_high, count, m_sum, rho, kind), boundary)
    if logistic:
        # loss_value, written out: a call costs about a tenth of a merge
        if v_low > 0:
            loss_low = v_low + math.log1p(math.exp(-v_low))
        else:
            loss_low = math.log1p(math.exp(v_low))
        if v_high > 0:
            loss_high = v_high + math.log1p(math.exp(-v_high))
        else:
            loss_high = math.log1p(math.exp(v_high))
    else:
        loss_low, loss_high = loss_value(kind, v_low), loss_value(kind, v_high)
    f_low = s_low * loss_low + 0.5 * rho * (count * v_low * v_low - 2.0 * m_sum * v_low)
    f_high = s_high * loss_high + 0.5 * rho * (count * v_high * v_high - 2.0 * m_sum * v_high)
    if not (math.isfinite(f_low) and math.isfinite(f_high)):
        f_low = _exact_block_value(s_low, loss_low, count, m_sum, rho, v_low)
        f_high = _exact_block_value(s_high, loss_high, count, m_sum, rho, v_high)
    return v_low if f_low <= f_high else v_high


def singleton_minimize_cpt(
    s_low: np.ndarray,
    s_high: np.ndarray,
    m: np.ndarray,
    boundary: float,
    rho: float,
    kind: LossKind,
) -> np.ndarray:
    """:func:`block_minimize_cpt` of every count-1 block at once.

    Entry i has the weights ``s_low[i]`` on ``v <= boundary``,
    ``s_high[i]`` above it and the target ``m[i]``.  Each piece takes its
    :func:`singleton_minimize` value clamped to its half-line; the better
    piece wins, ties going low; where a piece value overflows,
    :func:`_exact_block_value` compares.  An entry with both weights zero
    returns its target exactly.  The piece values use
    :func:`loss_value_vec`, so they agree with the scalar solve to
    rounding, not bitwise.

    For logistic loss a piece is solved only where it can cross the
    boundary.  The Newton iterates of :func:`singleton_minimize` never
    leave ``[m - s/rho, m]``, so the low piece clamps to the boundary
    wherever ``m - s_low/rho > boundary`` and the high piece wherever
    ``m < boundary``; those entries are set to the boundary unsolved,
    which is bitwise what the solve and clamp would give.  Both tests are
    strict comparisons, so a tie, signed zeros included, still takes the
    solve.
    """
    s_low = np.asarray(s_low, dtype=float)
    s_high = np.asarray(s_high, dtype=float)
    m = np.asarray(m, dtype=float)

    low = high = slice(None)
    if kind == LossKind.LOGISTIC:
        low = np.flatnonzero(m - s_low / rho <= boundary)
        high = np.flatnonzero(m >= boundary)
    # both pieces in one pass: it runs as many Newton iterations as the
    # slower piece needs, not the two pieces' sum
    m_low = m[low]
    v = singleton_minimize(
        np.concatenate((s_low[low], s_high[high])), np.concatenate((m_low, m[high])), rho, kind
    )
    v_low = np.full_like(m, boundary)
    v_low[low] = np.minimum(v[: m_low.size], boundary)
    v_high = np.full_like(m, boundary)
    v_high[high] = np.maximum(v[m_low.size :], boundary)
    loss_low, loss_high = loss_value_vec(kind, v_low), loss_value_vec(kind, v_high)
    # the piece values of block_minimize_cpt with count 1; near the float
    # max v * v overflows
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
