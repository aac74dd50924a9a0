"""Chain-constrained minimization of separable rank-weighted objectives.

Solves, after sorting the targets m ascending,

    min_z  sum_i sigma_i * l(z_i) + (rho/2) (z_i - m_i)^2
    s.t.   z_1 <= z_2 <= ... <= z_n

by pool-adjacent-violators block merging in one left-to-right stack pass
(the O(n) formulation of Best, Chakravarti & Ubhaya, SIAM J. Optim.
10(3), 2000).  The singleton values come first: one array solve
computes them all, for every weight scheme.  One numpy
comparison finds every singleton below its left neighbour; between two
such breaks the singletons are in order, so a stretch that starts at or
above the stack top is pushed as one (start, end) entry, and a merge that
reaches into it pops its last singleton by shortening it.  Python work
therefore scales with merges, not with n.

The pass is shared by every weight scheme; only its fold rule, run when a
singleton lies below the stack top, depends on the scheme.

For constant weights (:func:`_fold_lazy`) the blocks are valued lazily.
A singleton below the stack top starts a block that carries only its
weight sum, size and target sum.  Each fold is decided by the sign of the
block objective's slope at a neighbour's value
(:func:`~rankadmm.losses.block_side`): the block folds in the stack top
while its minimizer lies below the top's value, and absorbs the next
singleton while its minimizer lies above that singleton's value.  The
block objective is convex, so the sign is exactly the comparison with the
minimizer, and pooling order does not change the result (Best et al.), so
only a pushed block needs its value: one scalar solve per pushed block,
bracketed by the smallest and largest values of the parts it pooled.  The
sorted solution is a copy of the singleton values with each merged block
written over its range.

For the value-dependent prospect-theory weights (:func:`_fold_cpt`) a
block carries two weight sums, one per piece, as two floats; the
singletons come from an array two-piece solve and every fold from the
two-piece scalar solver.  That block objective is not convex, so no slope
sign decides a fold: when the stack top exceeds the next block, the run
of strictly decreasing values starting at the top is extended over the
following singletons and folded with one solve, and the result is
compared with the new stack top.

The pass validates its inputs once (rho > 0, finite targets, finite
nonnegative weight columns) and hands each merge solve plain floats: the
block's weight sums, size and target sum.  Only a sum that overflows is
caught per merge, by the scalar solve itself; an overflowed sum stays
non-finite until its block is pushed and solved.

The z-step sorts its targets with a stable argsort.  Between outer
iterations the targets barely move, so a caller may pass the previous
sorting order as a warm start, which the stable sort (a merge sort that
finds presorted runs) orders in near-linear time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .losses import (
    LossKind,
    block_minimize,
    block_minimize_cpt,
    block_side,
    singleton_minimize,
    singleton_minimize_cpt,
)
from .weights import ResolvedWeights


@dataclass
class BlockPartition:
    """Ordered blocks covering 0..n-1 with no gaps or overlaps: block j
    starts at ``lo[j]`` (0-based) in the sorted order and ends where the
    next begins.  ``z`` holds every block's value over its range."""

    lo: np.ndarray
    z: np.ndarray


def merge_blocks(
    m_sorted: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
) -> BlockPartition:
    """Isotonic block partition of the sorted chain problem.

    Computes every singleton value first, in one array solve; a singleton
    whose weights are all zero is an exact quadratic and takes its target
    directly.  Then one stack pass pushes each in-order stretch of
    singletons as one entry and hands every violation to the scheme's fold
    rule.  For constant weights (:func:`_fold_lazy`) a block under
    construction carries only its sums: each fold into it is decided by
    :func:`~rankadmm.losses.block_side`, and its one scalar solve runs when
    it is pushed.  The value-dependent weights (:func:`_fold_cpt`) solve
    after every fold; their result is a first-order point, not necessarily
    a global minimum, and it depends on this merge order.
    """
    cpt = resolved.is_value_dependent
    cols = [resolved.sigma_low, resolved.sigma_high] if cpt else [resolved.sigma]
    # Validated once here: the scalar solves take plain floats unchecked.
    if not (rho > 0):
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not np.all(np.isfinite(m_sorted)):
        raise InvalidParameterError("targets contain non-finite entries")
    for col in cols:
        if not (col.min() >= 0.0 and col.max() < math.inf):
            raise InvalidParameterError("rank weights must be finite and nonnegative")
    if cpt:
        singles_arr = singleton_minimize_cpt(*cols, m_sorted, resolved.reference, rho, kind)
        fold, weights = _fold_cpt, tuple(memoryview(col) for col in cols)
    else:
        singles_arr = singleton_minimize(resolved.sigma, m_sorted, rho, kind)
        fold, weights = _fold_lazy, memoryview(resolved.sigma)

    n = singles_arr.shape[0]
    # Starts of the in-order stretches: singletons below their left neighbour.
    breaks = (np.flatnonzero(singles_arr[1:] < singles_arr[:-1]) + 1).tolist() + [n]
    # Per-merge reads go through memoryviews, which index to Python floats.
    singles, targets = memoryview(singles_arr), memoryview(m_sorted)
    stack: list[list] = [[0, 0, -math.inf, None, 0.0]]
    k = b = 0
    while k < n:
        if stack[-1][2] > singles[k]:
            k = fold(stack, k, singles, weights, targets, rho, resolved.reference, kind)
            continue
        # Nothing to merge up to the next break: push the stretch.
        while breaks[b] <= k:
            b += 1
        end = breaks[b]
        stack.append([k, end, singles[end - 1], None, 0.0])
        k = end
    # The sorted result: the singletons, each merged block written over its range.
    z = singles_arr.copy()
    starts = np.ones(n, dtype=bool)
    for lo, end, value, sums, _ in stack:
        if sums is not None:
            z[lo:end] = value
            starts[lo + 1 : end] = False
    return BlockPartition(np.flatnonzero(starts), z)


# The stack holds one entry [lo, end, value, sums, msum] per block or
# stretch covering lo..end-1.  A stretch of singletons has sums None, and
# its value is that of its last singleton; a merged block carries its
# value, weight sums (one float, or a (low, high) pair for the
# value-dependent weights) and target sum.  The empty bottom entry at -inf
# is never popped.  A fold rule is called when singleton k lies below the
# stack top; it pushes one merged block ending at the returned index.


def _pop_singleton(stack: list[list], singles) -> int:
    """Pop the last singleton of the stretch on top of the stack, by
    shortening the stretch; return its index."""
    top = stack[-1]
    lo = top[1] - 1
    if lo == top[0]:
        stack.pop()
    else:
        top[1], top[2] = lo, singles[lo - 1]
    return lo


def _fold_lazy(stack, k, singles, sigma, targets, rho, reference, kind) -> int:
    """The fold rule for constant weights, valuing the block lazily
    (``reference`` is unused; both rules take the same arguments).

    A block under construction is its first index and its weight and
    target sums; :func:`block_side` decides each fold, and
    :func:`block_minimize` runs once, when the block is pushed.  A part
    folded from the left lies above the block's value and one absorbed
    from the right below it, so the largest part value is a left one (or
    the first singleton's) and the smallest a right one: the solve's
    bracket.  Sums run left to right.
    """
    n = len(singles)
    c_lo, c_s, c_msum = k, sigma[k], targets[k]
    v_lo = v_hi = singles[k]
    k += 1
    fold = True
    while True:
        if fold:
            t_lo, _, t_value, t_s, t_msum = stack[-1]
            if t_s is None:
                c_lo = _pop_singleton(stack, singles)
                c_s, c_msum = sigma[c_lo] + c_s, targets[c_lo] + c_msum
            else:
                stack.pop()
                c_lo, c_s, c_msum = t_lo, t_s + c_s, t_msum + c_msum
            if t_value > v_hi:
                v_hi = t_value
        elif k < n and block_side(c_s, k - c_lo, c_msum, rho, kind, singles[k]) > 0:
            if singles[k] < v_lo:
                v_lo = singles[k]
            c_s, c_msum = c_s + sigma[k], c_msum + targets[k]
            k += 1
        else:
            break
        fold = block_side(c_s, k - c_lo, c_msum, rho, kind, stack[-1][2]) < 0
    v = block_minimize(c_s, k - c_lo, c_msum, rho, kind, v_lo, v_hi)
    stack.append([c_lo, k, v, c_s, c_msum])
    return k


def _fold_cpt(stack, k, singles, weights, targets, rho, reference, kind) -> int:
    """The fold rule for the value-dependent weights, solving every fold.

    Its two-piece block objective is not convex, so no slope sign decides
    a fold.  While the stack top exceeds the current block, the run of
    strictly decreasing values starting at the top is extended over the
    following singletons and folded into one block with a single two-piece
    solve.  ``weights`` holds the low- and high-piece weight columns; the
    block carries their sums as two floats, summed left to right.
    """
    low, high = weights
    n = len(singles)
    c_lo, c_value, c_low, c_high, c_msum = k, singles[k], low[k], high[k], targets[k]
    k += 1
    while stack[-1][2] > c_value:
        t_lo, _, _, t_sums, t_msum = stack[-1]
        if t_sums is None:
            c_lo = _pop_singleton(stack, singles)
            c_low, c_high = low[c_lo] + c_low, high[c_lo] + c_high
            c_msum = targets[c_lo] + c_msum
        else:
            stack.pop()
            c_lo, c_msum = t_lo, t_msum + c_msum
            c_low, c_high = t_sums[0] + c_low, t_sums[1] + c_high
        # Fold every following singleton below the run's last value.
        v_last = c_value
        while k < n and v_last > singles[k]:
            v_last = singles[k]
            c_low, c_high, c_msum = c_low + low[k], c_high + high[k], c_msum + targets[k]
            k += 1
        c_value = block_minimize_cpt(c_low, c_high, k - c_lo, c_msum, rho, reference, kind)
    stack.append([c_lo, k, c_value, (c_low, c_high), c_msum])
    return k


def solve_z_subproblem(
    m: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Minimize the rank-weighted loss plus (rho/2)||z - m||^2 over z.

    Sorts m ascending (stable), pairs rank weights with sorted slots,
    runs the merge pass, and scatters the sorted solution back to the
    original sample order.

    ``order``, when given, is a permutation of ``0..n-1`` (an intp array)
    that is read as a warm start and overwritten with the sorting order of
    ``m``: m is sorted along it (stably, so near-sorted input sorts in
    near-linear time).  If the sorted targets hold a tie, the cold stable
    argsort is used instead, since tied targets must stay in original
    index order.  Without ``order`` the warm start is ``0..n-1``, along
    which the stable sort is the cold one, so the result, and the order
    written back, do not depend on the warm start (and the tie fallback
    repeats that same sort).
    """
    m = np.asarray(m, dtype=float).ravel()
    if m.shape[0] != resolved.n:
        raise InvalidParameterError(f"m has length {m.shape[0]}, expected {resolved.n}")
    if order is None:
        order = np.arange(m.shape[0])
    perm = order[np.argsort(m[order], kind="stable")]
    m_sorted = m[perm]
    if np.any(m_sorted[1:] == m_sorted[:-1]):
        perm = np.argsort(m, kind="stable")
        m_sorted = m[perm]
    order[:] = perm
    z = np.empty_like(m)
    z[perm] = merge_blocks(m_sorted, resolved, rho, kind).z
    return z
