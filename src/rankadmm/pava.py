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

For constant weights the blocks are valued lazily.  A singleton below the
stack top starts a block that carries only its weight sum, size and
target sum.  Each fold is decided by the sign of the block objective's
slope at a neighbour's value (:func:`~rankadmm.losses.block_side`): the
block folds in the stack top while its minimizer lies below the top's
value, and absorbs the next singleton while its minimizer lies above that
singleton's value.  The block objective is convex, so the sign is exactly
the comparison with the minimizer, and pooling order does not change the
result (Best et al.), so only a pushed block needs its value: one scalar
solve per pushed block, bracketed by the smallest and largest values of
the parts it pooled.  The sorted solution is a copy of the singleton
values with each merged block written over its range.

The value-dependent prospect-theory weights use the same stack with two
weight-sum columns, an array two-piece singleton solve and the two-piece
scalar solver.  That block objective is not convex, so no slope sign
decides a fold: when the stack top exceeds the next block, the run of
strictly decreasing values starting at the top is extended over the
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
    singletons as one entry and pools every violation.  For constant
    weights a block under construction carries only its sums: each fold
    into it is decided by :func:`~rankadmm.losses.block_side`, and its one
    scalar solve runs when it is pushed.  The value-dependent weights
    solve after every fold; their result is a first-order point, not
    necessarily a global minimum, and it depends on this merge order.
    """
    cpt = resolved.is_value_dependent
    if cpt:
        col_arrs = [resolved.sigma_low, resolved.sigma_high]
    else:
        col_arrs = [resolved.sigma]
    # Validated once here: the scalar solves take plain floats unchecked.
    if not (rho > 0):
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not np.all(np.isfinite(m_sorted)):
        raise InvalidParameterError("targets contain non-finite entries")
    for col in col_arrs:
        if not (col.min() >= 0.0 and col.max() < math.inf):
            raise InvalidParameterError("rank weights must be finite and nonnegative")
    if cpt:
        singles_arr = singleton_minimize_cpt(
            resolved.sigma_low, resolved.sigma_high, m_sorted, resolved.reference, rho, kind
        )
    else:
        singles_arr = singleton_minimize(resolved.sigma, m_sorted, rho, kind)

    n = singles_arr.shape[0]
    # Starts of the in-order stretches: singletons below their left neighbour.
    breaks = (np.flatnonzero(singles_arr[1:] < singles_arr[:-1]) + 1).tolist() + [n]
    # Per-merge reads go through memoryviews, which index to Python floats.
    singles, targets = memoryview(singles_arr), memoryview(m_sorted)
    cols = [memoryview(col) for col in col_arrs]
    if cpt:
        stack = _eager_pass_cpt(singles, cols, targets, breaks, rho, resolved.reference, kind)
    else:
        stack = _lazy_pass(singles, cols[0], targets, breaks, rho, kind)
    # The sorted result: the singletons, each merged block written over its range.
    z = singles_arr.copy()
    starts = np.ones(n, dtype=bool)
    for lo, end, value, sums, _ in stack:
        if sums is not None:
            z[lo:end] = value
            starts[lo + 1 : end] = False
    return BlockPartition(np.flatnonzero(starts), z)


# Both passes build the same stack, one entry [lo, end, value, sums, msum]
# per block or stretch covering lo..end-1.  A stretch of singletons has
# sums None, and its value is that of its last singleton; a merged block
# carries its value, weight sums and target sum.  The empty bottom entry at
# -inf is never popped.  A stretch is pushed whole when its first singleton
# is not below the stack top; a merge that reaches into it pops its last
# singleton by shortening it.


def _lazy_pass(singles, sigma, targets, breaks, rho, kind) -> list[list]:
    """The stack pass for constant weights, valuing each block lazily.

    A block under construction is its first index and its weight and
    target sums; :func:`block_side` decides each fold, and
    :func:`block_minimize` runs once, when the block is pushed.  A part
    folded from the left lies above the block's value and one absorbed
    from the right below it, so the largest part value is a left one (or
    the first singleton's) and the smallest a right one: the solve's
    bracket.  Sums run left to right.
    """
    n = len(singles)
    stack: list[list] = [[0, 0, -math.inf, None, 0.0]]
    k = 0
    b = 0
    while k < n:
        if not stack[-1][2] > singles[k]:
            # Nothing to merge up to the next break: push the stretch.
            while breaks[b] <= k:
                b += 1
            end = breaks[b]
            stack.append([k, end, singles[end - 1], None, 0.0])
            k = end
            continue
        # Singleton k lies below the stack top, so the first step is a fold.
        c_lo, c_s, c_msum = k, sigma[k], targets[k]
        v_lo = v_hi = singles[k]
        k += 1
        fold = True
        while True:
            if fold:
                top = stack[-1]
                t_lo, t_end, t_value, t_s, t_msum = top
                if t_s is None:
                    # Pop the stretch's last singleton.
                    c_lo = t_end - 1
                    if c_lo == t_lo:
                        stack.pop()
                    else:
                        top[1], top[2] = c_lo, singles[c_lo - 1]
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
    return stack


def _eager_pass_cpt(singles, cols, targets, breaks, rho, reference, kind) -> list[list]:
    """The stack pass for the value-dependent weights, solving every fold.

    Its two-piece block objective is not convex, so no slope sign decides
    a fold.  When the stack top exceeds the next singleton, the run of
    strictly decreasing values starting at the top is extended over the
    following singletons and folded into one block with a single two-piece
    solve; the merged block is then compared with the new stack top.
    ``cols`` holds the low- and high-piece weight columns.
    """
    n = len(singles)
    stack: list[list] = [[0, 0, -math.inf, None, 0.0]]
    k = 0
    b = 0
    while k < n:
        if not stack[-1][2] > singles[k]:
            # Nothing to merge up to the next break: push the stretch.
            while breaks[b] <= k:
                b += 1
            end = breaks[b]
            stack.append([k, end, singles[end - 1], None, 0.0])
            k = end
            continue
        c_lo, c_value, c_sums, c_msum = k, singles[k], [col[k] for col in cols], targets[k]
        k += 1
        while stack[-1][2] > c_value:
            # Fold the top, the current block and every following singleton
            # below the run's last value, summing left to right.
            top = stack[-1]
            t_lo, t_end, _, t_sums, t_msum = top
            if t_sums is None:
                # Pop the stretch's last singleton.
                if t_end - 1 == t_lo:
                    stack.pop()
                else:
                    top[1], top[2] = t_end - 1, singles[t_end - 2]
                t_lo = t_end - 1
                sums = [col[t_lo] + c for col, c in zip(cols, c_sums)]
                r_msum = targets[t_lo] + c_msum
            else:
                stack.pop()
                sums = [a + c for a, c in zip(t_sums, c_sums)]
                r_msum = t_msum + c_msum
            v_last = c_value
            while k < n and v_last > singles[k]:
                v_last = singles[k]
                sums = [a + col[k] for a, col in zip(sums, cols)]
                r_msum += targets[k]
                k += 1
            v = block_minimize_cpt(sums[0], sums[1], k - t_lo, r_msum, rho, reference, kind)
            c_lo, c_value, c_sums, c_msum = t_lo, v, sums, r_msum
        stack.append([c_lo, k, c_value, c_sums, c_msum])
    return stack


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
