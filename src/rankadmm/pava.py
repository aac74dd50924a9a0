"""Chain-constrained minimization of separable rank-weighted objectives.

Solves, after sorting the targets m ascending,

    min_z  sum_i sigma_i * l(z_i) + (rho/2) (z_i - m_i)^2
    s.t.   z_1 <= z_2 <= ... <= z_n

by pool-adjacent-violators block merging in one left-to-right stack pass
(the O(n) formulation of Best, Chakravarti & Ubhaya, SIAM J. Optim.
10(3), 2000).  The singleton values come first: one array solve
computes them all, for every weight scheme.  One numpy comparison finds
the breaks, the singletons below their left neighbour; between two breaks
the singletons are in order.  Singletons are never pushed: the stack
holds the merged blocks only, every index they leave out is a singleton,
and the pass jumps from one break to the next.  Python work therefore
scales with merges, not with n.

The pass is shared by every weight scheme; only its fold rule, run when a
singleton lies below its left neighbour, depends on the scheme.

For constant weights (:func:`_fold_lazy`) the blocks are valued lazily.
A singleton below its left neighbour starts a block that carries only
its weight sum, size and target sum.  Each fold is decided by the sign
of the block objective's slope at a neighbour's value
(:func:`~rankadmm.losses.block_side`): the block folds in its left
neighbour while its minimizer lies below that value, and absorbs the next
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
sign decides a fold: when the left neighbour exceeds the block, the run
of strictly decreasing values starting at that neighbour is extended over
the following singletons and folded with one solve, and the result is
compared with its new left neighbour.

The weights are checked once, when they are resolved; the pass checks
rho and the targets and hands each merge solve plain floats: the block's
weight sums, size and target sum.  Only a sum that overflows is caught
per merge, by the scalar solve itself; an overflowed sum stays non-finite
until its block is pushed and solved.

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
    """Ordered blocks covering 0..n-1: ``merged`` lists the (start, end)
    ranges of the merged blocks, every other index is a block of its own,
    and ``z`` holds every block's value over its range."""

    z: np.ndarray
    merged: list[tuple[int, int]]

    @property
    def lo(self) -> np.ndarray:
        """The 0-based start of each block in the sorted order."""
        starts = np.ones(len(self.z), dtype=bool)
        for lo, end in self.merged:
            starts[lo + 1 : end] = False
        return np.flatnonzero(starts)


def merge_blocks(
    m_sorted: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
) -> BlockPartition:
    """Isotonic block partition of the sorted chain problem.

    Computes every singleton value first, in one array solve; a singleton
    whose weights are all zero is an exact quadratic and takes its target
    directly.  Then one stack pass jumps from each break (a singleton
    below its left neighbour) to the next and hands every violation to
    the scheme's fold rule; singletons are never pushed, only the merged
    blocks.  For constant weights (:func:`_fold_lazy`) a block under
    construction carries only its sums: each fold into it is decided by
    :func:`~rankadmm.losses.block_side`, and its one scalar solve runs when
    it is pushed.  The value-dependent weights (:func:`_fold_cpt`) solve
    after every fold; their result is a first-order point, not necessarily
    a global minimum, and it depends on this merge order.
    """
    # rho and the targets change on every call; the weights were checked
    # when they were resolved.  The scalar solves take plain floats unchecked.
    if not (rho > 0):
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not np.all(np.isfinite(m_sorted)):
        raise InvalidParameterError("targets contain non-finite entries")
    if resolved.is_value_dependent:
        low, high = resolved.sigma_low, resolved.sigma_high
        singles_arr = singleton_minimize_cpt(low, high, m_sorted, resolved.reference, rho, kind)
        fold, weights = _fold_cpt, (memoryview(low), memoryview(high))
    else:
        singles_arr = singleton_minimize(resolved.sigma, m_sorted, rho, kind)
        fold, weights = _fold_lazy, memoryview(resolved.sigma)

    n = singles_arr.shape[0]
    breaks = (np.flatnonzero(singles_arr[1:] < singles_arr[:-1]) + 1).tolist()
    # Per-merge reads go through memoryviews, which index to Python floats.
    singles, targets = memoryview(singles_arr), memoryview(m_sorted)
    args = (singles, weights, targets, rho, resolved.reference, kind)
    stack: list[list] = [[0, 0, -math.inf, None, 0.0]]
    k = 0
    for j in breaks:
        # A break that a merged block covers, or that ends one, needs no fold.
        if j > k:
            k = fold(stack, j, *args)
            while k < n and stack[-1][2] > singles[k]:
                k = fold(stack, k, *args)
    # The sorted result: the singletons, each merged block written over its range.
    z = singles_arr.copy()
    for lo, end, value, _, _ in stack:
        z[lo:end] = value
    return BlockPartition(z, [(lo, end) for lo, end, *_ in stack[1:]])


# The stack holds one entry [lo, end, value, sums, msum] per merged block
# over lo..end-1, with its weight sums (one float, or a (low, high) pair
# for the value-dependent weights) and target sum; the empty bottom entry
# at -inf is never popped.  The left neighbour of index lo is the top block
# if it ends at lo, else singleton lo - 1.  A fold rule is called when
# singleton k lies below it, and pushes one block ending at the returned k.


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
            t_lo, t_end, t_value, t_s, t_msum = stack[-1]
            if t_end == c_lo:
                stack.pop()
            else:  # the left neighbour is a singleton
                t_lo = c_lo - 1
                t_value, t_s, t_msum = singles[t_lo], sigma[t_lo], targets[t_lo]
            c_lo, c_s, c_msum = t_lo, t_s + c_s, t_msum + c_msum
            if t_value > v_hi:
                v_hi = t_value
            top = stack[-1]
            left = top[2] if top[1] == c_lo else singles[c_lo - 1]
        elif k < n and block_side(c_s, k - c_lo, c_msum, rho, kind, singles[k]) > 0:
            if singles[k] < v_lo:
                v_lo = singles[k]
            c_s, c_msum = c_s + sigma[k], c_msum + targets[k]
            k += 1
        else:
            break
        fold = block_side(c_s, k - c_lo, c_msum, rho, kind, left) < 0
    v = block_minimize(c_s, k - c_lo, c_msum, rho, kind, v_lo, v_hi)
    stack.append([c_lo, k, v, c_s, c_msum])
    return k


def _fold_cpt(stack, k, singles, weights, targets, rho, reference, kind) -> int:
    """The fold rule for the value-dependent weights, solving every fold.

    Its two-piece block objective is not convex, so no slope sign decides
    a fold.  While the left neighbour exceeds the current block, the run of
    strictly decreasing values starting at that neighbour is extended over
    the following singletons and folded into one block with a single
    two-piece solve.  ``weights`` holds the low- and high-piece weight
    columns; the block carries their sums as two floats, summed left to right.
    """
    low, high = weights
    n = len(singles)
    c_lo, c_value, c_low, c_high, c_msum = k, singles[k], low[k], high[k], targets[k]
    k += 1
    while True:
        t_lo, t_end, t_value, t_sums, t_msum = stack[-1]
        if t_end != c_lo:  # the left neighbour is a singleton
            t_lo = c_lo - 1
            t_value, t_sums, t_msum = singles[t_lo], (low[t_lo], high[t_lo]), targets[t_lo]
        if not t_value > c_value:
            break
        if t_end == c_lo:
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
