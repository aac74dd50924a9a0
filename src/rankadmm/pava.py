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
above the stack top is pushed with one ``list.extend``.  Python work
therefore scales with merges, not with n.  When the stack top exceeds the
next block, the run of strictly decreasing block values starting at the
top is extended over the following singletons and folded into one block
with a single scalar solve; the merged value always lands between the
run's last and first values, which is what makes the multi-merge safe.
The merged block is then compared with the new stack top.  The stack is
kept as parallel lists of block starts, values, weight sums and target
sums.  The value-dependent prospect-theory weights use the same pass with
two weight-sum columns, an array two-piece singleton solve and the
two-piece scalar solver for merges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .losses import (
    BlockObjective,
    LossKind,
    block_minimize,
    block_minimize_cpt,
    singleton_minimize,
    singleton_minimize_cpt,
)
from .weights import ResolvedWeights


@dataclass(frozen=True)
class MergeEvent:
    """One merge: value of the run's first (largest) and last (smallest)
    blocks and the recomputed merged value."""

    lo: int
    hi: int
    v_first: float
    v_last: float
    v_merged: float


@dataclass
class BlockPartition:
    """Ordered blocks covering 0..n-1 with no gaps or overlaps: block j
    spans ``lo[j]..hi[j]`` (0-based, inclusive) in the sorted order and
    takes the value ``value[j]``."""

    lo: np.ndarray
    value: np.ndarray
    n: int

    @property
    def count(self) -> np.ndarray:
        return np.diff(np.append(self.lo, self.n))

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.count - 1

    def values(self) -> np.ndarray:
        """Expand block values to a length-n vector in sorted order."""
        return np.repeat(self.value, self.count)


def merge_blocks(
    m_sorted: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
    merge_log: list[MergeEvent] | None = None,
) -> BlockPartition:
    """Isotonic block partition of the sorted chain problem.

    Computes every singleton value first, in one array solve; a singleton
    whose weights are all zero is an exact quadratic and takes its target
    directly.  Then one stack pass pushes each in-order stretch of
    singletons at once, merges each strictly decreasing run with one
    scalar solve and compares the result with the new stack top.  For the value-dependent weights
    the result is a first-order point, not necessarily a global minimum,
    and it depends on this merge order.
    """
    m_list = m_sorted.tolist()
    if resolved.is_value_dependent:
        cols = [resolved.sigma_low.tolist(), resolved.sigma_high.tolist()]
        reference = resolved.reference

        def solve(sums: list[float], count: int, m_sum: float) -> float:
            return block_minimize_cpt(
                BlockObjective(sums[0], count, m_sum, rho),
                BlockObjective(sums[1], count, m_sum, rho),
                reference,
                kind,
            )

        singles_arr = singleton_minimize_cpt(
            resolved.sigma_low, resolved.sigma_high, m_sorted, reference, rho, kind
        )
    else:
        cols = [resolved.sigma.tolist()]

        def solve(sums: list[float], count: int, m_sum: float) -> float:
            return block_minimize(BlockObjective(sums[0], count, m_sum, rho), kind)

        singles_arr = singleton_minimize(resolved.sigma, m_sorted, rho, kind)

    n = len(m_list)
    singles = singles_arr.tolist()
    # Starts of the in-order stretches: singletons below their left neighbour.
    breaks = (np.flatnonzero(singles_arr[1:] < singles_arr[:-1]) + 1).tolist() + [n]
    # The stack, one list per block field; a block ends where the next begins.
    lo: list[int] = []
    value: list[float] = []
    wsum: list[list[float]] = [[] for _ in cols]
    msum: list[float] = []
    k = 0
    b = 0
    while k < n:
        if not (value and value[-1] > singles[k]):
            # Nothing to merge up to the next break: push the stretch.
            while breaks[b] <= k:
                b += 1
            end = breaks[b]
            lo.extend(range(k, end))
            value.extend(singles[k:end])
            msum.extend(m_list[k:end])
            for st, col in zip(wsum, cols):
                st.extend(col[k:end])
            k = end
            continue
        c_lo, c_value, c_sums, c_msum = k, singles[k], [col[k] for col in cols], m_list[k]
        k += 1
        while value and value[-1] > c_value:
            # Fold the top, the current block and every following singleton
            # below the run's last value, summing left to right.
            r_lo, v_first, r_msum = lo.pop(), value.pop(), msum.pop()
            sums = [st.pop() + c for st, c in zip(wsum, c_sums)]
            r_msum += c_msum
            v_last = c_value
            while k < n and v_last > singles[k]:
                v_last = singles[k]
                sums = [a + col[k] for a, col in zip(sums, cols)]
                r_msum += m_list[k]
                k += 1
            v = solve(sums, k - r_lo, r_msum)
            if merge_log is not None:
                merge_log.append(MergeEvent(r_lo, k - 1, v_first, v_last, v))
            c_lo, c_value, c_sums, c_msum = r_lo, v, sums, r_msum
        lo.append(c_lo)
        value.append(c_value)
        msum.append(c_msum)
        for st, c in zip(wsum, c_sums):
            st.append(c)
    return BlockPartition(np.array(lo, dtype=np.intp), np.array(value, dtype=float), n)


def solve_z_subproblem(
    m: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
    merge_log: list[MergeEvent] | None = None,
) -> np.ndarray:
    """Minimize the rank-weighted loss plus (rho/2)||z - m||^2 over z.

    Sorts m ascending (stable), pairs rank weights with sorted slots,
    runs the merge pass, and inverse-permutes the block values back to
    the original sample order.
    """
    m = np.asarray(m, dtype=float).ravel()
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("targets contain non-finite entries")
    if not (rho > 0):
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if m.shape[0] != resolved.n:
        raise InvalidParameterError(f"m has length {m.shape[0]}, expected {resolved.n}")
    order = np.argsort(m, kind="stable")
    partition = merge_blocks(m[order], resolved, rho, kind, merge_log)
    z = np.empty_like(m)
    z[order] = partition.values()
    return z
