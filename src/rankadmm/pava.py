"""Chain-constrained minimization of separable rank-weighted objectives.

Solves, after sorting the targets m ascending,

    min_z  sum_i sigma_i * l(z_i) + (rho/2) (z_i - m_i)^2
    s.t.   z_1 <= z_2 <= ... <= z_n

by pool-adjacent-violators block merging in one left-to-right stack pass
(the O(n) formulation of Best, Chakravarti & Ubhaya, SIAM J. Optim.
10(3), 2000).  The blocks left of the cursor form an isotonic stack.  When
the stack top exceeds the next block, the run of strictly decreasing block
values starting at the top is extended over the following singletons and
folded into one block with a single scalar solve; the merged value always
lands between the run's last and first values, which is what makes the
multi-merge safe.  The merged block is then compared with the new stack
top.  Constant (rank-indexed) weights use the convex scalar solver; the
value-dependent prospect-theory weights carry both branch weight sums per
block and use the two-piece scalar solver.
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
    block_stationarity_residual,
    block_stationarity_residual_cpt,
)
from .weights import ResolvedWeights


@dataclass(frozen=True)
class Block:
    """Consecutive index range [lo, hi] (0-based, inclusive) in the sorted
    order, its current optimal value, its rank-weight sums (one per weight
    branch) and its target sum."""

    lo: int
    hi: int
    value: float
    sums: tuple[float, ...]
    m_sum: float

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1


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
    """Ordered blocks covering 0..n-1 with no gaps or overlaps."""

    blocks: list[Block]
    n: int

    def values(self) -> np.ndarray:
        """Expand block values to a length-n vector in sorted order."""
        values = np.array([b.value for b in self.blocks], dtype=float)
        counts = np.array([b.count for b in self.blocks], dtype=np.intp)
        return np.repeat(values, counts)

    def is_isotonic(self) -> bool:
        vals = [b.value for b in self.blocks]
        return all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def merge_blocks(
    m_sorted: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
    merge_log: list[MergeEvent] | None = None,
) -> BlockPartition:
    """Isotonic block partition of the sorted chain problem.

    Computes every singleton value first; a singleton whose weights are
    all zero is an exact quadratic and takes its target directly.  Then
    one stack pass merges each strictly decreasing run with one scalar
    solve and compares the result with the new stack top.  For the
    value-dependent weights the result is a first-order point, not
    necessarily a global minimum, and it depends on this merge order.
    """
    if resolved.is_value_dependent:
        branch_sums = list(zip(resolved.sigma_low.tolist(), resolved.sigma_high.tolist()))
        reference = resolved.reference

        def solve(sums: tuple[float, ...], count: int, m_sum: float) -> float:
            return block_minimize_cpt(
                BlockObjective(sums[0], count, m_sum, rho),
                BlockObjective(sums[1], count, m_sum, rho),
                reference,
                kind,
            )

    else:
        branch_sums = [(s,) for s in resolved.sigma.tolist()]

        def solve(sums: tuple[float, ...], count: int, m_sum: float) -> float:
            return block_minimize(BlockObjective(sums[0], count, m_sum, rho), kind)

    singles = [
        Block(i, i, solve(sums, 1, m_i) if any(sums) else m_i, sums, m_i)
        for i, (sums, m_i) in enumerate(zip(branch_sums, m_sorted.tolist()))
    ]
    n = len(singles)
    stack: list[Block] = []
    k = 0
    while k < n:
        block = singles[k]
        k += 1
        while stack and stack[-1].value > block.value:
            run = [stack.pop(), block]
            while k < n and run[-1].value > singles[k].value:
                run.append(singles[k])
                k += 1
            sums, m_sum = run[0].sums, run[0].m_sum
            for b in run[1:]:
                sums = tuple(a + c for a, c in zip(sums, b.sums))
                m_sum += b.m_sum
            lo, hi = run[0].lo, run[-1].hi
            v = solve(sums, hi - lo + 1, m_sum)
            if merge_log is not None:
                merge_log.append(MergeEvent(lo, hi, run[0].value, run[-1].value, v))
            block = Block(lo, hi, v, sums, m_sum)
        stack.append(block)
    return BlockPartition(stack, n)


def stationarity_residual(
    partition: BlockPartition,
    resolved: ResolvedWeights,
    m_sorted: np.ndarray,
    rho: float,
    kind: LossKind,
) -> float:
    """Max over blocks of the first-order residual at the block value."""
    worst = 0.0
    for b in partition.blocks:
        m_sum = float(np.sum(m_sorted[b.lo : b.hi + 1]))
        if resolved.is_value_dependent:
            s_low = float(np.sum(resolved.sigma_low[b.lo : b.hi + 1]))
            s_high = float(np.sum(resolved.sigma_high[b.lo : b.hi + 1]))
            r = block_stationarity_residual_cpt(
                BlockObjective(s_low, b.count, m_sum, rho),
                BlockObjective(s_high, b.count, m_sum, rho),
                resolved.reference,
                kind,
                b.value,
            )
        else:
            s = float(np.sum(resolved.sigma[b.lo : b.hi + 1]))
            r = block_stationarity_residual(
                BlockObjective(s, b.count, m_sum, rho), kind, b.value
            )
        worst = max(worst, r)
    return worst


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
