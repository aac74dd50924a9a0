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

:func:`record_merges` records the merge pass's scalar solves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from rankadmm import pava
from rankadmm.losses import LossKind, block_minimize, loss_derivative_vec
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
