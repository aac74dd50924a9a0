"""Reference solvers and optimality checks for the chain-constrained subproblem.

The grid solver discretizes the variable on a uniform grid and runs a
forward dynamic program with prefix minimization to enforce the
nondecreasing chain.  It deliberately shares no logic with the block-merge
solver so it can serve as an independent oracle in tests and from the
command line.  The pairwise solver is the textbook pool-adjacent-violators
loop that merges two adjacent blocks per scalar solve; it shares only the
scalar block solver with the merge engine in :mod:`rankadmm.pava`, so the
tests can check the engine's partitions against it.

The stationarity residuals measure first-order optimality from the loss
subdifferential (:func:`loss_subgradient_interval`): of one block value
(:func:`block_stationarity_residual`), of one value-dependent two-piece
block (:func:`block_stationarity_residual_cpt`), and of a whole partition
(:func:`stationarity_residual`, the worst block).
"""

from __future__ import annotations

import numpy as np

from .losses import LossKind, block_minimize, loss_derivative_vec, loss_value_vec
from .pava import BlockPartition
from .weights import ResolvedWeights


def _theta_on_grid(
    grid: np.ndarray,
    sigma_i: float,
    sigma_high_i: float | None,
    boundary: float | None,
    m_i: float,
    rho: float,
    kind: LossKind,
    losses_on_grid: np.ndarray,
) -> np.ndarray:
    quad = 0.5 * rho * (grid - m_i) ** 2
    if sigma_high_i is None:
        return sigma_i * losses_on_grid + quad
    w = np.where(grid <= boundary, sigma_i, sigma_high_i)
    return w * losses_on_grid + quad


def grid_dp_chain(
    m: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
    step: float = 1e-4,
    pad_lo: float = 3.0,
    pad_hi: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Grid solution of min sum theta_i(z_i) subject to the sorted chain.

    Returns (z, objective) with z in the original sample order.  The grid
    spans [min(m) - pad_lo, max(m) + pad_hi]; the chain constraint is
    enforced by taking running minima of the accumulated cost.
    """
    m = np.asarray(m, dtype=float).ravel()
    order = np.argsort(m, kind="stable")
    m_sorted = m[order]
    n = m_sorted.shape[0]

    lo = float(m_sorted[0]) - pad_lo
    hi = float(m_sorted[-1]) + pad_hi
    count = int(np.ceil((hi - lo) / step)) + 1
    grid = lo + step * np.arange(count)
    losses_on_grid = loss_value_vec(kind, grid)

    if resolved.is_value_dependent:
        sig_lo = resolved.sigma_low
        sig_hi = resolved.sigma_high
        boundary = resolved.reference
    else:
        sig_lo = resolved.sigma
        sig_hi = None
        boundary = None

    choice = np.empty((n, count), dtype=np.int32)
    running = np.zeros(count)
    idx = np.arange(count, dtype=np.int32)
    for i in range(n):
        cost = running + _theta_on_grid(
            grid,
            float(sig_lo[i]),
            None if sig_hi is None else float(sig_hi[i]),
            boundary,
            float(m_sorted[i]),
            rho,
            kind,
            losses_on_grid,
        )
        # Prefix argmin: best grid point at or below each position.
        best = np.minimum.accumulate(cost)
        take_here = cost <= best
        choice[i] = np.where(take_here, idx, 0)
        np.maximum.accumulate(choice[i], out=choice[i])
        running = best

    objective = float(running[-1])
    z_sorted = np.empty(n)
    j = count - 1
    for i in range(n - 1, -1, -1):
        j = int(choice[i, j])
        z_sorted[i] = grid[j]
    z = np.empty(n)
    z[order] = z_sorted
    return z, objective


def chain_objective_reference(
    z: np.ndarray,
    m: np.ndarray,
    resolved: ResolvedWeights,
    rho: float,
    kind: LossKind,
) -> float:
    """Objective sum theta_i at a point given in original sample order."""
    z = np.asarray(z, dtype=float).ravel()
    m = np.asarray(m, dtype=float).ravel()
    order = np.argsort(m, kind="stable")
    z_sorted = z[order]
    m_sorted = m[order]
    sigma = resolved.sigma_for(z_sorted)
    losses = loss_value_vec(kind, z_sorted)
    return float(sigma @ losses) + 0.5 * rho * float(np.sum((z_sorted - m_sorted) ** 2))


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


def stationarity_residual(
    partition: BlockPartition,
    resolved: ResolvedWeights,
    m_sorted: np.ndarray,
    rho: float,
    kind: LossKind,
) -> float:
    """Max over blocks of the first-order residual at the block value."""
    worst = 0.0
    for lo, hi, v in zip(partition.lo.tolist(), partition.hi.tolist(), partition.value.tolist()):
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
