"""Grid reference solver for the chain-constrained subproblem.

The grid solver discretizes the variable on a uniform grid and runs a
forward dynamic program with prefix minimization to enforce the
nondecreasing chain.  It deliberately shares no logic with the block-merge
solver so it can serve as an independent oracle in tests and from the
command line.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .losses import LossKind, loss_value_vec
from .weights import ResolvedWeights

#: Cells of grid_dp_chain's (n, grid points) int32 choice table, with 16
#: more per grid point for its float64 work arrays over the grid: 1 GiB.
_MAX_TABLE_CELLS = 2**28


def chain_grid(m: np.ndarray, resolved: ResolvedWeights, rho: float, step: float) -> np.ndarray:
    """The points of :func:`grid_dp_chain`'s grid, ``step`` apart."""
    if not (0.0 < step < np.inf):
        raise InvalidParameterError(f"step must be finite and > 0, got {step}")
    if not (0.0 < rho < np.inf):
        raise InvalidParameterError(f"rho must be finite and > 0, got {rho}")
    columns = (resolved.sigma, resolved.sigma_low, resolved.sigma_high)
    lo = float(m.min()) - max(float(col.max()) for col in columns if col is not None) / rho
    hi = float(m.max())
    if resolved.is_value_dependent:
        lo, hi = min(lo, resolved.reference), max(hi, resolved.reference)
    points = np.ceil((hi - lo) / step) + 3.0  # a step beyond each end; inf for a tiny step
    if not (m.size + 16) * points <= _MAX_TABLE_CELLS:
        raise InvalidParameterError(
            f"grid table of {m.size} x {points:.3g} cells with its work arrays exceeds "
            f"{_MAX_TABLE_CELLS}; use fewer samples, a larger step or a larger rho"
        )
    return lo - step + step * np.arange(int(points))


def grid_dp_chain(m: np.ndarray, resolved: ResolvedWeights, rho: float, kind: LossKind,
                  step: float = 1e-4) -> tuple[np.ndarray, float]:
    """Grid solution of min sum theta_i(z_i) subject to the sorted chain.

    Returns (z, objective) with z in the original sample order.  The grid
    spans [min(min(m) - sigma_max/rho, B), max(max(m), B)], widened by one
    step, with sigma_max the largest weight of any column and B the
    reference point, which counts only for value-dependent weights.  Every
    optimum lies there.  It splits into blocks of equal value v, and a
    block of ``count`` samples with target mean ``mean`` and weight sum S
    on a piece of fixed weights has rho*count*(v - mean) = -S*l'(v) with
    0 <= l' <= 1, so v lies in [mean - S/(rho*count), mean] and
    S/count <= sigma_max; a value-dependent block may instead sit at B,
    where its weights switch.  The chain constraint is enforced by taking
    running minima of the accumulated cost.  The backtracking table holds
    one int32 per sample and grid point; a table that would pass
    ``_MAX_TABLE_CELLS`` cells with its work arrays, which a small rho
    widens, or a ``step`` or ``rho`` that is not finite and positive,
    raises InvalidParameterError before anything is allocated.
    """
    m = np.asarray(m, dtype=float).ravel()
    grid = chain_grid(m, resolved, rho, step)
    count = grid.size
    order = np.argsort(m, kind="stable")
    m_sorted = m[order]
    n = m_sorted.shape[0]
    losses_on_grid = loss_value_vec(kind, grid)

    # sample i weighs the loss by sig_lo[i] where ``low`` holds, else by sig_hi[i]
    if resolved.is_value_dependent:
        sig_lo, sig_hi = resolved.sigma_low, resolved.sigma_high
        low = grid <= resolved.reference
    else:
        sig_lo = sig_hi = resolved.sigma
        low = True

    choice = np.empty((n, count), dtype=np.int32)
    running = np.zeros(count)
    idx = np.arange(count, dtype=np.int32)
    for i in range(n):
        weight = np.where(low, sig_lo[i], sig_hi[i])
        cost = running + (weight * losses_on_grid + 0.5 * rho * (grid - m_sorted[i]) ** 2)
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
