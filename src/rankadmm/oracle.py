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

#: Cells of grid_dp_chain's (n, grid points) int32 choice table: 1 GiB.
_MAX_TABLE_CELLS = 2**28


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
    enforced by taking running minima of the accumulated cost.  The
    backtracking table holds one int32 per sample and grid point; a table
    above ``_MAX_TABLE_CELLS`` cells, or a ``step`` or ``rho`` that is not
    finite and positive, raises InvalidParameterError before anything is
    allocated.
    """
    if not (0.0 < step < np.inf):
        raise InvalidParameterError(f"step must be finite and > 0, got {step}")
    if not (0.0 < rho < np.inf):
        raise InvalidParameterError(f"rho must be finite and > 0, got {rho}")
    m = np.asarray(m, dtype=float).ravel()
    order = np.argsort(m, kind="stable")
    m_sorted = m[order]
    n = m_sorted.shape[0]

    lo = float(m_sorted[0]) - pad_lo
    hi = float(m_sorted[-1]) + pad_hi
    points = np.ceil((hi - lo) / step) + 1.0  # a float: inf for a tiny step
    if not n * points <= _MAX_TABLE_CELLS:
        raise InvalidParameterError(
            f"grid table of {n} x {points:.3g} cells exceeds {_MAX_TABLE_CELLS}; "
            "use fewer samples or a larger step"
        )
    count = int(points)
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
