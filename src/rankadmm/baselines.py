"""Rank-weighted subgradient descent baseline.

A plain fixed-step subgradient method over shuffled minibatches.  Each
batch is treated as its own smaller problem: the weight scheme is
re-resolved at the batch size, which is the usual practice for these
comparators but introduces bias for non-uniform schemes.  Like the ADMM
solvers, ``sgd_solve`` returns a SolverResult, one trace row per epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import weights as wgt
from .admm import SolverResult, budget_spent, trace_array
from .errors import (InvalidParameterError, SolverError, check_int, check_wall_budget,
                     store_floats)
from .losses import loss_derivative_vec
from .problem import Problem
from .regularizers import reg_subgradient


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 1e-3
    batch: int | None = 64
    epochs: int = 2000
    seed: int = 0
    wall_budget_s: float | None = None

    def __post_init__(self):
        if not (0 <= self.learning_rate < math.inf):
            raise InvalidParameterError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )
        check_int("epochs", self.epochs, 1)
        if self.batch is not None:
            check_int("batch", self.batch, 1)
        check_int("seed", self.seed, 0)
        check_wall_budget(self.wall_budget_s)
        store_floats(self, "learning_rate", "wall_budget_s")


def rank_subgradient(
    problem: Problem,
    w: np.ndarray,
    batch_indices: np.ndarray,
    resolved: wgt.ResolvedWeights | None = None,
) -> np.ndarray:
    """Subgradient of the batch rank-weighted loss plus the penalty.

    Sorts the batch margins, takes the batch-sized weights (``resolved``,
    or the scheme resolved at the batch size when not given), scatters
    them back to sample positions, and chains through the data operator.
    """
    idx = np.asarray(batch_indices)
    if idx.size == 0:
        raise InvalidParameterError("batch must be nonempty")
    Xb = problem.X[idx]
    yb = problem.y[idx]
    zb = -yb * (Xb @ w)
    nb = idx.size

    if resolved is None:
        resolved = wgt.resolve(problem.weights, nb)
    order = np.argsort(zb, kind="stable")
    sigma_sorted = resolved.sigma_for(zb[order])
    weight = np.empty(nb)
    weight[order] = sigma_sorted

    deriv = loss_derivative_vec(problem.loss, zb)
    pull = -yb * (weight * deriv)
    grad = Xb.T @ pull
    return grad + reg_subgradient(problem.regularizer, w)


def sgd_solve(problem: Problem, config: SgdConfig) -> SolverResult:
    """Fixed-step subgradient descent over shuffled batches.

    One trace row per epoch with the full objective; the stationarity
    columns stay at zero since the method does not estimate them, and the
    augmented Lagrangian and gamma are NaN.  The stop reason is
    "wall_budget" when the budget ended the loop, else "max_iter".  A
    non-finite w or objective raises SolverError at its epoch.
    """
    rng = np.random.default_rng(config.seed)
    n = problem.n
    w = np.zeros(problem.d)
    batch = n if config.batch is None else min(config.batch, n)
    # Every epoch has the same batch sizes: full ones and the remainder.
    sizes = {batch, n - (n - 1) // batch * batch}
    resolved = {nb: wgt.resolve(problem.weights, nb) for nb in sizes}
    rows = []
    stop_reason = "max_iter"
    start = time.perf_counter_ns()
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch):
            idx = perm[lo : lo + batch]
            g = rank_subgradient(problem, w, idx, resolved[idx.size])
            w = w - config.learning_rate * g
        objective = problem.objective(w)
        if not (math.isfinite(objective) and np.all(np.isfinite(w))):
            raise SolverError("w or its objective is non-finite", iteration=epoch)
        rows.append((epoch, objective, math.nan, *[0.0] * 7, math.nan,
                     time.perf_counter_ns() - start))
        if budget_spent(config.wall_budget_s, start):
            stop_reason = "wall_budget"
            break
    return SolverResult(w=w, trace=trace_array(rows), stop_reason=stop_reason)
