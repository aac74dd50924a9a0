import numpy as np
import pytest

import rankadmm.admm as admm_module
from rankadmm.data_io import SyntheticSpec, generate_synthetic, standardize
from rankadmm.losses import LossKind
from rankadmm.problem import Problem
from rankadmm.regularizers import ZERO
from rankadmm.weights import ERM
from rankadmm.wsolver import WSolver


def make_synthetic_problem(
    n=60,
    d=8,
    loss=LossKind.LOGISTIC,
    weights=None,
    regularizer=ZERO,
    seed=0,
    class_sep=1.0,
    flip_fraction=0.1,
):
    ds = generate_synthetic(
        SyntheticSpec(n=n, d=d, class_sep=class_sep, flip_fraction=flip_fraction, seed=seed)
    )
    ds, = standardize(ds)
    return Problem(
        X=ds.X,
        y=ds.y,
        loss=loss,
        weights=weights if weights is not None else ERM(),
        regularizer=regularizer,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class IterateRecorder:
    """Records the z- and w-steps of the solves that run while it is
    installed, through monkeypatch wrappers on ``solve_z_subproblem`` (as
    the outer loop calls it) and ``WSolver.solve``.

    Per outer iteration it keeps the z-step's target ``m`` and result
    ``z``, and the w-step's ``rho``, ``r`` and result ``w``; ``d_norm`` is
    the w-solver's norm estimate.
    """

    def __init__(self, monkeypatch):
        self.m, self.z, self.w, self.rho, self.r = [], [], [], [], []
        self.d_norm = None
        z_step = admm_module.solve_z_subproblem
        w_step = WSolver.solve

        def recording_z_step(m, *args, **kwargs):
            z = z_step(m, *args, **kwargs)
            self.m.append(m.copy())
            self.z.append(z.copy())
            return z

        def recording_w_step(solver, target, anchor, rho, r, reg, gamma=None):
            w = w_step(solver, target, anchor, rho, r, reg, gamma)
            self.d_norm = solver.d_norm
            self.w.append(w.copy())
            self.rho.append(rho)
            self.r.append(r)
            return w

        monkeypatch.setattr(admm_module, "solve_z_subproblem", recording_z_step)
        monkeypatch.setattr(WSolver, "solve", recording_w_step)

    def states(self, problem):
        """Iterates (w, z, lam, Dw) before the first iteration (a zero start)
        and after each iteration, lam rebuilt by the dual update
        lam' = lam + rho (z' - D w')."""
        w = np.zeros(problem.d)
        Dw = problem.apply_D(w)
        lam = np.zeros(problem.n)
        out = [(w, Dw.copy(), lam, Dw)]
        for w, z, rho in zip(self.w, self.z, self.rho):
            Dw = problem.apply_D(w)
            lam = lam + rho * (z - Dw)
            out.append((w, z, lam, Dw))
        return out

    def dual_seen(self, problem, k):
        """The lam the loop's z-step of iteration k used, recovered from its
        target m = D w - lam / rho."""
        w = self.w[k - 1] if k > 0 else np.zeros(problem.d)
        return self.rho[k] * (problem.apply_D(w) - self.m[k])


@pytest.fixture
def iterates(monkeypatch):
    return IterateRecorder(monkeypatch)
