"""Workload definitions and output checks for the rankadmm benchmark.

Every input is generated from the workload seed.  Three workloads time one
``admm_solve``/``sadmm_solve`` call on a fixed problem; ``sweep`` times one
in-process ``rankadmm benchmark`` invocation on a fixed plan.  NOTES.md says
why each workload exists.

Import this module only after the thread environment is pinned (run.py does
that), because it imports numpy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rankadmm as ra
from rankadmm import data_io
from rankadmm.oracle import chain_objective_reference, grid_dp_chain

SOLVE_WORKLOADS = ("srm-superquantile", "mcp-wide", "cpt-smooth")
WORKLOADS = SOLVE_WORKLOADS + ("sweep",)

#: Relative tolerance on the final objective against the stored value for
#: the same seed.  Repeated solves at this commit agree bit for bit; the
#: slack leaves room for a speedup that reorders floating-point sums.
REL_TOL = 1e-6
#: For a seed without a stored value, the objective must lie within this
#: relative margin of the range spanned by the stored seeds.
BAND = 0.25
#: Absolute objective tolerance of the grid oracle (step 1e-4), as in the
#: package's own acceptance tests.
ORACLE_TOL = 1e-3
#: Problem instances per run of a solve workload: data seeds K*seed ..
#: K*seed+K-1.  Solve times differ from one instance to another by up to
#: 25% (on mcp-wide); a run that pools several lets its medians move less
#: with the seed.
INSTANCES = 6
#: Data seeds per cell of the sweep plan: K*seed .. K*seed+K-1.
SWEEP_SEEDS = 3
#: Runs per sweep plan: 4 cells x SWEEP_SEEDS seeds.
SWEEP_RUNS = 4 * SWEEP_SEEDS

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class SolveInputs:
    seed: int
    problem: ra.Problem
    config: ra.SolverConfig
    smoothed: bool

    def solve(self) -> ra.SolverResult:
        # Looked up at call time so the tracer's wrappers are seen.
        fn = ra.admm.sadmm_solve if self.smoothed else ra.admm.admm_solve
        return fn(self.problem, self.config)


def _synthetic(seed: int, n: int, d: int, sep: float, flip: float = 0.0):
    spec = data_io.SyntheticSpec(n=n, d=d, class_sep=sep, flip_fraction=flip, seed=seed)
    return data_io.standardize(data_io.generate_synthetic(spec))[0]


def build_solve(name: str, seed: int, tiny: bool = False) -> SolveInputs:
    """Generate, standardize and wrap one solve workload's inputs."""
    if name == "srm-superquantile":
        ds = _synthetic(seed, *((200, 10) if tiny else (2000, 50)), sep=3.0)
        problem = ra.Problem(ds.X, ds.y, ra.LossKind.LOGISTIC, ra.Superquantile(q=0.9),
                             ra.l2(1e-2))
        schedule, max_iter, smoothed = ra.ScheduleSpec.srm(), 300, False
    elif name == "mcp-wide":
        ds = _synthetic(seed, *((60, 40) if tiny else (500, 400)), sep=3.0)
        problem = ra.Problem(ds.X, ds.y, ra.LossKind.LOGISTIC, ra.Extremile(order=2.0),
                             ra.mcp(1e-2, 3.0))
        schedule, max_iter, smoothed = ra.ScheduleSpec.srm(), 100, False
    elif name == "cpt-smooth":
        ds = _synthetic(seed, *((200, 10) if tiny else (2000, 50)), sep=2.0, flip=0.05)
        problem = ra.Problem(ds.X, ds.y, ra.LossKind.LOGISTIC, ra.CPTValueDependent(),
                             ra.mcp(1e-2, 3.0))
        schedule, max_iter, smoothed = ra.ScheduleSpec.ehrm(), 100, True
    else:
        raise ValueError(f"not a solve workload: {name}")
    config = ra.SolverConfig(
        max_iter=10 if tiny else max_iter, rho_schedule=schedule, stop_eps=1e-6
    )
    return SolveInputs(seed, problem, config, smoothed)


def build_solves(name: str, seed: int, tiny: bool = False) -> list[SolveInputs]:
    """The INSTANCES problem instances of one run of a solve workload."""
    return [build_solve(name, INSTANCES * seed + i, tiny) for i in range(INSTANCES)]


def sweep_plan(seed: int, tiny: bool = False) -> dict:
    """Four cells x SWEEP_SEEDS seeds at n=600, d=30, 0.7/0.3 split."""
    n, d = (120, 8) if tiny else (600, 30)
    dataset = {"synthetic": {"n": n, "d": d, "class_sep": 2.0, "flip_fraction": 0.05}}
    split = {"fractions": [0.7, 0.3]}
    seeds = [SWEEP_SEEDS * seed + i for i in range(SWEEP_SEEDS)]
    iters = 5 if tiny else 60
    aorr_k, aorr_m = (24, 2) if tiny else (120, 6)
    common = {"dataset": dataset, "split": split, "seeds": seeds}
    cells = [
        {"name": "superquantile_admm", "scheme": {"kind": "superquantile", "q": 0.9},
         "loss": "logistic", "regularizer": {"variant": "l2", "mu": 1e-2},
         "solver": "admm", "config": {"schedule": "srm", "max_iter": iters}},
        {"name": "aorr_admm", "scheme": {"kind": "aorr", "k": aorr_k, "m": aorr_m},
         "loss": "hinge", "regularizer": {"variant": "l1", "mu": 1e-4},
         "solver": "admm", "config": {"schedule": "aorr", "max_iter": iters}},
        {"name": "cpt_sadmm", "scheme": {"kind": "cpt"},
         "loss": "logistic", "regularizer": {"variant": "l2", "mu": 1e-2},
         "solver": "sadmm", "config": {"schedule": "ehrm", "max_iter": iters // 3}},
        {"name": "superquantile_sgd", "scheme": {"kind": "superquantile", "q": 0.9},
         "loss": "logistic", "regularizer": {"variant": "l2", "mu": 1e-2},
         "solver": "sgd", "config": {"learning_rate": 0.05, "batch": 64,
                                     "epochs": 10 if tiny else 100}},
    ]
    return {"cells": [dict(common, **cell) for cell in cells]}


def sweep_trace_files(plan: dict, out_dir: Path) -> list[tuple[str, Path]]:
    """(solver, trace CSV path) of every run the harness writes for a plan
    (its naming scheme)."""
    return [
        (c["solver"], out_dir / f"{c['name']}_{c['solver']}_seed{s}.csv")
        for c in plan["cells"]
        for s in c["seeds"]
    ]


def read_summary(out_dir: Path) -> list[dict]:
    with open(out_dir / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


# -- reference values ----------------------------------------------------------


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _objective_problem(value: float, stored: dict, seed: int, what: str) -> str | None:
    """Compare against the stored value for this seed, else the stored band."""
    if not math.isfinite(value):
        return f"{what}: non-finite objective {value}"
    key = str(seed)
    if key in stored:
        ref = stored[key]
        if abs(value - ref) > REL_TOL * max(abs(ref), 1e-12):
            return f"{what}: objective {value!r} differs from stored {ref!r} (rel tol {REL_TOL})"
        return None
    values = list(stored.values())
    lo, hi = min(values), max(values)
    margin = BAND * max(abs(lo), abs(hi))
    if not (lo - margin <= value <= hi + margin):
        return f"{what}: objective {value!r} outside stored band [{lo!r}, {hi!r}] +- {BAND:.0%}"
    return None


def check_solve(reference: dict, name: str, seed: int, result: ra.SolverResult,
                problem: ra.Problem) -> str | None:
    """None when a solve's output passes, else the reason it fails."""
    if not np.all(np.isfinite(result.w)):
        return "non-finite w"
    ref = reference.get(name)
    if ref is None:
        return None
    if len(result.trace) != ref["iters"]:
        return f"iters {len(result.trace)} != stored {ref['iters']}"
    return _objective_problem(problem.objective(result.w), ref["objective"], seed, name)


def check_sweep(reference: dict, seed: int, exit_code: int,
                summary: list[dict]) -> tuple[int, list[str]]:
    """(failed runs, reasons) for one plan invocation."""
    reasons = []
    failed = sum(int(row["failures"]) for row in summary)
    if failed:
        reasons.append(f"summary.csv reports {failed} failed runs")
    ref = reference.get("sweep", {}).get("objective_mean", {})
    for row in summary:
        cell = row["cell"]
        if cell in ref:
            problem = _objective_problem(float(row["objective_mean"]), ref[cell], seed, cell)
            if problem:
                reasons.append(problem)
                failed += int(row["runs"]) - int(row["failures"])
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
        failed = max(failed, 1)
    return failed, reasons


# -- z-step against the grid oracle ---------------------------------------------


def oracle_checks(seed: int) -> tuple[list[str], float]:
    """Small z-steps (n = 8) against grid_dp_chain.

    The constant-weight (extremile) and top-k (ranked-range) paths must
    match the oracle within ORACLE_TOL.  The value-dependent (CPT) merge is
    first-order only, so its gap is returned rather than judged.
    """
    rng = np.random.default_rng([seed, 8])
    problems = []
    cpt_gap = -math.inf
    cases = (
        ("constant", ra.resolve(ra.Extremile(order=2.0), 8)),
        ("top-k", ra.resolve(ra.AoRR(k=5, m=2), 8)),
        ("cpt", ra.resolve(ra.CPTValueDependent(B=0.0), 8)),
    )
    for label, resolved in cases:
        for kind in (ra.LossKind.LOGISTIC, ra.LossKind.HINGE):
            m = rng.standard_normal(8) * 2.0
            rho = float(rng.choice([0.1, 1.0, 10.0]))
            z = ra.solve_z_subproblem(m, resolved, rho, kind)
            _, ref = grid_dp_chain(m, resolved, rho, kind)
            gap = chain_objective_reference(z, m, resolved, rho, kind) - ref
            if label == "cpt":
                cpt_gap = max(cpt_gap, gap)
                continue
            order = np.argsort(m, kind="stable")
            if not np.all(np.diff(z[order]) >= 0.0):
                problems.append(f"oracle {label}/{kind.value}: output not isotonic")
            elif abs(gap) > ORACLE_TOL:
                problems.append(f"oracle {label}/{kind.value}: gap {gap:.3e} > {ORACLE_TOL}")
    return problems, cpt_gap
