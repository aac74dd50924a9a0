"""Rank-weighted loss minimization for linear classifiers.

Alternating-direction solver whose chain-constrained step runs on block
merging, with spectral / ranked-range / prospect-theory weight schemes,
weakly convex penalties, a smoothed variant, a subgradient baseline, and
a benchmark harness.
"""

from .admm import (
    TRACE_COLUMNS,
    TRACE_DTYPE,
    ScheduleSpec,
    SolverConfig,
    SolverResult,
    admm_solve,
    lyapunov_check,
    sadmm_solve,
    sigma_min_positive,
    theory_mode_config,
    write_trace_csv,
)
from .baselines import SgdConfig, rank_subgradient, sgd_solve
from .data_io import RawDataset, SyntheticSpec, generate_synthetic, load_csv, load_libsvm, split, standardize
from .errors import (
    DataFormatError,
    DimensionError,
    InvalidParameterError,
    RankAdmmError,
    SolverError,
)
from .losses import LossKind
from .metrics import accuracy, predict
from .pava import solve_z_subproblem
from .problem import Problem
from .regularizers import RegularizerSpec, l1, l2, mcp, moreau_value_and_grad, prox, scad
from .weights import (
    AoRR,
    CPTValueDependent,
    ERM,
    ESRM,
    Explicit,
    Extremile,
    HumanAligned,
    ResolvedWeights,
    Superquantile,
    cpt_omega,
    resolve,
)

__version__ = "0.1.0"
