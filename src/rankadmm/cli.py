"""Command-line front end.

Subcommands: ``train`` (one solve), ``benchmark`` (run a JSON plan),
``weights`` (print a resolved weight vector), ``oracle`` (cross-check the
block-merge solver against the grid reference on a random instance).
Exit codes: 0 success, 1 solver or data failure, 2 usage errors.

``train`` maps its flags onto one benchmark plan cell and runs it through
the harness, so a setting is built, defaulted and checked as a plan key
is, and a bad value's error names that key; here stay the flags, the
``--framework`` presets, the bundled data, the theory-mode preset and the
report.  The scheme flags of every subcommand map onto a plan ``scheme``
entry, built by ``harness.scheme_from_dict``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import sys
from pathlib import Path

import numpy as np

from . import weights as wgt
from .admm import theory_mode_config, write_trace_csv
from .errors import InvalidParameterError, RankAdmmError
from .harness import (
    SCHEDULES,
    BenchmarkCell,
    BenchmarkPlan,
    build_problem,
    run_benchmark,
    scheme_from_dict,
    solve,
    worker_count,
)
from .losses import LossKind
from .metrics import accuracy, predict
from .oracle import chain_objective_reference, grid_dp_chain
from .pava import solve_z_subproblem
from .regularizers import VARIANTS
from .weights import resolve

_LOSSES = [kind.value for kind in LossKind]


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    # Each flag's dest is the scheme parameter it sets; a flag left unset
    # takes the class default.  Explicit weights have no flag.
    kinds = [k for k in wgt.SCHEMES if k != "explicit"]
    p.add_argument("--scheme", default=None, choices=[*kinds, "human-aligned"])
    p.add_argument("--q", type=float, default=None, help="superquantile level in [0,1)")
    p.add_argument("--order", type=float, default=None, help="extremile order >= 1")
    p.add_argument("--risk", type=float, default=None, help="esrm risk > 0")
    p.add_argument("--ha-a", type=float, default=None, dest="a", help="human-aligned a in (0,1)")
    p.add_argument("--ha-b", type=float, default=None, dest="b", help="human-aligned b")
    p.add_argument("--k", type=int, default=None, help="ranked-range upper index")
    p.add_argument("--m", type=int, default=None, help="ranked-range lower index")
    p.add_argument("--cpt-gamma", type=float, default=None, dest="gamma")
    p.add_argument("--cpt-delta", type=float, default=None, dest="delta")
    p.add_argument("--cpt-b", type=float, default=None, dest="B")


def _scheme_params(args) -> dict:
    """The plan ``scheme`` entry of the scheme flags."""
    preset = _FRAMEWORK_DEFAULTS.get(getattr(args, "framework", None), {})
    name = args.scheme or preset.get("scheme") or ("erm" if args.q is None else "superquantile")
    kind = name.replace("-", "_")
    params = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(wgt.SCHEMES[kind])
        if getattr(args, f.name) is not None
    }
    return {"kind": kind, **params}


def _or_usage_error(parser: argparse.ArgumentParser, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an InvalidParameterError becoming a usage
    error (exit 2)."""
    try:
        return build(*args, **kwargs)
    except InvalidParameterError as exc:
        parser.error(str(exc))


#: Per --framework, the plan keys it fills where the flags leave them unset,
#: and the scheme kind (srm's is superquantile with --q, else erm).
_FRAMEWORK_DEFAULTS = {
    "srm": {"schedule": "srm", "reg": "l2", "mu": 1e-2},
    "aorr": {"schedule": "aorr", "reg": "l2", "mu": 1e-4, "scheme": "aorr"},
    "ehrm": {"schedule": "ehrm", "reg": "l2", "mu": 1e-2, "scheme": "cpt"},
}

#: --synthetic spelling -> SyntheticSpec field, for the names that differ.
_SYNTHETIC_ALIASES = {"sep": "class_sep", "flip": "flip_fraction",
                      "informative": "informative_fraction"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankadmm")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one solve and report objective/accuracy")
    train.add_argument("--data", default=None, help="csv or libsvm file (bundled demo when omitted)")
    train.add_argument("--synthetic", default=None,
                       help="n=...,d=...[,sep=...][,flip=...] generates data instead of --data")
    train.add_argument("--framework", choices=tuple(_FRAMEWORK_DEFAULTS), default=None)
    train.add_argument("--loss", choices=_LOSSES, default="logistic")
    train.add_argument("--reg", choices=VARIANTS, default=None)
    train.add_argument("--mu", type=float, default=None)
    train.add_argument("--theta", type=float, default=4.0)
    _add_scheme_flags(train)
    train.add_argument("--schedule", default=None, help=SCHEDULES)
    # Solver flags left unset keep the SolverConfig field defaults.
    train.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    train.add_argument("--eps", type=float, default=None)
    train.add_argument("--r", type=float, default=None)
    train.add_argument("--smooth", action="store_true", help="use the smoothed variant")
    train.add_argument("--theory-mode", action="store_true", dest="theory_mode")
    train.add_argument("--theory-eps", type=float, default=1e-2, dest="theory_eps")
    train.add_argument("--out", default=None, help="directory for the trace csv")
    train.add_argument("--no-timing", action="store_true", dest="no_timing",
                       help="zero the wall_ns trace column for reproducible files")

    bench = sub.add_parser("benchmark", help="run a JSON plan file")
    bench.add_argument("plan", help="path to the plan JSON")
    bench.add_argument("--out", default=None)

    weights_p = sub.add_parser("weights", help="print a resolved weight vector as CSV")
    weights_p.add_argument("--n", type=int, required=True)
    _add_scheme_flags(weights_p)

    oracle_p = sub.add_parser("oracle", help="grid reference vs block solver on random data")
    oracle_p.add_argument("--n", type=int, default=6)
    oracle_p.add_argument("--rho", type=float, default=1.0)
    oracle_p.add_argument("--loss", choices=_LOSSES, default="logistic")
    oracle_p.add_argument("--seed", type=int, default=0)
    oracle_p.add_argument("--step", type=float, default=1e-4)
    _add_scheme_flags(oracle_p)
    return parser


def _parse_synthetic(text: str) -> dict:
    """The ``key=value`` items of ``--synthetic`` under their field names;
    the values stay strings for the cell to convert and check."""
    items = (item.partition("=") for item in text.split(","))
    return {_SYNTHETIC_ALIASES.get(key.strip(), key.strip()): value for key, _, value in items}


def _train_cell(args, bundled: Path) -> dict:
    """The plan cell that ``train`` runs, each flag under its plan key."""
    flags = {"reg": "zero", "mu": 1e-2, **_FRAMEWORK_DEFAULTS.get(args.framework, {}),
             **{flag: value for flag, value in vars(args).items() if value is not None}}
    if args.synthetic:
        dataset = {"synthetic": _parse_synthetic(args.synthetic)}
    else:
        dataset = {"path": str(args.data or bundled)}
    return {
        "name": "train",
        "dataset": dataset,
        "scheme": _scheme_params(args),
        "loss": args.loss,
        "regularizer": {"variant": flags["reg"], "mu": flags["mu"], "theta": args.theta},
        "solver": "sadmm" if args.smooth or args.theory_mode else "admm",
        "config": {key: flags[key] for key in ("max_iter", "eps", "r", "schedule") if key in flags},
    }


def _cmd_train(args, parser) -> int:
    bundled = importlib.resources.files("rankadmm").joinpath("assets/tiny.csv")
    with importlib.resources.as_file(bundled) as tiny:
        cell = _or_usage_error(parser, BenchmarkCell, **_train_cell(args, tiny))
        problem, _ = _or_usage_error(parser, build_problem, cell, 0)
    config = cell.config_at(0)
    if args.theory_mode:
        # The preset sets the schedule, r and gamma; the flags set the rest.
        config = _or_usage_error(parser, theory_mode_config, problem, eps=args.theory_eps,
                                 max_iter=config.max_iter, stop_eps=config.stop_eps)
    result = solve(cell.solver, problem, config)
    acc = accuracy(predict(problem.X, result.w), problem.y)
    print(f"objective: {result.trace.objective[-1]:.6f}")
    print(f"train_accuracy: {acc:.4f}")
    print(f"iterations: {len(result.trace)}  converged: {result.converged}  "
          f"stop: {result.stop_reason}")
    out_dir = Path(args.out) if args.out else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"
    write_trace_csv(result.trace, trace_path, include_wall=not args.no_timing)
    print(f"trace: {trace_path}")
    return 0


def _cmd_benchmark(args, parser) -> int:
    try:
        plan = BenchmarkPlan.from_json(args.plan)
        worker_count()
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = run_benchmark(plan, out_dir=args.out)
    failures = sum(r["failures"] for r in out["summary"])
    for row in out["summary"]:
        print(
            f"{row['cell']} [{row['solver']}] objective "
            f"{row['objective_mean']:.6f} ({row['objective_std']:.6f}) "
            f"accuracy {row['accuracy_mean']:.4f}"
        )
    return 1 if failures else 0


def _cmd_weights(args, parser) -> int:
    scheme = _or_usage_error(parser, scheme_from_dict, _scheme_params(args))
    resolved = _or_usage_error(parser, resolve, scheme, args.n)
    if resolved.is_value_dependent:
        low = ",".join(format(v, ".12g") for v in resolved.sigma_low)
        high = ",".join(format(v, ".12g") for v in resolved.sigma_high)
        print(f"low:{low}")
        print(f"high:{high}")
    else:
        print(",".join(format(v, ".12g") for v in resolved.sigma))
    return 0


def _cmd_oracle(args, parser) -> int:
    scheme = _or_usage_error(parser, scheme_from_dict, _scheme_params(args))
    resolved = _or_usage_error(parser, resolve, scheme, args.n)
    rng = np.random.default_rng(args.seed)
    m = rng.standard_normal(args.n)
    kind = LossKind(args.loss)
    # Before the z-step: the grid's checks make a bad --step or --rho a usage error.
    _, obj_ref = _or_usage_error(parser, grid_dp_chain, m, resolved, args.rho, kind,
                                 step=args.step)
    z = solve_z_subproblem(m, resolved, args.rho, kind)
    obj = chain_objective_reference(z, m, resolved, args.rho, kind)
    print(f"block_solver_objective: {obj:.10f}")
    print(f"grid_reference_objective: {obj_ref:.10f}")
    print(f"gap: {obj - obj_ref:.3e}")
    return 0


_COMMANDS = {"train": _cmd_train, "benchmark": _cmd_benchmark,
             "weights": _cmd_weights, "oracle": _cmd_oracle}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:  # a usage error, from parsing or a command's parser.error
        return int(exc.code or 0)
    except (RankAdmmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
