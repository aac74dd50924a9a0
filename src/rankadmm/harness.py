"""Benchmark orchestration: JSON plans, repeated seeded runs, summaries.

A plan is a list of cells; each cell names a dataset, a weight scheme, a
loss, a regularizer, a solver, and how many seeded repetitions to run.
This module owns the plan format.  ``build`` turns each entry of a cell
(the scheme, once its kind is looked up in ``weights.SCHEMES``; the
regularizer; the synthetic data; the solver config) into its dataclass,
converting each value by its field's type, so the dataclasses hold the
only defaults and the error of a bad value names its key.
A cell is the one description of a solve.  It builds each entry once,
when it is made; a run derives its parts from what the cell built, with
the run's seed only where the cell sets none (the synthetic data's, the
split's, and sgd's shuffles): ``BenchmarkCell.problem_key`` and
``config_at``, then ``build_problem`` and ``solve``, here and for
``rankadmm train``, which maps its flags onto a cell.
A run reports from the SolverResult its solver returns: the objective in
the trace's last row, which is that of the result's ``w``.
Every run writes a trace CSV; the harness then writes a summary table
(mean and sample deviation of objective, accuracy, and time) plus
sub-optimality traces measured against the best final objective among
the runs whose problem key is the same.
``RANK_ADMM_THREADS`` runs go at once: the calling process takes runs
itself, beside one forked worker process fewer, so a width of 1 forks
nothing.  A worker writes its run's trace and hands back its record, and
the pool's manager thread hands it the next run.  The calling process
keeps plan order, logs every failure and writes the summaries; if a
worker dies, the runs it had taken fail and the caller runs the rest.
"""

from __future__ import annotations

import collections
import csv
import json
import logging
import os
import statistics
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data_io, weights as wgt
from .admm import (
    _DEFAULT_RHO0,
    ScheduleSpec,
    SolverConfig,
    SolverResult,
    admm_solve,
    sadmm_solve,
    write_trace_csv,
)
from .baselines import SgdConfig, sgd_solve
from .errors import InvalidParameterError, RankAdmmError, check_int, to_float
from .losses import LossKind
from .metrics import accuracy, predict
from .problem import Problem
from .regularizers import RegularizerSpec

logger = logging.getLogger(__name__)

THREADS_ENV = "RANK_ADMM_THREADS"

#: The columns of summary.csv, one row per (cell, solver).
SUMMARY_COLUMNS = (
    "cell",
    "solver",
    "runs",
    "failures",
    "objective_mean",
    "objective_std",
    "accuracy_mean",
    "accuracy_std",
    "time_s_mean",
    "time_s_std",
)


def _reject_unknown_keys(what: str, d: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise InvalidParameterError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))} ({'|'.join(allowed)})"
        )


#: The schedule spellings of a plan and of ``rankadmm train --schedule``:
#: the kinds of ``admm``'s table, a constant one with its rho.
SCHEDULES = "|".join(kind if rho0 else f"{kind}:<rho>" for kind, rho0 in _DEFAULT_RHO0.items())


def schedule_from_string(s: str) -> ScheduleSpec:
    kind, colon, rho = s.partition(":")
    if kind in _DEFAULT_RHO0 and bool(colon) == (_DEFAULT_RHO0[kind] is None):
        return ScheduleSpec(kind, float(rho) if colon else None)
    raise InvalidParameterError(f"unknown schedule {s!r} ({SCHEDULES})")


def to_int(value) -> int:
    """``int(value)`` for an integral value; InvalidParameterError for a
    bool, ValueError for 5.5."""
    as_int = int(value)
    if as_int != to_float(value):
        raise ValueError(f"{value!r} is not integral")
    return as_int


#: Field annotation -> converter of a plan value; a field with another
#: annotation takes the value as it is.
_CONVERT = {
    "int": to_int,
    "float": to_float,
    "tuple[float, ...]": lambda value: tuple(map(to_float, value)),
    "ScheduleSpec": schedule_from_string,
}


def _parse(convert, value, key: str):
    """``convert(value)``; a value it cannot take raises an
    InvalidParameterError that names ``key``."""
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError, OverflowError, InvalidParameterError) as exc:
        raise InvalidParameterError(f"{key}: {exc}") from exc


def build(cls, entry: dict, what: str, keys: dict[str, str] | None = None, **fixed):
    """``cls`` built from the plan entry ``what``, plus the ``fixed`` fields.

    ``keys`` maps each key the entry may hold to the field it sets; by
    default every field not in ``fixed`` is a key of its own name.  Each
    value is converted by its field's annotation through ``_CONVERT`` (an
    ``| None`` annotation lets None through), and a field left out takes
    its default.  An unknown key, a missing field without a default, or a
    value that fails to convert raises an InvalidParameterError naming its
    key; what ``cls`` itself rejects keeps its own message.
    """
    by_name = {f.name: f for f in fields(cls)}
    if keys is None:
        keys = {name: name for name in by_name if name not in fixed}
    _reject_unknown_keys(what, entry, tuple(keys))
    for key, name in keys.items():
        f = by_name[name]
        if key not in entry and f.default is MISSING and f.default_factory is MISSING:
            raise InvalidParameterError(f"{what}: missing key {key!r}")
    settings = dict(fixed)
    for key, value in entry.items():
        annotation = by_name[keys[key]].type
        convert = _CONVERT.get(annotation.removesuffix(" | None"))
        if convert is not None and not (value is None and annotation.endswith(" | None")):
            value = _parse(convert, value, f"{what} key {key!r}")
        settings[keys[key]] = value
    return cls(**settings)


def scheme_from_dict(d: dict) -> wgt.WeightScheme:
    """Build ``weights.SCHEMES[d["kind"]]`` (default "erm") from the other
    entries; an unknown kind raises InvalidParameterError."""
    params = dict(d)
    kind = params.pop("kind", "erm")
    cls = wgt.SCHEMES.get(kind)
    if cls is None:
        raise InvalidParameterError(f"unknown scheme kind {kind!r} ({'|'.join(wgt.SCHEMES)})")
    return build(cls, params, f"{kind} scheme")


#: The field each ``config`` key of admm sets; sadmm also takes ``gamma``,
#: the smoothing parameter, which the plain loop has no use for.
_ADMM_KEYS = {"schedule": "rho_schedule", "max_iter": "max_iter", "r": "r",
              "eps": "stop_eps", "wall_budget_s": "wall_budget_s"}
#: Per solver: the config class and the fields its ``config`` keys set
#: (None: every field but sgd's seed, the run's, under its own name).  A key
#: left out keeps the field's default, so the dataclasses hold the only defaults.
_SOLVER_CONFIGS = {
    "admm": (SolverConfig, _ADMM_KEYS),
    "sadmm": (SolverConfig, {**_ADMM_KEYS, "gamma": "gamma"}),
    "sgd": (SgdConfig, None),
}

_DATASET_KEYS = {"path": ("path", "format"), "synthetic": ("synthetic",)}
_FORMATS = ("csv", "libsvm")


@dataclass
class BenchmarkCell:
    """A plan cell as written; ``__post_init__`` builds each entry once and
    keeps what it built, from which every run of the cell is derived."""

    name: str
    dataset: dict
    scheme: dict = field(default_factory=lambda: {"kind": "erm"})
    loss: str = "logistic"
    regularizer: dict = field(default_factory=lambda: {"variant": "zero"})
    solver: str = "admm"
    config: dict = field(default_factory=dict)
    split: dict | None = None
    #: Runs seeds 0..repetitions-1 (one run when neither this nor
    #: ``seeds`` is set); ``seeds`` lists them instead.
    repetitions: int | None = None
    seeds: list[int] | None = None

    def __post_init__(self):
        if self.solver not in _SOLVER_CONFIGS:
            raise InvalidParameterError(f"unknown solver {self.solver!r}")
        # A bad cell fails here, before any run.  A data file is not opened:
        # one that cannot be read is a failed run.
        try:
            # The name starts every file name a run writes in the output directory.
            if any(sep in str(self.name) for sep in "/\\"):
                raise InvalidParameterError("key 'name' holds a path separator")
            self.run_seeds = self._build_seeds()
            #: (data, scheme, loss, regularizer, split): the data a SyntheticSpec
            #: or a (path, format) pair, the split None or (fractions, seed);
            #: a seed the cell leaves to the run is None here.
            self.problem_parts = (self._build_dataset(), scheme_from_dict(self.scheme),
                                  _parse(LossKind, self.loss, "key 'loss'"),
                                  build(RegularizerSpec, self.regularizer, "regularizer"),
                                  self._build_split())
            cls, keys = _SOLVER_CONFIGS[self.solver]
            fixed = {"seed": 0} if cls is SgdConfig else {}
            self.solver_config = build(cls, self.config, f"{self.solver} config", keys, **fixed)
        except (InvalidParameterError, AttributeError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"cell {self.name!r}: {exc}") from exc

    def _build_seeds(self) -> list[int]:
        if self.repetitions is not None and self.seeds is not None:
            raise InvalidParameterError("set key 'repetitions' or key 'seeds', not both")
        if self.seeds is None:
            reps = self.repetitions
            reps = 1 if reps is None else _parse(to_int, reps, "key 'repetitions'")
            return list(range(check_int("key 'repetitions'", reps, 1)))
        if isinstance(self.seeds, str):
            raise InvalidParameterError(f"seeds must be a list, got {self.seeds!r}")
        seeds = [check_int("key 'seeds' entry", _parse(to_int, s, "key 'seeds'"), 0)
                 for s in self.seeds]
        if not seeds or len(set(seeds)) < len(seeds):  # two runs would write one trace
            raise InvalidParameterError(f"key 'seeds' must list seeds, none twice, got {seeds}")
        return seeds

    def _build_dataset(self) -> data_io.SyntheticSpec | tuple[str, str]:
        every_key = tuple(k for keys in _DATASET_KEYS.values() for k in keys)
        _reject_unknown_keys("dataset", self.dataset, every_key)
        kinds = [k for k in _DATASET_KEYS if k in self.dataset]
        if len(kinds) != 1:
            raise InvalidParameterError("dataset needs exactly one of 'path' or 'synthetic'")
        _reject_unknown_keys("dataset", self.dataset, _DATASET_KEYS[kinds[0]])
        if kinds[0] == "synthetic":
            params = self.dataset["synthetic"]
            spec = build(data_io.SyntheticSpec, params, "synthetic")
            return spec if "seed" in params else replace(spec, seed=None)
        path, fmt = self.dataset["path"], self.dataset.get("format")
        if fmt is not None and fmt not in _FORMATS:
            raise InvalidParameterError(f"unknown dataset format {fmt!r} ({'|'.join(_FORMATS)})")
        return path, fmt or ("csv" if str(path).endswith(".csv") else "libsvm")

    def _build_split(self) -> tuple[tuple[float, ...], int | None] | None:
        if not self.split:
            return None
        _reject_unknown_keys("split", self.split, ("fractions", "seed"))
        fractions = _parse(data_io.split_fractions, self.split.get("fractions", (0.6, 0.4)),
                           "split key 'fractions'")
        if "seed" not in self.split:
            return fractions, None
        return fractions, check_int("split key 'seed'",
                                    _parse(to_int, self.split["seed"], "split key 'seed'"), 0)

    def problem_key(self, seed: int) -> tuple:
        """The problem that the run at ``seed`` solves, as built: ``problem_parts``
        with the run's seed where the cell sets none.  Runs with one key
        share an F* for sub-optimality, so spellings of one problem (a
        default written out, an unused strength, a seed written equal to
        the run's) share it."""
        data, scheme, loss, regularizer, split = self.problem_parts
        if isinstance(data, data_io.SyntheticSpec) and data.seed is None:
            data = replace(data, seed=seed)
        if split is not None and split[1] is None:
            split = (split[0], seed)
        return data, scheme, loss, regularizer, split

    def config_at(self, seed: int) -> SolverConfig | SgdConfig:
        """The solver config of the run at ``seed``, whose seed shuffles sgd."""
        if isinstance(self.solver_config, SgdConfig):
            return replace(self.solver_config, seed=seed)
        return self.solver_config


@dataclass
class BenchmarkPlan:
    cells: list[BenchmarkCell]
    out: str = "benchmark_out"

    def __post_init__(self):
        if not self.cells:
            raise InvalidParameterError("a plan needs at least one cell")
        # A run's trace file is named by its cell, solver and seed.
        runs = [(cell.name, cell.solver) for cell in self.cells]
        twice = sorted({run for run in runs if runs.count(run) > 1})
        if twice:
            raise InvalidParameterError(f"(cell, solver) {twice[0]} appears twice; "
                                        "its runs would write the same trace files")

    @staticmethod
    def from_json(path) -> "BenchmarkPlan":
        """Load a plan and build every cell; an invalid plan raises
        InvalidParameterError before anything runs."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidParameterError(f"plan is not valid JSON: {exc}") from exc
        try:
            cells = [BenchmarkCell(**c) for c in raw["cells"]]
            _reject_unknown_keys("plan", raw, ("cells", "out"))
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(f"invalid plan: {exc}") from exc
        out = raw.get("out", "benchmark_out")
        if not isinstance(out, str):
            raise InvalidParameterError(f"plan key 'out' must be a string, got {out!r}")
        return BenchmarkPlan(cells=cells, out=out)


@dataclass
class RunRecord:
    cell: str
    solver: str
    seed: int
    objective: float
    accuracy: float
    time_s: float
    error: str | None = None


def build_problem(cell: BenchmarkCell, seed: int) -> tuple[Problem, data_io.RawDataset | None]:
    """The problem of the run of ``cell`` at ``seed`` and its held-out
    split, if any."""
    data, scheme, loss, regularizer, split = cell.problem_key(seed)
    if isinstance(data, data_io.SyntheticSpec):
        ds = data_io.generate_synthetic(data)
    else:
        path, fmt = data
        ds = data_io.load_csv(path) if fmt == "csv" else data_io.load_libsvm(path)
    test = None
    if split is not None:
        ds, *held_out = data_io.standardize(*data_io.split(ds, *split))
        test = held_out[0] if held_out else None
    problem = Problem(X=ds.X, y=ds.y, loss=loss, weights=scheme, regularizer=regularizer)
    return problem, test


def solve(solver: str, problem: Problem, config: SolverConfig | SgdConfig) -> SolverResult:
    """Run the named solver.  Its entry point is looked up in this module
    when the run starts, so one that is wrapped or replaced here is the one
    that runs."""
    return {"admm": admm_solve, "sadmm": sadmm_solve, "sgd": sgd_solve}[solver](problem, config)


def _trace_path(cell: BenchmarkCell, seed: int, out_dir: Path) -> Path:
    return out_dir / f"{cell.name}_{cell.solver}_seed{seed}.csv"


def _failed_record(cell: BenchmarkCell, seed: int, error: str) -> RunRecord:
    nan = float("nan")
    return RunRecord(cell=cell.name, solver=cell.solver, seed=seed, objective=nan,
                     accuracy=nan, time_s=nan, error=error)


def run_cell(cell: BenchmarkCell, seed: int, out_dir: Path) -> RunRecord:
    """One seeded run of a cell.  A failure that the run's inputs explain (a
    RankAdmmError or OSError) becomes a failed record whose ``error`` names
    it; any other exception propagates to the caller."""
    try:
        problem, test = build_problem(cell, seed)
        result = solve(cell.solver, problem, cell.config_at(seed))
        write_trace_csv(result.trace, _trace_path(cell, seed, out_dir))
        held_out = test if test is not None else problem
        return RunRecord(
            cell=cell.name,
            solver=cell.solver,
            seed=seed,
            objective=float(result.trace.objective[-1]),
            accuracy=accuracy(predict(held_out.X, result.w), held_out.y),
            time_s=int(result.trace.wall_ns[-1]) / 1e9,
        )
    except (RankAdmmError, OSError) as exc:
        return _failed_record(cell, seed, str(exc))


def worker_count() -> int:
    """Width of ``run_benchmark``, the parent process included:
    RANK_ADMM_THREADS, a positive integer, or, when it is unset, the number
    of CPUs this process may run on (its affinity mask where the platform
    has one, not the host's CPU count).  It is 1 where the platform cannot
    fork, as the other runs would need forked workers."""
    value = os.environ.get(THREADS_ENV)
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
    elif value.strip().isdecimal() and int(value) >= 1:
        count = int(value)
    else:
        raise InvalidParameterError(f"{THREADS_ENV} must be a positive integer, got {value!r}")
    return count if hasattr(os, "fork") else 1


def _settle(run, cell: BenchmarkCell, seed: int) -> RunRecord:
    """The record that ``run()`` returns for one (cell, seed), or a failed
    record if it raises, in the run or by the death of the worker it ran
    on.  Every failure is logged here, in the parent process."""
    try:
        record = run()
    except Exception as exc:
        # not a failure the run's inputs explain: log the traceback too
        logger.exception("cell %s seed %d failed", cell.name, seed)
        return _failed_record(cell, seed, f"{type(exc).__name__}: {exc}")
    if record.error is not None:
        logger.error("cell %s seed %d failed: %s", cell.name, seed, record.error)
    return record


def _run_with_workers(forks: int, tasks, records, out_dir: Path) -> None:
    """Run every task in this process and in ``forks`` forked workers, all
    taking runs from one queue.  A worker's next run is handed out, as its
    last one ends, by a callback in the pool's manager thread; a run that a
    broken or shutting-down pool cannot take is handed back and run here."""
    queue = collections.deque(range(len(tasks)))  # indices of the runs not yet taken

    def run_here() -> None:
        while True:
            try:
                i = queue.popleft()
            except IndexError:
                return
            cell, seed = tasks[i]
            records[i] = _settle(lambda: run_cell(cell, seed, out_dir), cell, seed)

    if forks >= 1:
        # Here, not at module import, which the CLI pays for on every command.
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        def submit(pool) -> None:
            try:
                i = queue.popleft()
            except IndexError:
                return
            try:
                future = pool.submit(run_cell, *tasks[i], out_dir)
            except RuntimeError:  # BrokenProcessPool, or a pool shutting down
                queue.appendleft(i)  # left for this process
                return

            def done(future) -> None:
                records[i] = _settle(future.result, *tasks[i])
                # A broken pool takes no run, and from Python 3.12 it calls this
                # holding the lock that submit takes: submitting would deadlock.
                if not isinstance(future.exception(), BrokenProcessPool):
                    submit(pool)

            future.add_done_callback(done)

        # fork, not spawn: a worker inherits the imported package, and with it
        # any entry point swapped in this module, instead of importing the
        # package and numpy again, which takes longer than a small plan's runs.
        with ProcessPoolExecutor(forks, mp_context=multiprocessing.get_context("fork")) as pool:
            for _ in range(forks):
                submit(pool)  # the first submit forks every worker
            try:
                run_here()
            except BaseException:
                queue.clear()  # on an interrupt, hand out nothing more
                raise
    run_here()  # every run with no fork, else the runs handed back


def run_benchmark(plan: BenchmarkPlan, out_dir=None) -> dict:
    """Execute every (cell, seed) pair, ``min(worker_count(), runs)`` at a
    time: this process takes runs in turn with one forked worker fewer than
    that.

    Returns {"records": [...], "summary": [...]}, the records in plan order,
    and writes summary.csv plus per-run sub-optimality CSVs under the output
    directory.  If a worker dies, the pool breaks: the runs it had taken
    fail with BrokenProcessPool, and this process runs the rest.
    """
    workers = worker_count()
    out = Path(out_dir if out_dir is not None else plan.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cell, seed) for cell in plan.cells for seed in cell.run_seeds]
    records: list[RunRecord | None] = [None] * len(tasks)
    _run_with_workers(min(workers, len(tasks)) - 1, tasks, records, out)

    summary = summarize(plan, records)
    _write_summary_csv(out / "summary.csv", summary)
    _write_suboptimality(tasks, records, out)
    return {"records": records, "summary": summary}


def summarize(plan: BenchmarkPlan, records: list[RunRecord]) -> list[dict]:
    """Per (cell, solver), a row keyed by SUMMARY_COLUMNS: the run and
    failure counts, and the mean and sample standard deviation (n-1) of
    the successful runs' objective, accuracy and time."""

    def stats(vals):
        if not vals:
            return float("nan"), float("nan")
        if len(vals) == 1:
            return vals[0], 0.0
        return statistics.fmean(vals), statistics.stdev(vals)

    summary = []
    for cell in plan.cells:
        rows = [r for r in records if r.cell == cell.name and r.solver == cell.solver]
        ok = [r for r in rows if r.error is None]
        values = (cell.name, cell.solver, len(rows), len(rows) - len(ok),
                  *stats([r.objective for r in ok]), *stats([r.accuracy for r in ok]),
                  *stats([r.time_s for r in ok]))
        summary.append(dict(zip(SUMMARY_COLUMNS, values, strict=True)))
    return summary


def _write_summary_csv(path: Path, summary: list[dict]) -> None:
    """One row per (cell, solver), floats by repr; a field holding a comma,
    quote or line break is quoted, as the csv module reads it back."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in summary:
            writer.writerow(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                            for c in SUMMARY_COLUMNS)


def _write_suboptimality(tasks: list[tuple], records: list[RunRecord], out: Path) -> None:
    """F^k - F* per (cell, seed) task and its record, F* being the best
    final objective over all runs of the same problem (``problem_key``)."""
    from .admm import read_trace_csv

    best: dict[tuple, float] = {}
    keys = [cell.problem_key(seed) for cell, seed in tasks]
    for rec, key in zip(records, keys):
        if rec.error is not None or not np.isfinite(rec.objective):
            continue
        best[key] = min(best.get(key, np.inf), rec.objective)
    for (cell, seed), rec, key in zip(tasks, records, keys):
        if rec.error is not None or key not in best:
            continue
        fstar = best[key]
        path = _trace_path(cell, seed, out)
        trace = read_trace_csv(path)
        with open(path.with_name(path.stem + "_subopt.csv"), "w") as fh:
            fh.write("k,wall_ns,suboptimality\n")
            # tolist() gives Python ints and floats, whose repr is plain
            for k, wall_ns, objective in trace[["k", "wall_ns", "objective"]].tolist():
                fh.write(f"{k},{wall_ns},{max(objective - fstar, 0.0)!r}\n")
