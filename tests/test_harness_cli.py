import csv
import json
import math
import multiprocessing
import os
import pickle
import sys

import numpy as np
import pytest

from rankadmm.admm import TRACE_COLUMNS, SolverConfig, read_trace_csv, trace_array
from rankadmm.baselines import SgdConfig
from rankadmm.cli import cli_main
from rankadmm.harness import (
    BenchmarkCell,
    BenchmarkPlan,
    run_benchmark,
    schedule_from_string,
    scheme_from_dict,
    summarize,
)
from rankadmm.errors import InvalidParameterError
from rankadmm.regularizers import ZERO, RegularizerSpec
from rankadmm.weights import ERM, CPTValueDependent, resolve


_ONE_ROW = trace_array([(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, math.nan, 0)])


def make_plan(tmp_path, solver="admm", reps=2):
    cell = {
        "name": "erm-l2",
        "dataset": {"synthetic": {"n": 40, "d": 5, "seed": 1}},
        "scheme": {"kind": "erm"},
        "loss": "logistic",
        "regularizer": {"variant": "l2", "mu": 0.01},
        "solver": solver,
        "config": ({"epochs": 5, "learning_rate": 0.001} if solver == "sgd"
                   else {"max_iter": 20, "schedule": "constant:1.0"}),
        "repetitions": reps,
    }
    plan = {"cells": [cell], "out": str(tmp_path / "out")}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def test_schedule_parsing():
    assert schedule_from_string("constant:2.5").rho0 == pytest.approx(2.5)
    assert schedule_from_string("srm").kind == "srm"
    with pytest.raises(InvalidParameterError):
        schedule_from_string("warp")


def test_scheme_parsing():
    assert scheme_from_dict({"kind": "superquantile", "q": 0.8}).q == 0.8
    assert scheme_from_dict({"kind": "aorr", "k": 5, "m": 2}).k == 5
    assert scheme_from_dict({"kind": "cpt"}) == CPTValueDependent()
    assert scheme_from_dict({}) == ERM()
    for bad, named in [({"kind": "mystery"}, "mystery"),
                       ({"kind": "superquantile", "q": 0.9, "qq": 1}, "'qq'"),
                       ({"kind": "aorr", "k": 5}, "'m'"),
                       ({"kind": "aorr", "k": 5.5, "m": 2}, "'k'")]:
        with pytest.raises(InvalidParameterError, match=named):
            scheme_from_dict(bad)


def test_summary_stdev_hand_triple(tmp_path):
    from rankadmm.harness import RunRecord

    plan = BenchmarkPlan(cells=[BenchmarkCell(
        name="c", dataset={"synthetic": {"n": 4, "d": 2}}, solver="admm",
        repetitions=3)])
    records = [
        RunRecord("c", "admm", s, obj, 0.5, 1.0, "x") for s, obj in
        [(0, 1.0), (1, 2.0), (2, 4.0)]
    ]
    summary = summarize(plan, records)
    mean = (1.0 + 2.0 + 4.0) / 3.0
    stdev = math.sqrt(((1 - mean) ** 2 + (2 - mean) ** 2 + (4 - mean) ** 2) / 2.0)
    assert summary[0]["objective_mean"] == pytest.approx(mean)
    assert summary[0]["objective_std"] == pytest.approx(stdev)


def test_run_benchmark_outputs(tmp_path):
    plan = BenchmarkPlan.from_json(make_plan(tmp_path))
    out = run_benchmark(plan)
    assert len(out["records"]) == 2
    assert all(r.error is None for r in out["records"])
    out_dir = tmp_path / "out"
    assert (out_dir / "summary.csv").exists()
    traces = sorted(p for p in out_dir.glob("erm-l2_admm_seed*.csv")
                    if not p.name.endswith("_subopt.csv"))
    assert len(traces) == 2
    rows = read_trace_csv(traces[0])
    assert len(rows) <= 20
    # sub-optimality files exist and are nonnegative by construction
    sub = sorted(out_dir.glob("*_subopt.csv"))
    assert len(sub) == 2
    for path in sub:
        body = path.read_text().strip().splitlines()[1:]
        assert all(float(line.split(",")[2]) >= 0.0 for line in body)


def test_trace_schema_columns(tmp_path):
    plan = BenchmarkPlan.from_json(make_plan(tmp_path, reps=1))
    run_benchmark(plan)
    trace = next((tmp_path / "out").glob("erm-l2_admm_seed0.csv"))
    header = trace.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


def test_cli_weights_superquantile(capsys):
    code = cli_main(["weights", "--scheme", "superquantile", "--q", "0.8", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0,0,0,0,1"


def test_cli_weights_validation():
    assert cli_main(["weights", "--scheme", "superquantile", "--q", "1.5", "--n", "5"]) == 2
    assert cli_main(["weights", "--scheme", "aorr", "--n", "5"]) == 2
    # the negative weight only shows once the scheme is resolved at n
    assert cli_main(["weights", "--scheme", "human-aligned", "--ha-b", "-0.5",
                     "--n", "10"]) == 2
    # a non-finite parameter is refused by its scheme, before any weight is
    # printed as nan
    assert cli_main(["weights", "--n", "4", "--scheme", "human-aligned", "--ha-b", "nan"]) == 2
    assert cli_main(["weights", "--n", "4", "--scheme", "esrm", "--risk", "inf"]) == 2
    assert cli_main(["oracle", "--n", "5", "--scheme", "cpt", "--cpt-b", "inf"]) == 2


def test_cli_train_bad_scheme_value_exits_2(tmp_path, capsys):
    assert cli_main(["train", "--synthetic", "n=20,d=3,seed=1", "--scheme", "human-aligned",
                     "--ha-b", "-0.5", "--out", str(tmp_path)]) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()
    assert cli_main(["train", "--synthetic", "n=40,d=5", "--scheme", "cpt", "--cpt-b", "nan",
                     "--max-iter", "3", "--out", str(tmp_path)]) == 2
    assert "reference point B must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_train_negative_cpt_weights_exits_2(tmp_path, capsys):
    # At gamma = 0.1 the optimistic branch has negative weights at n = 12.
    assert cli_main(["train", "--scheme", "cpt", "--cpt-gamma", "0.1",
                     "--out", str(tmp_path)]) == 2
    assert "CPTValueDependent weights must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_unknown_flag_exits_2():
    assert cli_main(["train", "--nonsense"]) == 2
    assert cli_main(["definitely-not-a-command"]) == 2


def test_cli_train_bundled_csv(tmp_path, capsys):
    code = cli_main(["train", "--out", str(tmp_path), "--max-iter", "50",
                     "--schedule", "constant:1.0", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "objective:" in out
    rows = read_trace_csv(tmp_path / "trace.csv")
    assert 0 < len(rows) <= 300
    assert all(r.wall_ns == 0 for r in rows)


def test_cli_train_prints_stop_reason(tmp_path, capsys):
    code = cli_main(["train", "--out", str(tmp_path), "--max-iter", "4", "--eps", "0",
                     "--schedule", "constant:1.0"])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("iterations:")]
    assert lines == ["iterations: 4  converged: False  stop: max_iter"]


def test_cli_train_q_validation(tmp_path):
    assert cli_main(["train", "--q", "1.5", "--out", str(tmp_path)]) == 2


def test_cli_train_synthetic_aorr(tmp_path, capsys):
    code = cli_main([
        "train", "--synthetic", "n=30,d=4,seed=3", "--framework", "aorr",
        "--k", "10", "--m", "2", "--loss", "hinge", "--max-iter", "25",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert "objective:" in capsys.readouterr().out


def test_cli_train_smooth_l1(tmp_path, capsys):
    code = cli_main([
        "train", "--synthetic", "n=25,d=3,seed=4", "--reg", "l1", "--mu", "0.01",
        "--smooth", "--schedule", "constant:1.0", "--max-iter", "20",
        "--out", str(tmp_path),
    ])
    assert code == 0


def test_cli_benchmark(tmp_path, capsys):
    path = make_plan(tmp_path, reps=1)
    assert cli_main(["benchmark", str(path)]) == 0
    assert "erm-l2" in capsys.readouterr().out


#: (change to a good cell, what its one-line error must contain)
_INVALID_CELLS = [
    ({"regulariser": {"variant": "l2", "mu": 0.01}}, "'regulariser'"),
    ({"loss": "squared"}, "'loss'"),
    ({"scheme": {"kind": "superquantile"}}, "'q'"),
    ({"scheme": {"kind": "superquantile", "q": 0.9, "qq": 1}}, "'qq'"),
    ({"scheme": {"kind": "aorr", "k": 5.5, "m": 2}}, "'k'"),
    ({"config": {"max_iters": 5}}, "'max_iters'"),
    ({"regularizer": {"variant": "l2", "mu": 0.01, "thetta": 3.0}}, "'thetta'"),
    ({"solver": "sgd", "config": {"epochs": 5, "batch": 5.5}}, "'batch'"),
    ({"solver": "sadmm", "config": {"max_iter": 20, "gamma": 0}}, "'gamma'"),
    ({"seeds": ["x"]}, "'seeds'"),
    ({"seeds": [0, 1.5]}, "'seeds'"),
    ({"repetitions": 1.5}, "'repetitions'"),
    ({"dataset": {"synthetic": {"n": 0, "d": 3}}}, "n >= 1"),
    ({"dataset": {"synthetic": {"n": 40, "d": 5, "sep": 2.0}}}, "'sep'"),
    ({"dataset": {"synthetc": {"n": 40, "d": 5}}}, "'synthetc'"),
    ({"dataset": {"synthetic": {"n": 40, "d": 5}, "path": "data.csv"}}, "'path'"),
    ({"dataset": {"path": "data.csv", "format": "arff"}}, "format 'arff'"),
    ({"split": {"fractions": [0.5, 0.2]}}, "'fractions'"),
    ({"split": {"fractions": [1.2, -0.2]}}, "'fractions'"),
    ({"split": {"fractions": [0.6, 0.4], "sed": 3}}, "'sed'"),
    ({"regularizer": {"variant": "l2", "mu": "abc"}}, "'mu'"),
    ({"config": {"max_iter": "x"}}, "'max_iter'"),
    ({"config": {"schedule": "constant:abc"}}, "'schedule'"),
    ({"config": {"schedule": "constant:-1"}}, "'schedule'"),
    ({"solver": "sgd", "config": {"batch": "x"}}, "'batch'"),
    ({"dataset": {"synthetic": {"n": "abc", "d": 3}}}, "'n'"),
    ({"dataset": {"synthetic": {"n": 40}}}, "'d'"),
    ({"split": {"fractions": ["a", 1]}}, "'fractions'"),
    ({"split": {"seed": "x"}}, "'seed'"),
    ({"config": {"schedule": 5}}, "'schedule'"),
    ({"dataset": {"synthetic": {"n": 40, "d": 5}, "synthetc": {}}}, "'synthetc'"),
    ({"dataset": {}}, "'synthetic'"),
    ({"scheme": {"kind": "explicit", "sigma": ["a"]}}, "'sigma'"),
    ({"scheme": {"kind": "explicit", "sigma": 5}}, "'sigma'"),
    # json reads NaN: the plan is refused before any run
    ({"scheme": {"kind": "explicit", "sigma": [0.25, 0.25, 0.25, np.nan]}}, "finite"),
    # the plain loop has no smoothing parameter to set
    ({"config": {"max_iter": 20, "gamma": 0.1}}, "'gamma'"),
    ({"solver": "sgd", "config": {"learning_rate": np.nan}}, "learning rate"),
    ({"config": {"eps": np.nan}}, "stop_eps"),
    ({"solver": "sgd", "config": {"wall_budget_s": -1}}, "wall_budget_s"),
    # json reads Infinity: the run would fail at iteration 0
    ({"config": {"r": np.inf}}, "r must be positive and finite"),
    ({"config": {"schedule": "constant:inf"}}, "'schedule'"),
    # make_plan's cell sets repetitions: a cell runs one list of seeds
    ({"seeds": [0]}, "'repetitions'"),
    # json's true and false are no numbers of a plan
    ({"config": {"max_iter": True}}, "'max_iter'"),
    ({"repetitions": None, "seeds": [True, False]}, "'seeds'"),
    ({"repetitions": True}, "'repetitions'"),
    ({"dataset": {"synthetic": {"n": True, "d": 5}}}, "'n'"),
    ({"config": {"r": True}}, "'r'"),
    ({"split": {"fractions": [True, False]}}, "'fractions'"),
    # no run, or two runs writing one trace file
    ({"repetitions": None, "seeds": []}, "'seeds'"),
    ({"repetitions": None, "seeds": [1, 1]}, "'seeds'"),
    # non-finite scheme, regularizer and data parameters
    ({"scheme": {"kind": "cpt", "B": np.nan}}, "B must be finite"),
    ({"scheme": {"kind": "cpt", "B": np.inf}}, "B must be finite"),
    ({"scheme": {"kind": "esrm", "risk": np.inf}}, "risk must be finite"),
    ({"scheme": {"kind": "human_aligned", "b": np.nan}}, "b must be finite"),
    ({"regularizer": {"variant": "l2", "mu": np.inf}}, "finite mu"),
    ({"dataset": {"synthetic": {"n": 40, "d": 5, "class_sep": np.nan}}}, "class_sep"),
    ({"dataset": {"synthetic": {"n": 40, "d": 5, "class_sep": np.inf}}}, "class_sep"),
]


#: (top-level plan keys set beside, or over, a valid "cells"; text the
#: error names)
_INVALID_PLAN_KEYS = [
    ({"outt": "x"}, "'outt'"),
    ({"out": 5}, "'out'"),
    ({"cells": []}, "at least one cell"),
]


@pytest.mark.parametrize("change, top, named", [
    pytest.param(change, {}, named, id=f"change{i}")
    for i, (change, named) in enumerate(_INVALID_CELLS)
] + [
    pytest.param({}, top, named, id=f"plan{i}")
    for i, (top, named) in enumerate(_INVALID_PLAN_KEYS)
])
def test_cli_benchmark_invalid_plan_exits_2(tmp_path, capsys, change, top, named):
    good = json.loads(make_plan(tmp_path, reps=1).read_text())
    bad = dict(good["cells"][0], name="bad", **change)
    path = tmp_path / "bad_plan.json"
    path.write_text(json.dumps({"cells": [good["cells"][0], bad], "out": good["out"], **top}))
    with pytest.raises(InvalidParameterError):
        BenchmarkPlan.from_json(path)
    assert cli_main(["benchmark", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert named in err
    assert not (tmp_path / "out").exists()


def test_cli_benchmark_duplicate_cell_exits_2(tmp_path, capsys):
    # Both cells' runs would write c_admm_seed0.csv.
    cell = dict(json.loads(make_plan(tmp_path, reps=1).read_text())["cells"][0], name="c")
    path = tmp_path / "dup_plan.json"
    path.write_text(json.dumps({"cells": [cell, cell], "out": str(tmp_path / "out")}))
    with pytest.raises(InvalidParameterError, match="'c'"):
        BenchmarkPlan.from_json(path)
    assert cli_main(["benchmark", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()
    # the same name with another solver writes other files
    other = dict(cell, solver="sgd", config={"epochs": 3})
    path.write_text(json.dumps({"cells": [cell, other], "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0


def test_suboptimality_per_cell_and_solver(tmp_path):
    # Two cells share a name but not a problem: each run is its problem's
    # only run, so each F* is that run's own final objective.
    cells = [{"name": "c", "dataset": {"synthetic": {"n": 30, "d": 4, "seed": seed}},
              "solver": solver, "config": config}
             for seed, solver, config in [(1, "admm", {"max_iter": 10}),
                                          (2, "sgd", {"epochs": 5})]]
    path = tmp_path / "shared_name_plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    run_benchmark(BenchmarkPlan.from_json(path))
    for solver in ("admm", "sgd"):
        last = (tmp_path / "out" / f"c_{solver}_seed0_subopt.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[2]) == 0.0


def test_suboptimality_per_data_seed(tmp_path):
    # The cell leaves its synthetic data to the run seed: each seed solves
    # its own problem, so each run is measured against its own F*.
    cell = {"name": "c", "dataset": {"synthetic": {"n": 60, "d": 5}},
            "regularizer": {"variant": "l2", "mu": 0.01},
            "config": {"schedule": "constant:0.05", "max_iter": 300}, "seeds": [0, 1]}
    path = tmp_path / "seeded_plan.json"
    path.write_text(json.dumps({"cells": [cell], "out": str(tmp_path / "out")}))
    records = run_benchmark(BenchmarkPlan.from_json(path))["records"]
    assert records[0].objective != records[1].objective
    for seed in (0, 1):
        last = (tmp_path / "out" / f"c_admm_seed{seed}_subopt.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[2]) == 0.0


def test_suboptimality_shares_f_star_across_seed_spellings(tmp_path):
    # One cell writes the data seed, the other leaves it to the run, whose
    # seed is the same: one problem, so one F*, the better run's objective.
    cells = [{"name": "c", "dataset": {"synthetic": {"n": 60, "d": 5, "seed": 0}},
              "solver": "admm", "config": {"max_iter": 50}},
             {"name": "c", "dataset": {"synthetic": {"n": 60, "d": 5}},
              "solver": "sgd", "config": {"epochs": 5}}]
    path = tmp_path / "spelled_plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    admm, sgd = run_benchmark(BenchmarkPlan.from_json(path))["records"]
    last = (tmp_path / "out" / "c_sgd_seed0_subopt.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[2]) == sgd.objective - admm.objective > 0.0


def test_csv_with_a_short_row_is_one_data_error(tmp_path, capsys):
    data = tmp_path / "ragged.csv"
    data.write_text("y,a,b\n1,0.5,0.2\n0,0.1\n")
    assert cli_main(["train", "--data", str(data), "--out", str(tmp_path / "train")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 3")
    # in a plan it fails its run alone, as a data error without a traceback
    cell = {"name": "ragged", "dataset": {"path": str(data)}}
    path = tmp_path / "ragged_plan.json"
    path.write_text(json.dumps({"cells": [cell], "out": str(tmp_path / "out")}))
    records = run_benchmark(BenchmarkPlan.from_json(path))["records"]
    assert records[0].error.startswith("line 3: ")


def test_plan_gamma_sets_the_smoothing_parameter(tmp_path):
    # null keeps the decaying default; a number holds gamma there
    cells = [{"name": name, "dataset": {"synthetic": {"n": 40, "d": 5}},
              "regularizer": {"variant": "l1", "mu": 0.01}, "solver": "sadmm",
              "config": {"gamma": gamma, "max_iter": 10}}
             for name, gamma in [("decay", None), ("held", 0.1)]]
    path = tmp_path / "gamma_plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0
    decay = read_trace_csv(tmp_path / "out" / "decay_sadmm_seed0.csv").gamma
    held = read_trace_csv(tmp_path / "out" / "held_sadmm_seed0.csv").gamma
    assert decay.tolist() == [max(1e-5 * 0.9**k, 1e-9) for k in range(len(decay))]
    assert held.tolist() == [0.1] * len(held)
    assert len(decay) == len(held) == 10


def test_plan_float_aorr_k_builds(tmp_path):
    good = json.loads(make_plan(tmp_path, reps=1).read_text())
    cell = dict(good["cells"][0], scheme={"kind": "aorr", "k": 5.0, "m": 2})
    path = tmp_path / "aorr_plan.json"
    path.write_text(json.dumps({"cells": [cell]}))
    scheme = scheme_from_dict(BenchmarkPlan.from_json(path).cells[0].scheme)
    assert scheme.k == 5 and type(scheme.k) is int


def test_plan_float_sgd_batch_runs(tmp_path):
    plan = json.loads(make_plan(tmp_path, solver="sgd", reps=1).read_text())
    plan["cells"][0]["config"]["batch"] = 16.0
    path = tmp_path / "sgd_plan.json"
    path.write_text(json.dumps(plan))
    assert cli_main(["benchmark", str(path)]) == 0


def test_unused_regularizer_values_share_problem_key():
    assert RegularizerSpec("zero", mu=1e-2) == ZERO
    assert RegularizerSpec("l2", mu=1e-2, theta=4.0) == RegularizerSpec("l2", mu=1e-2)
    cells = [
        BenchmarkCell(name=f"c{i}", dataset={"synthetic": {"n": 4, "d": 2}},
                      scheme=scheme, regularizer=reg)
        for i, (scheme, reg) in enumerate([
            ({"kind": "cpt"}, {"variant": "zero"}),
            ({"kind": "cpt", "gamma": 0.61}, {"variant": "zero", "mu": 1e-2, "theta": 3.0}),
        ])
    ]
    assert cells[0].problem_key(0) == cells[1].problem_key(0)
    other = BenchmarkCell(name="l2", dataset={"synthetic": {"n": 4, "d": 2}},
                          scheme={"kind": "cpt"}, regularizer={"variant": "l2", "mu": 1e-2})
    assert other.problem_key(0) != cells[0].problem_key(0)


def test_cli_weights_cpt_defaults(capsys):
    assert cli_main(["weights", "--scheme", "cpt", "--n", "7"]) == 0
    resolved = resolve(CPTValueDependent(), 7)
    expected = [
        f"{label}:" + ",".join(format(v, ".12g") for v in vec)
        for label, vec in (("low", resolved.sigma_low), ("high", resolved.sigma_high))
    ]
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_oracle(capsys):
    code = cli_main(["oracle", "--n", "5", "--scheme", "superquantile", "--q", "0.5",
                     "--seed", "1", "--step", "1e-4"])
    out = capsys.readouterr().out
    assert code == 0
    gap = float(out.strip().splitlines()[-1].split(":")[1])
    assert abs(gap) <= 1e-3


@pytest.mark.parametrize("flags", [["--step", "0"], ["--step", "-1"], ["--step", "nan"],
                                   ["--step", "inf"], ["--rho", "0"], ["--rho", "-2"],
                                   ["--rho", "nan"]])
def test_cli_oracle_bad_step_or_rho_exits_2(capsys, flags):
    assert cli_main(["oracle", "--n", "5", *flags]) == 2
    err = capsys.readouterr().err
    # the grid solver checks its step and rho
    assert f"error: {flags[0][2:]} must be finite and > 0" in err


def test_cli_oracle_oversize_grid_exits_2(capsys, monkeypatch):
    # the (n, grid points) table would take 8.9 GiB: refused before it is made
    empty = np.empty

    def small_empty(shape, *args, **kwargs):
        assert np.prod(shape, dtype=float) < 2**28, f"allocated an array of shape {shape}"
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", small_empty)
    assert cli_main(["oracle", "--n", "20000"]) == 2
    assert "grid table" in capsys.readouterr().err


def _captured_configs(monkeypatch, log):
    """Swap the harness's solver entry points, which ``train`` runs too, for
    stubs that record the config they get and return a one-row solve.  A
    benchmark calls them in its worker processes, so they append each config
    to the file ``log``, which ``_recorded_configs`` reads back."""
    from rankadmm import harness
    from rankadmm.admm import SolverResult

    def record(config):
        with open(log, "ab") as fh:
            pickle.dump(config, fh)

    def fake_admm(problem, config):
        record(config)
        return SolverResult(w=np.zeros(problem.d), trace=_ONE_ROW)

    def fake_sgd(problem, config):
        record(config)
        return np.zeros(problem.d), _ONE_ROW

    monkeypatch.setattr(harness, "admm_solve", fake_admm)
    monkeypatch.setattr(harness, "sgd_solve", fake_sgd)


def _recorded_configs(log):
    configs = []
    with open(log, "rb") as fh:
        while True:
            try:
                configs.append(pickle.load(fh))
            except EOFError:
                return configs


def test_field_defaults_reach_every_entry_point(tmp_path, monkeypatch):
    log = tmp_path / "configs.pickle"
    _captured_configs(monkeypatch, log)
    cells = [{"name": f"{solver}-defaults", "dataset": {"synthetic": {"n": 12, "d": 3}},
              "solver": solver, "config": {}, "seeds": [5]} for solver in ("admm", "sgd")]
    path = tmp_path / "defaults_plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0
    assert cli_main(["train", "--synthetic", "n=12,d=3", "--out", str(tmp_path)]) == 0
    configs = _recorded_configs(log)
    assert sorted(configs, key=lambda c: type(c).__name__) == [
        SgdConfig(seed=5), SolverConfig(), SolverConfig()
    ]


def test_run_seed_moves_no_admm_trace_on_fixed_data(tmp_path):
    # The sweep benchmark's shape at data seed 1: data and split are fixed,
    # so the run seed reaches nothing an ADMM solve reads.
    common = {"dataset": {"synthetic": {"n": 600, "d": 30, "class_sep": 2.0,
                                        "flip_fraction": 0.05, "seed": 1}},
              "split": {"fractions": [0.7, 0.3], "seed": 1}, "seeds": [0, 1]}
    cells = [
        {"name": "sq", "scheme": {"kind": "superquantile", "q": 0.9},
         "regularizer": {"variant": "l2", "mu": 1e-2},
         "solver": "admm", "config": {"schedule": "srm", "max_iter": 60}},
        {"name": "cpt", "scheme": {"kind": "cpt"}, "regularizer": {"variant": "l2", "mu": 1e-2},
         "solver": "sadmm", "config": {"schedule": "ehrm", "max_iter": 20}},
    ]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cells": [dict(common, **cell) for cell in cells],
                                "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0
    for cell in cells:
        stem = tmp_path / "out" / f"{cell['name']}_{cell['solver']}"
        assert (_rows_without_wall(f"{stem}_seed0.csv")
                == _rows_without_wall(f"{stem}_seed1.csv")), cell["name"]


def test_cli_train_has_no_seed_flag(tmp_path):
    assert cli_main(["train", "--synthetic", "n=12,d=3", "--seed", "1",
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trace.csv").exists()


def test_cli_missing_data_file_exits_1(tmp_path):
    assert cli_main(["train", "--data", str(tmp_path / "nope.csv")]) == 1


@pytest.mark.parametrize("spec, named", [
    pytest.param(spec, named, id=spec)
    for spec, named in [("n=abc,d=3", "'n'"), ("n=20,d=3,seed=1.5", "'seed'"), ("n=0,d=3", "n >= 1"),
                        ("n=20,d=3,flip=0.7", "flip_fraction"), ("n=20", "'d'")]
])
def test_cli_train_bad_synthetic_exits_2(tmp_path, capsys, spec, named):
    assert cli_main(["train", "--synthetic", spec, "--out", str(tmp_path)]) == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and named in errors[0]
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("flags, named", [
    pytest.param(flags, named, id=f"flags{i}") for i, (flags, named) in enumerate([
        (["--max-iter", "0"], "max_iter"),
        (["--r", "-1"], "r must"),
        (["--schedule", "bogus"], "'schedule'"),
        (["--schedule", "constant:abc"], "'schedule'"),
        (["--reg", "mcp", "--theta", "0.5"], "theta"),
        (["--reg", "l1", "--mu", "-1"], "mu"),
        (["--reg", "l2", "--mu", "0"], "mu"),
        (["--theory-mode", "--reg", "l2"], "theory mode"),
        (["--theory-mode", "--reg", "mcp", "--theory-eps", "-1"], "rho0"),
    ])
])
def test_cli_train_bad_solver_or_regularizer_flag_exits_2(tmp_path, capsys, flags, named):
    assert cli_main(["train", "--synthetic", "n=20,d=3", *flags, "--out", str(tmp_path)]) == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and named in errors[0]
    assert not (tmp_path / "trace.csv").exists()


def _rows_without_wall(path):
    with open(path) as fh:
        return [{k: v for k, v in row.items() if k != "wall_ns"} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("flags, cell", [
    (["--synthetic", "n=40,d=5,seed=2", "--reg", "l1", "--mu", "0.01", "--max-iter", "20",
      "--schedule", "constant:1.0"],
     {"dataset": {"synthetic": {"n": 40, "d": 5, "seed": 2}},
      "regularizer": {"variant": "l1", "mu": 0.01}, "solver": "admm",
      "config": {"max_iter": 20, "schedule": "constant:1.0"}}),
    (["--synthetic", "n=40,d=5,seed=2", "--scheme", "superquantile", "--q", "0.5",
      "--reg", "l2", "--mu", "0.01", "--max-iter", "20", "--smooth"],
     {"dataset": {"synthetic": {"n": 40, "d": 5, "seed": 2}},
      "scheme": {"kind": "superquantile", "q": 0.5},
      "regularizer": {"variant": "l2", "mu": 0.01}, "solver": "sadmm",
      "config": {"max_iter": 20}}),
    (["--synthetic", "n=30,d=4,seed=3", "--framework", "aorr", "--k", "10", "--m", "2",
      "--loss", "hinge", "--max-iter", "25"],
     {"dataset": {"synthetic": {"n": 30, "d": 4, "seed": 3}},
      "scheme": {"kind": "aorr", "k": 10, "m": 2}, "loss": "hinge",
      "regularizer": {"variant": "l2", "mu": 1e-4}, "solver": "admm",
      "config": {"max_iter": 25, "schedule": "aorr"}}),
], ids=["admm", "sadmm", "aorr"])
def test_cli_train_matches_its_plan_cell(tmp_path, capsys, flags, cell):
    assert cli_main(["train", *flags, "--no-timing", "--out", str(tmp_path / "train")]) == 0
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cells": [dict(cell, name="c")], "out": str(tmp_path / "plan")}))
    assert cli_main(["benchmark", str(path)]) == 0
    plan_rows = _rows_without_wall(tmp_path / "plan" / f"c_{cell['solver']}_seed0.csv")
    train_rows = _rows_without_wall(tmp_path / "train" / "trace.csv")
    assert len(train_rows) > 1
    assert train_rows == plan_rows


@pytest.mark.parametrize("name", ["../escape", "..\\escape"])
def test_cli_benchmark_cell_name_with_path_separator_exits_2(tmp_path, capsys, name):
    # The name starts every file a run writes: "../escape" would write
    # escape_admm_seed0.csv beside the output directory.
    cell = dict(json.loads(make_plan(tmp_path, reps=1).read_text())["cells"][0], name=name)
    path = tmp_path / "escape_plan.json"
    path.write_text(json.dumps({"cells": [cell], "out": str(tmp_path / "out")}))
    with pytest.raises(InvalidParameterError, match="'name'"):
        BenchmarkPlan.from_json(path)
    assert cli_main(["benchmark", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "'name'" in err
    assert not (tmp_path / "out").exists()
    assert sorted(p.name for p in tmp_path.glob("*escape*")) == ["escape_plan.json"]


def test_summary_csv_quotes_a_cell_name_with_a_comma(tmp_path, capsys):
    good = json.loads(make_plan(tmp_path, reps=1).read_text())["cells"][0]
    path = tmp_path / "comma_plan.json"
    path.write_text(json.dumps({"cells": [dict(good, name="a,b"), good],
                                "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["cell"], r["solver"], r["runs"]) for r in rows] == [
        ("a,b", "admm", "1"), ("erm-l2", "admm", "1")]
    # a plainly named cell is written unquoted, one line ending in "\n"
    lines = (tmp_path / "out" / "summary.csv").read_bytes().split(b"\n")
    assert lines[1].startswith(b'"a,b",admm,1,0,') and lines[2].startswith(b"erm-l2,admm,1,0,")
    assert lines[3] == b"" and b"\r" not in lines[1] + lines[2]


def _mixed_plan(tmp_path, bad_cell: dict):
    """A plan of make_plan's cell (one run) and a copy updated by bad_cell."""
    good = json.loads(make_plan(tmp_path, reps=1).read_text())
    bad = dict(good["cells"][0], **bad_cell)
    path = tmp_path / "mixed_plan.json"
    path.write_text(json.dumps({"cells": [good["cells"][0], bad], "out": good["out"]}))
    return path


def _failures(out_dir):
    with open(out_dir / "summary.csv") as fh:
        return {row["cell"]: row["failures"] for row in csv.DictReader(fh)}


def test_benchmark_unreadable_data_file_is_a_failed_run(tmp_path, capsys):
    path = _mixed_plan(tmp_path, {"name": "missing",
                                  "dataset": {"path": str(tmp_path / "nope.csv")}})
    assert cli_main(["benchmark", str(path)]) == 1
    assert _failures(tmp_path / "out") == {"erm-l2": "0", "missing": "1"}
    assert (tmp_path / "out" / "erm-l2_admm_seed0.csv").exists()


@pytest.mark.parametrize("content", [b"y,x1\n1,\xff\xfe\n", b"1 1:\xff"])
def test_cli_train_undecodable_data_exits_1(tmp_path, capsys, content):
    path = tmp_path / ("f.csv" if content.startswith(b"y") else "f.txt")
    path.write_bytes(content)
    assert cli_main(["train", "--data", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_benchmark_diverging_sgd_run_is_a_failed_run(tmp_path, caplog):
    path = _mixed_plan(tmp_path, {"name": "diverging", "solver": "sgd",
                                  "scheme": {"kind": "superquantile", "q": 0.9},
                                  "config": {"epochs": 5, "learning_rate": 1e200}})
    assert cli_main(["benchmark", str(path)]) == 1
    assert _failures(tmp_path / "out") == {"erm-l2": "0", "diverging": "1"}
    assert "non-finite" in caplog.text


def test_benchmark_undecodable_data_file_is_a_failed_run(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"y,x1\n1,\xff\xfe\n")
    path = _mixed_plan(tmp_path, {"name": "garbled", "dataset": {"path": str(data)}})
    assert cli_main(["benchmark", str(path)]) == 1
    assert _failures(tmp_path / "out") == {"erm-l2": "0", "garbled": "1"}
    assert (tmp_path / "out" / "erm-l2_admm_seed0.csv").exists()


def test_benchmark_unexpected_exception_is_a_failed_run(tmp_path, monkeypatch, caplog):
    from rankadmm import harness

    real = harness.admm_solve

    def flaky(problem, config):
        if problem.n == 41:
            raise FloatingPointError("overflow in the w-step")
        return real(problem, config)

    monkeypatch.setattr(harness, "admm_solve", flaky)
    path = _mixed_plan(tmp_path, {"name": "faulty",
                                  "dataset": {"synthetic": {"n": 41, "d": 5, "seed": 1}}})
    plan = BenchmarkPlan.from_json(path)
    with caplog.at_level("ERROR", logger="rankadmm.harness"):
        out = run_benchmark(plan)
    errors = {r.cell: r.error for r in out["records"]}
    assert errors == {"erm-l2": None, "faulty": "FloatingPointError: overflow in the w-step"}
    assert any(rec.exc_info and rec.exc_info[0] is FloatingPointError for rec in caplog.records)
    assert _failures(tmp_path / "out") == {"erm-l2": "0", "faulty": "1"}
    assert (tmp_path / "out" / "erm-l2_admm_seed0.csv").exists()
    assert (tmp_path / "out" / "erm-l2_admm_seed0_subopt.csv").exists()
    assert cli_main(["benchmark", str(path)]) == 1


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
def test_cli_benchmark_bad_threads_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("RANK_ADMM_THREADS", value)
    path = make_plan(tmp_path, reps=1)
    assert cli_main(["benchmark", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "RANK_ADMM_THREADS" in err
    assert not (tmp_path / "out").exists()


def test_cli_benchmark_threads_positive_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("RANK_ADMM_THREADS", "2")
    assert cli_main(["benchmark", str(make_plan(tmp_path, reps=2))]) == 0


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    from rankadmm import harness

    monkeypatch.delenv("RANK_ADMM_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert harness.worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness.worker_count() == 64
    monkeypatch.setenv("RANK_ADMM_THREADS", "4")
    assert harness.worker_count() == 4
    monkeypatch.delattr(os, "fork")  # the parent runs every cell
    assert harness.worker_count() == 1


def test_dead_worker_fails_its_run_and_the_parent_runs_the_rest(tmp_path, monkeypatch,
                                                                   caplog):
    from rankadmm import harness

    real = harness.admm_solve
    parent = os.getpid()

    def dying(problem, config):
        if problem.n == 41 and os.getpid() != parent:
            os._exit(3)
        return real(problem, config)

    monkeypatch.setattr(harness, "admm_solve", dying)
    # width 2 forks one worker, which takes the first run; the parent takes
    # the second, then the third that the broken pool leaves behind
    monkeypatch.setenv("RANK_ADMM_THREADS", "2")
    path = _mixed_plan(tmp_path, {"name": "dying",
                                  "dataset": {"synthetic": {"n": 41, "d": 5, "seed": 1}}})
    plan = json.loads(path.read_text())
    good = plan["cells"][0]
    plan["cells"] = [plan["cells"][1], good, dict(good, name="after")]
    path.write_text(json.dumps(plan))
    with caplog.at_level("ERROR", logger="rankadmm.harness"):
        out = run_benchmark(BenchmarkPlan.from_json(path))
    assert multiprocessing.active_children() == []
    errors = {r.cell: r.error for r in out["records"]}
    assert list(errors) == ["dying", "erm-l2", "after"]
    assert errors["erm-l2"] is None and errors["after"] is None
    assert errors["dying"].startswith("BrokenProcessPool: ")
    assert _failures(tmp_path / "out") == {"dying": "1", "erm-l2": "0", "after": "0"}
    assert (tmp_path / "out" / "erm-l2_admm_seed0.csv").exists()
    assert (tmp_path / "out" / "after_admm_seed0.csv").exists()
    assert "cell dying seed 0 failed" in caplog.text
    assert cli_main(["benchmark", str(path)]) == 1
    assert multiprocessing.active_children() == []


def test_every_run_is_taken_once_under_contention(tmp_path, monkeypatch):
    from rankadmm import harness

    real = harness.sgd_solve
    log = tmp_path / "runs.log"

    def logged(problem, config):
        with open(log, "a") as fh:  # one short append per run, from any process
            fh.write(f"{problem.n} {config.seed}\n")
        return real(problem, config)

    monkeypatch.setattr(harness, "sgd_solve", logged)
    # more runs at once than CPUs, and thread switches as often as possible
    monkeypatch.setenv("RANK_ADMM_THREADS", "4")
    cells = [{"name": f"c{n}", "dataset": {"synthetic": {"n": n, "d": 3}}, "solver": "sgd",
              "config": {"epochs": 1}, "seeds": [0, 1, 2]} for n in range(12, 20)]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_benchmark(BenchmarkPlan.from_json(path))
    finally:
        sys.setswitchinterval(switch)
    assert multiprocessing.active_children() == []
    expected = [(f"c{n}", seed) for n in range(12, 20) for seed in (0, 1, 2)]
    assert [(r.cell, r.seed) for r in out["records"]] == expected
    assert all(r.error is None for r in out["records"])
    assert sorted(log.read_text().splitlines()) == sorted(f"{n} {seed}" for n in range(12, 20)
                                                           for seed in (0, 1, 2))


def test_results_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    cells = [
        {"name": "sq", "dataset": {"synthetic": {"n": 60, "d": 5, "seed": 1}},
         "scheme": {"kind": "superquantile", "q": 0.8}, "regularizer": {"variant": "l1", "mu": 0.01},
         "solver": "admm", "config": {"max_iter": 15}, "seeds": [0, 1]},
        {"name": "sgd", "dataset": {"synthetic": {"n": 60, "d": 5}},
         "split": {"fractions": [0.7, 0.3]}, "solver": "sgd", "config": {"epochs": 5},
         "seeds": [0, 1]},
        {"name": "cpt", "dataset": {"synthetic": {"n": 60, "d": 5, "seed": 2}},
         "scheme": {"kind": "cpt"}, "solver": "sadmm", "config": {"max_iter": 10}},
    ]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"cells": cells}))
    outs = {}
    widths = ("1", "2", "3")  # no worker, one, two
    for width in widths:
        monkeypatch.setenv("RANK_ADMM_THREADS", width)
        outs[width] = tmp_path / f"out{width}"
        assert cli_main(["benchmark", str(path), "--out", str(outs[width])]) == 0
    traces = sorted(p.name for p in outs["1"].glob("*_seed*.csv"))
    assert len(traces) == 10
    for width in widths[1:]:
        assert traces == sorted(p.name for p in outs[width].glob("*_seed*.csv"))
        for name in traces:  # run traces and sub-optimality traces
            assert _rows_without_wall(outs["1"] / name) == _rows_without_wall(outs[width] / name)

    def means(out_dir):
        with open(out_dir / "summary.csv") as fh:
            return [(row["objective_mean"], row["accuracy_mean"]) for row in csv.DictReader(fh)]

    assert means(outs["1"]) == means(outs["2"]) == means(outs["3"])
