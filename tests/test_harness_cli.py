import csv
import json
import math

import numpy as np
import pytest

from rankadmm.admm import TRACE_COLUMNS, IterationTrace, SolverConfig, read_trace_csv
from rankadmm.baselines import SgdConfig
from rankadmm.cli import cli_main
from rankadmm.harness import (
    BenchmarkCell,
    BenchmarkPlan,
    run_benchmark,
    schedule_from_string,
    summarize,
)
from rankadmm.errors import InvalidParameterError
from rankadmm.regularizers import ZERO, RegularizerSpec
from rankadmm.weights import ERM, CPTValueDependent, resolve, scheme_from_dict


_ONE_ROW = IterationTrace(k=0, objective=0.0, aug_lagrangian=0.0, lyapunov=None, kkt_z=0.0,
                          kkt_w=0.0, kkt_feas=0.0, dual_step=0.0, z_decrease=0.0,
                          w_decrease=0.0, rho=1.0, gamma=None, wall_ns=0)


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


def test_cli_train_bad_scheme_value_exits_2(tmp_path, capsys):
    assert cli_main(["train", "--synthetic", "n=20,d=3,seed=1", "--scheme", "human-aligned",
                     "--ha-b", "-0.5", "--out", str(tmp_path)]) == 2
    assert "nonnegative" in capsys.readouterr().err
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


@pytest.mark.parametrize("change", [
    {"regulariser": {"variant": "l2", "mu": 0.01}},
    {"loss": "squared"},
    {"scheme": {"kind": "superquantile"}},
    {"scheme": {"kind": "superquantile", "q": 0.9, "qq": 1}},
    {"scheme": {"kind": "aorr", "k": 5.5, "m": 2}},
    {"config": {"max_iters": 5}},
    {"regularizer": {"variant": "l2", "mu": 0.01, "thetta": 3.0}},
    {"solver": "sgd", "config": {"epochs": 5, "batch": 5.5}},
    {"config": {"max_iter": 20, "gamma": 0}},
    {"seeds": ["x"]},
    {"seeds": [0, 1.5]},
    {"repetitions": 1.5},
    {"dataset": {"synthetic": {"n": 0, "d": 3}}},
    {"dataset": {"synthetic": {"n": 40, "d": 5, "sep": 2.0}}},
    {"dataset": {"synthetc": {"n": 40, "d": 5}}},
    {"dataset": {"synthetic": {"n": 40, "d": 5}, "path": "data.csv"}},
    {"dataset": {"path": "data.csv", "format": "arff"}},
    {"split": {"fractions": [0.5, 0.2]}},
    {"split": {"fractions": [1.2, -0.2]}},
    {"split": {"fractions": [0.6, 0.4], "sed": 3}},
])
def test_cli_benchmark_invalid_plan_exits_2(tmp_path, capsys, change):
    good = json.loads(make_plan(tmp_path, reps=1).read_text())
    bad = dict(good["cells"][0], name="bad", **change)
    path = tmp_path / "bad_plan.json"
    path.write_text(json.dumps({"cells": [good["cells"][0], bad], "out": good["out"]}))
    with pytest.raises(InvalidParameterError):
        BenchmarkPlan.from_json(path)
    assert cli_main(["benchmark", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


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
    assert cells[0].problem_key() == cells[1].problem_key()
    other = BenchmarkCell(name="l2", dataset={"synthetic": {"n": 4, "d": 2}},
                          scheme={"kind": "cpt"}, regularizer={"variant": "l2", "mu": 1e-2})
    assert other.problem_key() != cells[0].problem_key()


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
    assert f"{flags[0]} must be finite and > 0" in err


def _captured_configs(monkeypatch):
    """Swap the solver entry points of the harness and the CLI for stubs
    that record the config they get and return a one-row solve."""
    from rankadmm import cli, harness
    from rankadmm.admm import SolverResult

    configs = []

    def fake_admm(problem, config):
        configs.append(config)
        return SolverResult(w=np.zeros(problem.d), trace=[_ONE_ROW])

    def fake_sgd(problem, config):
        configs.append(config)
        return np.zeros(problem.d), [_ONE_ROW]

    for module in (harness, cli):
        monkeypatch.setattr(module, "admm_solve", fake_admm)
    monkeypatch.setattr(harness, "sgd_solve", fake_sgd)
    return configs


def test_field_defaults_reach_every_entry_point(tmp_path, monkeypatch):
    configs = _captured_configs(monkeypatch)
    cells = [{"name": f"{solver}-defaults", "dataset": {"synthetic": {"n": 12, "d": 3}},
              "solver": solver, "config": {}, "seeds": [5]} for solver in ("admm", "sgd")]
    path = tmp_path / "defaults_plan.json"
    path.write_text(json.dumps({"cells": cells, "out": str(tmp_path / "out")}))
    assert cli_main(["benchmark", str(path)]) == 0
    assert cli_main(["train", "--synthetic", "n=12,d=3", "--out", str(tmp_path)]) == 0
    assert sorted(configs, key=lambda c: type(c).__name__) == [
        SgdConfig(seed=5), SolverConfig(seed=5), SolverConfig(seed=0)
    ]
    assert cli_main(["train", "--synthetic", "n=12,d=3", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
    assert configs[-1] == SolverConfig(seed=5)


def test_cli_missing_data_file_exits_1(tmp_path):
    assert cli_main(["train", "--data", str(tmp_path / "nope.csv")]) == 1


@pytest.mark.parametrize("spec", ["n=abc,d=3", "n=20,d=3,seed=1.5", "n=0,d=3",
                                  "n=20,d=3,flip=0.7"])
def test_cli_train_bad_synthetic_exits_2(tmp_path, capsys, spec):
    assert cli_main(["train", "--synthetic", spec, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


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
