"""Tests of the benchmark itself: a tiny run of every workload emits every
metric named in BENCHMARK.json, and missing boundaries are reported as
absent.  Run with ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import perlayer  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float), (m["name"], got)
    assert "provenance " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _traced_tiny_solve(boundaries):
    tracer = tracing.Tracer(boundaries)
    inputs = wl.build_solve("srm-superquantile", 0, tiny=True)
    tracer.install("timed")
    try:
        inputs.solve()
    finally:
        tracer.uninstall()
    ctx = perlayer.Context(tracer=tracer, workload="srm-superquantile", units=1, workers=1,
                           untraced_unit_s=1.0, traced_unit_s=1.0, cpt_oracle_gap=0.0)
    return tracer, perlayer.compute(ctx)


def _moved(name, target):
    return tuple(
        tracing.Boundary(b.name, target, b.kind, b.attrs) if b.name == name else b
        for b in tracing.BOUNDARIES
    )


def test_all_boundaries_present_at_this_commit():
    tracer, metrics = _traced_tiny_solve(tracing.BOUNDARIES)
    assert tracer.missing == {}
    assert metrics["losses.scalar_solves_per_z"][0] > 0
    assert metrics["pava.z_ms"][0] > 0


def test_missing_function_is_absent_not_zero():
    boundaries = _moved("losses.block_minimize", "rankadmm.pava:block_minimize_removed")
    tracer, metrics = _traced_tiny_solve(boundaries)
    assert "losses.block_minimize" in tracer.absent()
    value, _, note = metrics["losses.scalar_solves_per_z"]
    assert value is None and note.startswith("absent")
    assert metrics["pava.z_ms"][0] > 0


def test_missing_module_and_class_are_absent():
    boundaries = _moved("wsolver.solve", "rankadmm.wsolver:RemovedSolver.solve")
    boundaries = tuple(
        tracing.Boundary(b.name, "rankadmm.removed_module:f", b.kind)
        if b.name == "pava.solve_z_subproblem" else b
        for b in boundaries
    )
    tracer, metrics = _traced_tiny_solve(boundaries)
    absent = tracer.absent()
    assert "cannot be imported" in absent["pava.solve_z_subproblem"]
    assert "RemovedSolver" in absent["wsolver.solve"]
    for name in ("pava.z_ms", "pava.merges_per_call", "wsolver.w_ms", "wsolver.inner_iters"):
        assert metrics[name][0] is None
    assert metrics["admm.iters"][0] is None  # counted through the z-step spans


def test_uninstall_restores_every_binding(monkeypatch):
    import rankadmm.admm
    import rankadmm.wsolver

    # Modules first imported by install() must bind the originals too.
    monkeypatch.delitem(sys.modules, "rankadmm.harness", raising=False)
    monkeypatch.delitem(sys.modules, "rankadmm.cli", raising=False)
    before = (rankadmm.admm.solve_z_subproblem, rankadmm.wsolver.WSolver.solve,
              rankadmm.admm.admm_solve)
    tracer = tracing.Tracer()
    tracer.install("timed")
    assert rankadmm.admm.solve_z_subproblem is not before[0]
    tracer.uninstall()
    assert (rankadmm.admm.solve_z_subproblem, rankadmm.wsolver.WSolver.solve,
            rankadmm.admm.admm_solve) == before
    assert sys.modules["rankadmm.harness"].admm_solve is before[2]


def test_reference_time_takes_off_probe_time_and_scales():
    probe = hostspeed.SpeedProbe()
    slow = 2 * hostspeed.NOMINAL_NS  # the loop at half its nominal speed
    probe.starts = [-10, 100, 500_000, 1_000_000]
    probe.durations = [slow, slow, slow, slow]
    # Samples starting inside [0, 1 ms) are probe time; all four are near.
    assert probe.overhead_ns(0, 1_000_000) == 2 * slow
    assert probe.factor(0, 1_000_000) == pytest.approx(0.5)
    assert probe.reference_ns(0, 1_000_000) == pytest.approx((1_000_000 - 2 * slow) * 0.5)
    # With no sample within the margin, the nearest one is used.
    assert probe.factor(10**12, 10**12 + 1) == pytest.approx(0.5)


def test_probe_samples_on_alarm_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe(0.002) as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) > 2 * hostspeed.BURST
    assert probe.starts == sorted(probe.starts)
    for cpu_clock in (False, True):
        with hostspeed.SpeedProbe(60.0, cpu_clock=cpu_clock) as bursts:
            pass  # no alarm within 60 s: the entry and exit bursts only
        assert len(bursts.durations) == 2 * hostspeed.BURST
        assert min(bursts.durations) > 0
