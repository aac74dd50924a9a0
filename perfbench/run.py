#!/usr/bin/env python3
"""Benchmark for rankadmm: end-to-end metrics, or per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload srm-superquantile --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  ``--trace 0`` times the workload untraced and prints every
end-to-end metric, in reference seconds (hostspeed.py); ``--trace 1``
alternates untraced calls with calls under the layer tracer and prints every
per-layer metric, in wall time.  Every
result line is preceded by human-readable lines and a provenance record;
the last line of standard output is one JSON object.  NOTES.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("srm-superquantile", "mcp-wide", "cpt-smooth", "sweep")  # as in workloads.py
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
#: Traced runs leave their spans here (ignored by git); scratch files of a
#: run go to a per-process directory beside it that is removed at exit.
SPANS_DIR = ROOT / ".perfbench_run" / "spans"
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (smoke tests); stored references are skipped")
    p.add_argument("--setup-probe", type=int, default=None, metavar="T0_NS",
                   help=argparse.SUPPRESS)
    p.add_argument("--plan", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_environment(workload: str) -> None:
    """One BLAS thread per process; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if workload == "sweep":
        os.environ["RANK_ADMM_THREADS"] = "2"


def import_package():
    """Import rankadmm from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rankadmm

    if Path(rankadmm.__file__).resolve().parent != (SRC / "rankadmm").resolve():
        raise ImportError(f"rankadmm imported from {rankadmm.__file__}, not {SRC}")
    return rankadmm


class WarningTally(logging.Handler):
    """Counts the package's logged warnings by message template, so they
    are reported once per run instead of once per solve on stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}

    def emit(self, record):
        key = str(record.msg)
        self.counts[key] = self.counts.get(key, 0) + 1


# -- set-up time -------------------------------------------------------------


def setup_probe(args) -> int:
    """Child process: import, build the inputs, report the time since spawn
    in reference ns and in wall ns."""
    with hostspeed.SpeedProbe() as probe:
        import_package()
        if args.workload == "sweep":
            import rankadmm.cli  # noqa: F401  (the timed call goes through the CLI)
            from rankadmm.harness import BenchmarkPlan

            BenchmarkPlan.from_json(args.plan)
        else:
            import workloads as wl

            wl.build_solves(args.workload, args.seed, args.tiny)
        end = time.perf_counter_ns()
    print(probe.reference_ns(args.setup_probe, end), end - args.setup_probe)
    return 0


def measure_setup(args, plan_path, probes: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh process to its first timed call, in
    reference seconds and in wall seconds."""
    base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0"]
    if plan_path is not None:
        base += ["--plan", str(plan_path)]
    if args.tiny:
        base.append("--tiny")
    ref, wall = [], []
    for _ in range(probes):
        cmd = base + ["--setup-probe", str(time.perf_counter_ns())]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ref_ns, wall_ns = proc.stdout.split()[-2:]
        ref.append(float(ref_ns) / 1e9)
        wall.append(int(wall_ns) / 1e9)
    return ref, wall


# -- timed windows -----------------------------------------------------------


def window(seconds, unit, tracer, probe):
    """Call unit() until another call would overrun the window.

    With a tracer (not None), every second call runs traced, so drift in machine
    speed hits the traced and untraced samples alike.  With a host-speed probe
    (not None), a burst of its samples brackets each call.  Returns the
    (start_ns, end_ns, outcome) triples of the untraced and of the traced
    calls; an exception raised by unit() becomes its outcome.
    """
    samples = []
    start = time.perf_counter_ns()
    while True:
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.install("timed")
        if probe:
            probe.burst()
        t0 = time.perf_counter_ns()
        try:
            outcome = unit()
        except Exception as exc:  # a failed solve counts as failed; the window goes on
            outcome = exc
        finally:
            t1 = time.perf_counter_ns()
            if traced:
                tracer.uninstall()
        if probe:
            probe.burst()
        samples.append((t0, t1, outcome))
        elapsed = t1 - start
        typical = statistics.median(b - a for a, b, _ in samples)
        if tracer is None and elapsed + typical > seconds * 1e9:
            return samples, []
        if len(samples) >= 2 and elapsed + typical > seconds * 1e9:
            return samples[0::2], samples[1::2]


class SolveRunner:
    """Timed unit: one solve; the run's instances, built once, take turns."""

    probe = {"interval_s": hostspeed.INTERVAL_S}

    def __init__(self, args, wl):
        self.args, self.wl = args, wl
        self.instances = []
        self.count = 0

    def build(self):
        self.instances = self.wl.build_solves(self.args.workload, self.args.seed, self.args.tiny)

    def warm_up(self):
        from dataclasses import replace

        for inputs in self.instances:
            replace(inputs, config=replace(inputs.config, max_iter=3)).solve()

    def unit(self):
        # A traced run alternates untraced and traced calls; each pair
        # solves the same instance, so the tracing overhead compares like
        # with like.
        step = 2 if self.args.trace else 1
        inputs = self.instances[(self.count // step) % len(self.instances)]
        self.count += 1
        return inputs, inputs.solve()

    def evaluate(self, samples, reference, span_ns):
        """Timings and check outcomes of a window's solves; ``span_ns(lo, hi)``
        turns a wall interval into the reported time."""
        unit_s, wall_s, iter_ms, failed, reasons = [], [], [], 0, []
        for t0, t1, outcome in samples:
            unit_s.append(span_ns(t0, t1) / 1e9)
            wall_s.append((t1 - t0) / 1e9)
            if isinstance(outcome, Exception):
                failed += 1
                reasons.append(f"solve raised {outcome!r}")
                continue
            inputs, result = outcome
            problem = self.wl.check_solve(reference, self.args.workload, inputs.seed,
                                          result, inputs.problem)
            if problem:
                failed += 1
                reasons.append(problem)
            # The trace's clock starts just after the solve's own set-up.
            ends = [t0 + row.wall_ns for row in result.trace]
            iter_ms.extend(span_ns(a, b) / 1e6 for a, b in zip([t0] + ends, ends))
        return {"solve_s": unit_s, "iter_ms": iter_ms, "unit_s": unit_s, "wall_s": wall_s,
                "runs": [1] * len(samples), "attempted": len(samples),
                "failed": failed, "reasons": reasons,
                "iters": sorted({len(o[1].trace) for *_, o in samples
                                 if not isinstance(o, Exception)})}


class SweepRunner:
    """Timed unit: one in-process ``rankadmm benchmark`` on a fixed plan."""

    # The plan's work runs in worker threads, beside the probe.
    probe = {"interval_s": hostspeed.BESIDE_INTERVAL_S, "cpu_clock": True}

    def __init__(self, args, wl, run_dir: Path):
        self.args, self.wl, self.run_dir = args, wl, run_dir
        self.plan = wl.sweep_plan(args.seed, args.tiny)
        self.plan_path = run_dir / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan))
        self.count = 0

    def build(self):
        from rankadmm.harness import BenchmarkPlan

        BenchmarkPlan.from_json(self.plan_path)

    def _invoke(self, plan_path, out_dir):
        import rankadmm.cli

        with contextlib.redirect_stdout(io.StringIO()):
            return rankadmm.cli.cli_main(["benchmark", str(plan_path), "--out", str(out_dir)])

    def warm_up(self):
        path = self.run_dir / "warm_plan.json"
        path.write_text(json.dumps(self.wl.sweep_plan(self.args.seed, tiny=True)))
        self._invoke(path, self.run_dir / "warm")
        shutil.rmtree(self.run_dir / "warm")

    def unit(self):
        out_dir = self.run_dir / f"out{self.count}"
        self.count += 1
        return out_dir, self._invoke(self.plan_path, out_dir)

    def evaluate(self, samples, reference, span_ns):
        """Timings and check outcomes of a window's plans, read back from
        each plan's summary.csv and trace files.  Run and outer-iteration
        times from the traces are scaled as their plan's time is by
        ``span_ns``."""
        from rankadmm.admm import read_trace_csv

        solve_s, iter_ms, unit_s, wall_s, failed, reasons = [], [], [], [], 0, []
        for t0, t1, outcome in samples:
            scale = span_ns(t0, t1) / (t1 - t0)
            unit_s.append(scale * (t1 - t0) / 1e9)
            wall_s.append((t1 - t0) / 1e9)
            if isinstance(outcome, Exception):
                failed += self.wl.SWEEP_RUNS
                reasons.append(f"benchmark raised {outcome!r}")
                continue
            out_dir, code = outcome
            try:
                summary = self.wl.read_summary(out_dir)
                traces = [(solver, read_trace_csv(p))
                          for solver, p in self.wl.sweep_trace_files(self.plan, out_dir)]
            except OSError as exc:
                failed += self.wl.SWEEP_RUNS
                reasons.append(f"benchmark output unreadable: {exc}")
                continue
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            bad, why = self.wl.check_sweep(reference, self.args.seed, code, summary)
            failed += bad
            reasons.extend(why)
            for solver, trace in traces:
                walls = [row.wall_ns for row in trace]
                solve_s.append(scale * walls[-1] / 1e9)
                if solver != "sgd":  # an SGD trace row is an epoch, not an outer iteration
                    iter_ms.extend(scale * (b - a) / 1e6 for a, b in zip([0] + walls, walls))
        return {"solve_s": solve_s, "iter_ms": iter_ms, "unit_s": unit_s, "wall_s": wall_s,
                "runs": [self.wl.SWEEP_RUNS] * len(samples),
                "attempted": self.wl.SWEEP_RUNS * len(samples), "failed": failed,
                "reasons": reasons, "iters": []}


# -- reporting ---------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(ev, setup_s, setup_wall_s) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end metric; times are in reference seconds, with the
    wall-clock median beside the two that have one."""
    rates = [r / s for r, s in zip(ev["runs"], ev["unit_s"])]
    wall_rates = [r / s for r, s in zip(ev["runs"], ev["wall_s"])]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_iter = len(ev["iter_ms"])
    return {
        "setup_s": (statistics.median(setup_s), "s",
                    f"median of {len(setup_s)} set-ups; wall {statistics.median(setup_wall_s):.4g} s"),
        "solve_s": (statistics.median(ev["solve_s"]), "s",
                    f"median of {len(ev['solve_s'])} solves"),
        "iter_ms_p50": (statistics.median(ev["iter_ms"]), "ms", f"median of {n_iter} iterations"),
        "iter_ms_p90": (_p90(ev["iter_ms"]), "ms",
                        f"p90 of {n_iter} iterations, {n_iter // 10} beyond it"),
        "runs_per_s": (statistics.median(rates), "1/s",
                       f"median over {len(rates)} timed units; "
                       f"wall {statistics.median(wall_rates):.4g} 1/s"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload process"),
    }


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rankadmm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, samples: dict, host_speed: dict | None) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("RANK_ADMM_THREADS",)},
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "samples": samples,
        "host_speed": host_speed,
    }


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit, note) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit:6s} {note}")


# -- main --------------------------------------------------------------------


def run(args, run_dir: Path) -> dict:
    import perlayer
    import tracer as tracing
    import workloads as wl

    tally = WarningTally()
    logging.getLogger("rankadmm").addHandler(tally)
    reference = {} if args.tiny else wl.load_reference()
    runner = SweepRunner(args, wl, run_dir) if args.workload == "sweep" else SolveRunner(args, wl)
    setup_s, setup_wall_s = measure_setup(args, getattr(runner, "plan_path", None),
                                          2 if args.tiny else SETUP_PROBES)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install("setup")
    try:
        runner.build()
    finally:
        if tracer:
            tracer.uninstall()
    runner.warm_up()

    # Per-layer metrics are wall times: the probe would add its own time
    # to the spans it interrupts.
    probe = None if tracer else hostspeed.SpeedProbe(**runner.probe)
    with probe or contextlib.nullcontext():
        plain, traced = window(args.seconds, runner.unit, tracer, probe)
    if not tracer:
        ev = runner.evaluate(plain, reference, probe.reference_ns)
    else:
        wall_ns = lambda lo, hi: hi - lo  # noqa: E731
        ev_plain = runner.evaluate(plain, reference, wall_ns)
        ev_traced = runner.evaluate(traced, reference, wall_ns)
        ev = {k: ev_plain[k] + ev_traced[k] for k in ("attempted", "failed", "reasons")}
        ev["iters"] = sorted(set(ev_plain["iters"] + ev_traced["iters"]))

    oracle_problems, cpt_gap = wl.oracle_checks(args.seed)
    reasons = ev["reasons"] + oracle_problems
    if not reference and not args.tiny:
        reasons.append("perfbench/reference.json is missing")

    if tracer:
        per_unit = lambda e: sum(e["unit_s"]) / sum(e["runs"])  # noqa: E731
        ctx = perlayer.Context(
            tracer=tracer, workload=args.workload, units=len(traced),
            workers=int(os.environ.get("RANK_ADMM_THREADS", "1")),
            untraced_unit_s=per_unit(ev_plain), traced_unit_s=per_unit(ev_traced),
            cpt_oracle_gap=cpt_gap)
        metrics = perlayer.compute(ctx)
        _print_metrics("per-layer metrics (traced window)", metrics)
        self_ms = {k: v for k, v in metrics.items() if k.startswith("self_ms.") and v[0]}
        if self_ms:
            top = max(self_ms, key=lambda k: self_ms[k][0])
            print(f"largest self-time layer: {top[len('self_ms.'):]}")
        for name, reason in sorted(tracer.missing.items()):
            print(f"absent boundary {name}: {reason}")
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        samples = {"untraced_units": len(plain), "traced_units": len(traced)}
        samples.update({f"spans.{b.name}": len(tracer.spans(b.name, phase="timed"))
                        for b in tracer.boundaries if b.kind == tracing.SPAN})
    else:
        metrics = end_to_end(ev, setup_s, setup_wall_s)
        _print_metrics("end-to-end metrics", metrics)
        samples = {"setup": len(setup_s), "solves": len(ev["solve_s"]),
                   "iterations": len(ev["iter_ms"]), "timed_units": len(ev["unit_s"])}

    attempted, failed = ev["attempted"], ev["failed"]
    print(f"  {'failed_frac':34s} {failed / attempted:>12.6g} {'ratio':6s} {failed} of {attempted}")
    if ev["iters"]:
        shown = "/".join(map(str, ev["iters"]))
        print(f"  {'iters':34s} {shown:>12s} {'count':6s} outer iterations per solve")
    print(f"  {'pava.cpt_oracle_gap':34s} {cpt_gap:>12.6g}")
    for template, count in sorted(tally.counts.items()):
        print(f"logged warning x{count}: {template}")
    for reason in reasons:
        print(f"check failed: {reason}")
    host = probe.summary() if probe else None
    print("provenance " + json.dumps(provenance(args, samples, host), sort_keys=True))
    return {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankadmm" / "__init__.py").is_file():
        print(f"error: no rankadmm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_environment(args.workload)
    if args.setup_probe is not None:
        return setup_probe(args)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
