"""Per-layer metrics computed from a traced run.

Each metric names the boundaries it reads and the workloads on which those
boundaries must be reached.  A metric whose boundary no longer exists, or
is expected on this workload but was never called, is reported as absent
(value None) with the reason; one whose layer this workload does not
exercise reads 0 with a note saying so.  Times are medians per call for
spans and means per call for leaf timers; "per unit" means per timed solve
(solve workloads) or per timed plan (sweep).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from tracer import COUNT, LEAF, SPAN, Span, Tracer
from workloads import WORKLOADS

TIMED = "timed"
ALL = frozenset(WORKLOADS)
SWEEP = frozenset({"sweep"})
PENALIZED = frozenset({"mcp-wide", "cpt-smooth", "sweep"})
SOLVE_SPANS = ("admm.admm_solve", "admm.sadmm_solve")
W_METHODS = ("closed_form", "prox_gradient", "smooth_lbfgs", "smooth_splitting",
             "smooth_closed_form")
#: Layers whose self time is reported, with the workloads whose timed
#: window reaches them.  losses has counters only, so its time stays in
#: the calling z-step (pava).
SELF_LAYERS = {
    "admm": ALL, "pava": ALL, "wsolver": ALL, "problem": ALL, "regularizers": PENALIZED,
    "weights": SWEEP, "data_io": SWEEP, "harness": SWEEP, "baselines": SWEEP, "cli": SWEEP,
}


@dataclass
class Context:
    tracer: Tracer
    workload: str
    units: int  # timed solves or plans in the traced window
    workers: int
    untraced_unit_s: float
    traced_unit_s: float
    cpt_oracle_gap: float

    def spans(self, *names) -> list[Span]:
        return self.tracer.spans(*names, phase=TIMED)

    def leaf(self, name, phase=TIMED) -> tuple[int, int]:
        return self.tracer.leaf(name, phase)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: Groups of boundaries the value is computed from: every group must
    #: have at least one member present and reached.
    needs: tuple[tuple[str, ...], ...]
    expect: frozenset  # workloads on which the boundaries must be reached
    fn: Callable[[Context], float]
    phase: str | None = TIMED


def _ms(ns: float) -> float:
    return ns / 1e6


def _median_ms(spans: list[Span]) -> float:
    return _ms(statistics.median(s.dur for s in spans))


def _share(ctx, name) -> float:
    return sum(s.dur for s in ctx.spans(name)) / sum(s.dur for s in ctx.spans(*SOLVE_SPANS))


def _z(ctx):
    return ctx.spans("pava.solve_z_subproblem")


def _w(ctx):
    return ctx.spans("wsolver.solve")


def _z_heavy(ctx) -> float:
    heavy = [s for s in _z(ctx) if s.attrs["blocks"] < 0.9 * s.attrs["n"]]
    return _median_ms(heavy) if heavy else 0.0


def _leaf_ms(name, phase=TIMED):
    def fn(ctx):
        calls, ns = ctx.leaf(name, phase)
        return _ms(ns / calls)
    return fn


def _per_iter(name):
    return lambda ctx: ctx.leaf(name)[0] / len(_z(ctx))


def _prox_ms(ctx) -> float:
    in_w, in_admm = ctx.leaf("regularizers.prox_in_w"), ctx.leaf("regularizers.prox_in_admm")
    calls, ns = in_w[0] + in_admm[0], in_w[1] + in_admm[1]
    return _ms(ns / calls)


def _other_ms_per_iter(ctx) -> float:
    solve = sum(s.dur for s in ctx.spans(*SOLVE_SPANS))
    z = sum(s.dur for s in _z(ctx))
    w = sum(s.dur for s in _w(ctx))
    return _ms((solve - z - w) / len(_z(ctx)))


def _plans(ctx):
    """(run_benchmark span, run_cell spans inside it) per plan."""
    cells = ctx.spans("harness.run_cell")
    return [(rb, [c for c in cells if rb.t0 <= c.t0 and c.t1 <= rb.t1])
            for rb in ctx.spans("harness.run_benchmark")]


def _pool_wall(cells) -> int:
    return max(c.t1 for c in cells) - min(c.t0 for c in cells) if cells else 0


def _parallel_eff(ctx) -> float:
    return statistics.median(
        sum(c.dur for c in cells) / (ctx.workers * _pool_wall(cells))
        for _, cells in _plans(ctx)
    )


def _post_ms(ctx) -> float:
    return _ms(statistics.median(rb.t1 - max(c.t1 for c in cells) for rb, cells in _plans(ctx)))


def _trace_io_ms(ctx) -> float:
    ns = ctx.leaf("harness.write_trace_csv")[1] + ctx.leaf("harness.read_trace_csv")[1]
    return _ms(ns / len(ctx.spans("harness.run_cell")))


def _cli_overhead_ms(ctx) -> float:
    inner = ctx.spans("harness.run_benchmark")
    return _ms(statistics.median(
        c.dur - sum(rb.dur for rb in inner if c.t0 <= rb.t0 and rb.t1 <= c.t1)
        for c in ctx.spans("cli.cli_main")
    ))


def _self_ns(ctx, layer) -> int:
    """Self time of one layer summed over threads in the timed window.

    The harness's plan span waits on worker threads, which are not its
    children on the span stack, so the pool's wall time is taken off it.
    """
    total = 0
    names = {b.name for b in ctx.tracer.boundaries if b.layer == layer}
    for b_name in names:
        kinds = {b.kind for b in ctx.tracer.boundaries if b.name == b_name}
        if LEAF in kinds:
            total += ctx.leaf(b_name)[1]
        elif SPAN in kinds:
            total += sum(s.self_ns for s in ctx.spans(b_name))
    if layer == "harness":
        total -= sum(_pool_wall(cells) for _, cells in _plans(ctx))
    return total


def _reach(ctx, name, phase) -> int:
    kinds = {b.kind for b in ctx.tracer.boundaries if b.name == name}
    if SPAN in kinds:
        return len(ctx.tracer.spans(name, phase=phase))
    if LEAF in kinds:
        return ctx.tracer.leaf(name, phase)[0]
    if COUNT in kinds:
        return ctx.tracer.count(name, phase)
    return 0


def _method_count(method):
    return lambda ctx: sum(1 for s in _w(ctx) if s.attrs["method"] == method) / ctx.units


def _each(*names):
    """Every one of the boundaries is needed."""
    return tuple((n,) for n in names)


def _any(*names):
    """Any one of the boundaries is enough."""
    return (names,)


Z, W = _each("pava.solve_z_subproblem"), _each("wsolver.solve")
SOLVES = _any(*SOLVE_SPANS)
SCALAR = _any("losses.block_minimize", "losses.block_minimize_cpt")
PROX = _any("regularizers.prox_in_w", "regularizers.prox_in_admm")

METRICS = (
    Metric("pava.z_ms", "ms", Z, ALL, lambda c: _median_ms(_z(c))),
    Metric("pava.z_share", "ratio", Z + SOLVES, ALL,
           lambda c: _share(c, "pava.solve_z_subproblem")),
    Metric("pava.z_us_per_sample", "us", Z, ALL,
           lambda c: sum(s.dur for s in _z(c)) / sum(s.attrs["n"] for s in _z(c)) / 1e3),
    Metric("pava.merges_per_call", "count", Z, ALL,
           lambda c: statistics.fmean(s.attrs["n"] - s.attrs["blocks"] for s in _z(c))),
    Metric("pava.z_heavy_ms", "ms", Z, ALL, _z_heavy),
    Metric("losses.scalar_solves_per_z", "count", SCALAR + Z, ALL,
           lambda c: (c.tracer.count("losses.block_minimize", TIMED)
                      + c.tracer.count("losses.block_minimize_cpt", TIMED)) / len(_z(c))),
    Metric("wsolver.w_ms", "ms", W, ALL, lambda c: _median_ms(_w(c))),
    Metric("wsolver.w_share", "ratio", W + SOLVES, ALL, lambda c: _share(c, "wsolver.solve")),
    Metric("wsolver.inner_iters", "count", W, ALL,
           lambda c: statistics.fmean(s.attrs["iterations"] for s in _w(c))),
    *(Metric(f"wsolver.method.{m}", "count", W, ALL, _method_count(m)) for m in W_METHODS),
    Metric("wsolver.warnings", "count", W, ALL,
           lambda c: sum(s.attrs["warning"] for s in _w(c)) / c.units),
    Metric("wsolver.first_ms", "ms", W, ALL,
           lambda c: _median_ms([s for s in _w(c) if s.attrs["first"]])),
    Metric("problem.rank_loss_calls_per_iter", "count", _each("problem.rank_loss_value") + Z,
           ALL, _per_iter("problem.rank_loss_value")),
    Metric("problem.rank_loss_ms", "ms", _each("problem.rank_loss_value"), ALL,
           _leaf_ms("problem.rank_loss_value")),
    Metric("problem.apply_D_calls_per_iter", "count", _each("problem.apply_D") + Z, ALL,
           _per_iter("problem.apply_D")),
    Metric("problem.apply_D_ms", "ms", _each("problem.apply_D"), ALL,
           _leaf_ms("problem.apply_D")),
    Metric("regularizers.prox_calls_per_w", "count", PROX + W, PENALIZED,
           lambda c: c.leaf("regularizers.prox_in_w")[0] / len(_w(c))),
    Metric("regularizers.prox_ms", "ms", PROX, PENALIZED, _prox_ms),
    Metric("admm.other_ms_per_iter", "ms", SOLVES + Z + W, ALL, _other_ms_per_iter),
    Metric("admm.iters", "count", SOLVES + Z, ALL,
           lambda c: len(_z(c)) / len(c.spans(*SOLVE_SPANS))),
    Metric("data_io.generate_ms", "ms", _each("data_io.generate_synthetic"), ALL,
           _leaf_ms("data_io.generate_synthetic", None), phase=None),
    Metric("data_io.standardize_ms", "ms", _each("data_io.standardize"), ALL,
           _leaf_ms("data_io.standardize", None), phase=None),
    Metric("weights.resolve_ms", "ms", _each("weights.resolve"), ALL,
           _leaf_ms("weights.resolve", None), phase=None),
    Metric("harness.run_cell_ms", "ms", _each("harness.run_cell"), SWEEP,
           lambda c: _median_ms(c.spans("harness.run_cell"))),
    Metric("harness.parallel_eff", "ratio", _each("harness.run_benchmark", "harness.run_cell"),
           SWEEP, _parallel_eff),
    Metric("harness.run_cell_cpu_share", "ratio", _each("harness.run_cell"), SWEEP,
           lambda c: sum(s.cpu_ns for s in c.spans("harness.run_cell"))
           / sum(s.dur for s in c.spans("harness.run_cell"))),
    Metric("harness.trace_io_ms", "ms",
           _each("harness.write_trace_csv", "harness.read_trace_csv", "harness.run_cell"),
           SWEEP, _trace_io_ms),
    Metric("harness.post_ms", "ms", _each("harness.run_benchmark", "harness.run_cell"), SWEEP,
           _post_ms),
    Metric("baselines.sgd_ms", "ms", _each("baselines.sgd_solve"), SWEEP,
           lambda c: _median_ms(c.spans("baselines.sgd_solve"))),
    Metric("cli.overhead_ms", "ms", _each("cli.cli_main", "harness.run_benchmark"), SWEEP,
           _cli_overhead_ms),
)


def _gone(m: Metric, absent) -> list[str]:
    """Boundaries behind a group none of whose members exists."""
    return [n for group in m.needs if all(g in absent for g in group) for n in group]


def _reached(ctx, m: Metric) -> bool:
    return all(any(_reach(ctx, n, m.phase) > 0 for n in group) for group in m.needs)


def _absent_or_zero(workload, expect, unit):
    if workload in expect:
        return (None, unit, "absent: boundary not reached on this workload")
    return (0.0, unit, "not exercised on this workload")


def compute(ctx: Context) -> dict[str, tuple[float | None, str, str]]:
    """name -> (value or None when absent, unit, note)."""
    absent = ctx.tracer.absent()
    out: dict[str, tuple[float | None, str, str]] = {}
    for m in METRICS:
        gone = _gone(m, absent)
        if gone:
            out[m.name] = (None, m.unit, "absent: " + "; ".join(absent[n] for n in gone))
        elif not _reached(ctx, m):
            out[m.name] = _absent_or_zero(ctx.workload, m.expect, m.unit)
        else:
            out[m.name] = (float(m.fn(ctx)), m.unit, "")

    for layer, expect in SELF_LAYERS.items():
        names = {b.name for b in ctx.tracer.boundaries if b.layer == layer and b.kind != COUNT}
        key = f"self_ms.{layer}"
        if names <= absent.keys():
            out[key] = (None, "ms", "absent: every boundary of the layer is missing")
        elif sum(_reach(ctx, n, TIMED) for n in names) == 0:
            out[key] = _absent_or_zero(ctx.workload, expect, "ms")
        else:
            out[key] = (_ms(_self_ns(ctx, layer) / ctx.units), "ms", "")

    out["pava.cpt_oracle_gap"] = (ctx.cpt_oracle_gap, "obj", "grid oracle, step 1e-4")
    out["trace.overhead_s"] = (ctx.traced_unit_s - ctx.untraced_unit_s, "s",
                               "traced minus untraced seconds per solve or run")
    out["trace.overhead_frac"] = (ctx.traced_unit_s / ctx.untraced_unit_s - 1.0, "ratio", "")
    return out
