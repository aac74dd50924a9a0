"""Spans, leaf timers and counters recorded at rankadmm's layer boundaries.

The tracer wraps public functions from outside the package: it replaces a
module or class attribute with a recording wrapper and puts the original
back on ``uninstall``.  Nothing inside ``src/`` changes.

* A span records name, start, end, the enclosing span and the time its
  children took, so self time is ``end - start - child_ns``.
* A leaf timer keeps only a call count and total time per name, and adds
  its time to the enclosing span's children (used where spans would be
  too many, e.g. the proximal map inside FISTA).
* A counter only counts calls (the per-element scalar solves).

Records are kept in memory per thread, so the harness's worker threads
never share a list; they are read and written out after the run.  A boundary whose target
no longer exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _z_attrs(tracer, args, z):
    return {"n": int(z.shape[0]), "blocks": int(np.unique(z).shape[0])}


def _w_attrs(tracer, args, w):
    solver = args[0]
    info = solver.last_info
    first = solver not in tracer.seen_solvers
    tracer.seen_solvers.add(solver)
    return {
        "method": info.method,
        "iterations": int(info.iterations),
        "warning": info.warning is not None,
        "first": first,
    }


@dataclass(frozen=True)
class Boundary:
    """One wrapped binding.  ``name`` is ``<layer>.<what>``; several
    bindings of one function (imported by name into two modules) share a
    name."""

    name: str
    target: str  # "module:attr" or "module:Class.attr"
    kind: str
    attrs: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


BOUNDARIES = (
    Boundary("admm.admm_solve", "rankadmm.admm:admm_solve", SPAN),
    Boundary("admm.admm_solve", "rankadmm.harness:admm_solve", SPAN),
    Boundary("admm.sadmm_solve", "rankadmm.admm:sadmm_solve", SPAN),
    Boundary("admm.sadmm_solve", "rankadmm.harness:sadmm_solve", SPAN),
    Boundary("pava.solve_z_subproblem", "rankadmm.admm:solve_z_subproblem", SPAN, _z_attrs),
    Boundary("losses.block_minimize", "rankadmm.pava:block_minimize", COUNT),
    Boundary("losses.block_minimize_cpt", "rankadmm.pava:block_minimize_cpt", COUNT),
    Boundary("wsolver.solve", "rankadmm.wsolver:WSolver.solve", SPAN, _w_attrs),
    Boundary("problem.rank_loss_value", "rankadmm.admm:rank_loss_value", LEAF),
    Boundary("problem.rank_loss_value", "rankadmm.problem:rank_loss_value", LEAF),
    Boundary("problem.apply_D", "rankadmm.problem:Problem.apply_D", LEAF),
    Boundary("regularizers.prox_in_w", "rankadmm.wsolver:prox", LEAF),
    Boundary("regularizers.prox_in_w", "rankadmm.wsolver:moreau_value_and_grad", LEAF),
    Boundary("regularizers.prox_in_admm", "rankadmm.admm:prox", LEAF),
    Boundary("regularizers.prox_in_admm", "rankadmm.admm:moreau_value_and_grad", LEAF),
    Boundary("weights.resolve", "rankadmm.weights:resolve", LEAF),
    Boundary("data_io.generate_synthetic", "rankadmm.data_io:generate_synthetic", LEAF),
    Boundary("data_io.standardize", "rankadmm.data_io:standardize", LEAF),
    Boundary("data_io.split", "rankadmm.data_io:split", LEAF),
    Boundary("harness.run_benchmark", "rankadmm.cli:run_benchmark", SPAN),
    Boundary("harness.run_cell", "rankadmm.harness:run_cell", SPAN),
    Boundary("harness.write_trace_csv", "rankadmm.harness:write_trace_csv", LEAF),
    Boundary("harness.read_trace_csv", "rankadmm.admm:read_trace_csv", LEAF),
    Boundary("baselines.sgd_solve", "rankadmm.harness:sgd_solve", SPAN),
    Boundary("cli.cli_main", "rankadmm.cli:cli_main", SPAN),
)


@dataclass
class Span:
    name: str
    phase: str
    t0: int
    t1: int
    child_ns: int
    span_id: int
    parent_id: int | None
    thread: int
    attrs: dict | None
    cpu_ns: int  # CPU time of the recording thread during the span

    @property
    def dur(self) -> int:
        return self.t1 - self.t0

    @property
    def self_ns(self) -> int:
        return self.dur - self.child_ns


class _ThreadRecord:
    def __init__(self):
        self.thread = threading.get_ident()
        self.stack: list[list[int]] = []  # open spans: [span_id, child_ns]
        self.spans: list[Span] = []
        self.leaves: dict[tuple[str, str], list[int]] = {}  # (phase, name) -> [calls, ns]


def _resolve(target: str):
    """(owner, attr, original) or raise LookupError with the reason."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} cannot be imported ({exc})") from None
    *owners, attr = path.split(".")
    for part in owners:
        if not hasattr(owner, part):
            raise LookupError(f"{module_name} has no {part}")
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise LookupError(f"{module_name}:{'.'.join(owners + [attr])} does not exist")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs wrappers at the boundaries, keeps every record in memory.

    ``install(phase)`` wraps every boundary and tags what it records with
    the phase; ``uninstall()`` restores the originals.  Install and
    uninstall from one thread while no traced call is running.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.missing: dict[str, str] = {}  # target -> reason
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._counters: dict[tuple[str, str], itertools.count] = {}
        self.seen_solvers: weakref.WeakSet = weakref.WeakSet()

    # -- installation ----------------------------------------------------

    def install(self, phase: str) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        # Resolve every target before wrapping any: resolving may import a
        # module, which must bind the originals, not wrappers.
        resolved = []
        for b in self.boundaries:
            try:
                resolved.append((b, *_resolve(b.target)))
            except LookupError as exc:
                self.missing[b.target] = str(exc)
        for b, owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(b, phase, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def absent(self) -> dict[str, str]:
        """Boundary names none of whose targets exist, with the reasons."""
        out: dict[str, str] = {}
        for name in {b.name for b in self.boundaries}:
            targets = [b.target for b in self.boundaries if b.name == name]
            if all(t in self.missing for t in targets):
                out[name] = "; ".join(self.missing[t] for t in targets)
        return out

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadRecord()
            self._local.rec = rec
            with self._lock:
                self._records.append(rec)
        return rec

    def _wrap(self, b: Boundary, phase: str, fn):
        if b.kind == COUNT:
            counter = self._counters.setdefault((phase, b.name), itertools.count())

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

            return counted

        if b.kind == LEAF:
            key = (phase, b.name)

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter_ns() - t0
                    rec = self._record()
                    tot = rec.leaves.get(key)
                    if tot is None:
                        tot = rec.leaves[key] = [0, 0]
                    tot[0] += 1
                    tot[1] += dt
                    if rec.stack:
                        rec.stack[-1][1] += dt

            return leaf

        name, attrs = b.name, b.attrs

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = self._record()
            parent = rec.stack[-1][0] if rec.stack else None
            frame = [next(self._ids), 0]
            rec.stack.append(frame)
            c0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                cpu = time.thread_time_ns() - c0
                rec.stack.pop()
                if rec.stack:
                    rec.stack[-1][1] += t1 - t0
            # Only completed calls are recorded; a raising call's time stays
            # in its parent's children.
            extra = attrs(self, args, result) if attrs else None
            rec.spans.append(Span(name, phase, t0, t1, frame[1], frame[0], parent,
                                  rec.thread, extra, cpu))
            return result

        return span

    # -- reading ---------------------------------------------------------

    def spans(self, *names: str, phase: str | None = None) -> list[Span]:
        with self._lock:
            records = list(self._records)
        out = [
            s for rec in records for s in rec.spans
            if (not names or s.name in names) and (phase is None or s.phase == phase)
        ]
        out.sort(key=lambda s: s.t0)
        return out

    def leaf(self, name: str, phase: str | None = None) -> tuple[int, int]:
        """(calls, total ns) of a leaf timer."""
        calls = total = 0
        with self._lock:
            records = list(self._records)
        for rec in records:
            for (ph, nm), (c, ns) in rec.leaves.items():
                if nm == name and (phase is None or ph == phase):
                    calls += c
                    total += ns
        return calls, total

    def write(self, path) -> None:
        """One JSON object per line: every span, then leaf and counter totals."""
        with open(path, "w") as fh:
            for sp in self.spans():
                fh.write(json.dumps({
                    "span": sp.name, "phase": sp.phase, "start_ns": sp.t0, "end_ns": sp.t1,
                    "self_ns": sp.self_ns, "cpu_ns": sp.cpu_ns, "id": sp.span_id,
                    "parent": sp.parent_id, "thread": sp.thread, "attrs": sp.attrs,
                }) + "\n")
            with self._lock:
                records = list(self._records)
            for rec in records:
                for (phase, name), (calls, ns) in rec.leaves.items():
                    fh.write(json.dumps({"leaf": name, "phase": phase, "thread": rec.thread,
                                         "calls": calls, "total_ns": ns}) + "\n")
            for phase, name in self._counters:
                fh.write(json.dumps({"counter": name, "phase": phase,
                                     "calls": self.count(name, phase)}) + "\n")

    def count(self, name: str, phase: str | None = None) -> int:
        total = 0
        for (ph, nm), counter in self._counters.items():
            if nm == name and (phase is None or ph == phase):
                total += int(repr(counter)[len("count("):-1])  # read without advancing
        return total
