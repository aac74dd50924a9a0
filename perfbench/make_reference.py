#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the final objective and outer
iteration count of every workload for seeds 0..N-1, as the checks in
workloads.py compare them.

    python3 perfbench/make_reference.py --seeds 60

Run from the root of a source checkout.  Only regenerate when the solver's
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seeds", type=int, default=60)
    args = p.parse_args(argv)
    out: dict = {}
    run.pin_environment("sweep")  # the sweep's thread setting; solves ignore it
    run.import_package()
    import rankadmm.cli
    import workloads as wl

    for name in wl.SOLVE_WORKLOADS:
        objectives, iters = {}, set()
        for seed in range(args.seeds):
            inputs = wl.build_solve(name, seed)
            result = inputs.solve()
            objectives[str(seed)] = inputs.problem.objective(result.w)
            iters.add(len(result.trace))
        if len(iters) != 1:
            raise SystemExit(f"{name}: iteration count varies across seeds: {sorted(iters)}")
        out[name] = {"iters": iters.pop(), "objective": objectives}
        print(name, "done", file=sys.stderr)

    work = run.ROOT / ".perfbench_run" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    cells: dict = {}
    try:
        for seed in range(args.seeds):
            plan_path = work / "plan.json"
            plan_path.write_text(json.dumps(wl.sweep_plan(seed)))
            with contextlib.redirect_stdout(sys.stderr):
                code = rankadmm.cli.cli_main(
                    ["benchmark", str(plan_path), "--out", str(work / "out")])
            summary = wl.read_summary(work / "out")
            if code != 0 or any(int(row["failures"]) for row in summary):
                raise SystemExit(f"sweep seed {seed}: exit {code}, summary {summary}")
            for row in summary:
                cells.setdefault(row["cell"], {})[str(seed)] = float(row["objective_mean"])
            shutil.rmtree(work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    out["sweep"] = {"objective_mean": cells}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
