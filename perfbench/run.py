"""tadlab benchmark: one workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {claims,configs,solve} --seed N \
        --seconds S --trace {0,1}

A run executes whole passes of the workload's fixed task list while another
pass still fits in ``--seconds`` (at least one). Before each pass it sets up
three times: a fresh import of tadlab from ``src/`` and the workload's
inputs; the median over the run is ``setup_s``. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead. Timings are medians over passes. End-to-end
times are in seconds at a fixed reference speed of the machine (see
``speedclock.py``); per-layer span times are raw.

It prints an environment record with the raw median times, then as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Without
``src/tadlab`` (or, for ``configs``, the ``configs/`` directory) it exits 1
and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from envinfo import environment
from speedclock import SpeedClock
from tracer import Tracer, layer_metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}
PER_LAYER_UNITS = {**layer_metric_units(), "trace_overhead_s": "s"}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


def import_tadlab():
    """A fresh import of tadlab and tadlab.cli from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "tadlab" / "__init__.py").is_file():
        raise SetupError(f"no tadlab package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "tadlab" or n.startswith("tadlab.")]:
        del sys.modules[name]
    tadlab = importlib.import_module("tadlab")
    importlib.import_module("tadlab.cli")
    if not Path(tadlab.__file__).resolve().is_relative_to(src):
        raise SetupError(f"tadlab was imported from {tadlab.__file__}, not {src}")
    return tadlab


def _pass(workload, tadlab, traced):
    tracer = Tracer() if traced else None
    with SpeedClock() as clock:
        if tracer is None:
            checks = workload.run_pass(tadlab)
        else:
            with tracer:
                checks = workload.run_pass(tadlab, tracer)
    for check in checks:
        if not check.ok:
            print(f"FAILED {check.label}: {check.detail}", file=sys.stderr)
    wall, cpu, ref_wall, ref_cpu = clock.totals()
    return {"traced": traced, "wall": wall, "cpu": cpu, "ref_wall": ref_wall,
            "ref_cpu": ref_cpu, "checks": checks, "tracer": tracer}


def measure(workload, seconds, trace):
    """Set up, run passes for ``seconds``; return the result and raw medians.

    Each pass runs on a fresh set-up. Set-up is timed several times before
    every pass, so that the median spans the whole run like the pass times
    do, and is rescaled by the speed measured over the pass that follows:
    one set-up is too short for the speed clock to sample.
    """
    setups = []
    passes = []
    start = time.perf_counter()
    while True:
        walls = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            tadlab = import_tadlab()
            workload.build(tadlab)
            walls.append(time.perf_counter() - t0)
        p = _pass(workload, tadlab, traced=trace and len(passes) % 2 == 1)
        passes.append(p)
        setups += [{"wall": w, "ref_wall": w * p["ref_wall"] / p["wall"]} for w in walls]
        longest = max(p["wall"] for p in passes)
        if (len(passes) >= (2 if trace else 1)
                and time.perf_counter() - start + longest > seconds):
            break

    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(not c.ok for p in passes for c in p["checks"])
    if trace:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        per_pass = [p["tracer"].metrics() for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in layer_metric_units()}
        # counts repeat exactly from pass to pass; report them as integers
        values.update({name: round(values[name]) for name, unit in PER_LAYER_UNITS.items()
                       if unit in ("count", "bytes")})
        values["trace_overhead_s"] = (_median(traced, "ref_wall")
                                      - _median(untraced, "ref_wall"))
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        traced[0]["tracer"].write(
            OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.csv")
    else:
        values = {
            "wall_s": _median(passes, "ref_wall"),
            "cpu_s": _median(passes, "ref_cpu"),
            "setup_s": _median(setups, "ref_wall"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    raw = {"passes": len(passes), "wall_s": _median(passes, "wall"),
           "cpu_s": _median(passes, "cpu"), "setup_s": _median(setups, "wall")}
    return result, raw


def _median(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # numpy is imported once here so that every timed set-up repeat does the
    # same work: importing tadlab itself and building the inputs
    import numpy  # noqa: F401

    work_dir = OUT_DIR / f"work-{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](ROOT, args.seed, work_dir)
    try:
        result, raw = measure(workload, args.seconds, bool(args.trace))
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"environment": environment(ROOT, args.seed), "raw_medians": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
