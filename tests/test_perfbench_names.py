"""The benchmark's harness still fits the package it measures.

`perfbench/tracer.py` replaces the names in its `TRACED` table on their
`tadlab` modules; a traced name that is deleted or renamed breaks the
benchmark's traced pass. Its step counter reads `result[1].step[-1]` off
each descent's trace, `ReplicaTraces.step` for a stacked run, which no
code in the package reads. `perfbench/workloads.py` calls public `tadlab`
names with fixed arguments; a call the package no longer takes fails the
benchmark's checks. These load each harness file by path, without the rest
of the harness, and check it here instead.
"""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import tadlab
import tadlab.cli  # noqa: F401  (the workloads call tadlab.cli.main)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def test_every_traced_name_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tadlab.{module}"), name, None))]
    assert tracer.TRACED and missing == []


def test_every_workload_passes_its_small_pass(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    failed = []
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(ROOT, 0, tmp_path / name, small=True)
        workload.build(tadlab)
        checks = workload.run_pass(tadlab)
        assert checks, name
        failed += [f"{name}: {c.label}: {c.detail}" for c in checks if not c.ok]
    assert not failed, "\n".join(failed)


def test_the_step_counter_reads_the_last_step_of_a_stacked_and_a_flat_run():
    # the tracer adds `result[1].step[-1]` after every run_mapg and gd_run;
    # a stacked run returns a ReplicaTraces, whose `step` the package never reads
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    extra, count = tracer.COUNTERS["learners.run_mapg"]
    assert extra == {"steps": "count"}
    game = tadlab.builtin_game("table1")
    logits = np.random.default_rng(0).normal(size=(3, 2, 1, 3))
    counts = collections.Counter()
    for params in (tadlab.MapgParams(logits), tadlab.MapgParams(logits[0])):
        result = tadlab.run_mapg(game, params, lr=0.1, steps=30, log_every=10)
        count(counts, "learners.run_mapg", (game, params), {}, result)
    assert isinstance(result[1], tadlab.TrainTrace)
    assert counts == {"learners.run_mapg.steps": 60}
