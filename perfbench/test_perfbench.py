"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Reduced-size passes keep most of these fast; the pinned seed-0 counts run
the full-size solve models once (about 20 s).
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracer import TRACED, Tracer, layer_metric_units
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(name, tmp_path, seed=0):
    workload = WORKLOADS[name](run.ROOT, seed, tmp_path / name, small=True)
    workload.build(run.import_tadlab())
    return workload


def _bindings():
    """Every (module, name) -> object a tracer would replace."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "tadlab" or mod_name.startswith("tadlab."):
            for names in TRACED.values():
                for name in names:
                    if name in module.__dict__:
                        out[(mod_name, name)] = module.__dict__[name]
    return out


def test_benchmark_json_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in BENCHMARK["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema_is_pinned(tmp_path, trace, section):
    result, _ = run.measure(_small("solve", tmp_path), seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_passes_gate(tmp_path, name):
    result, _ = run.measure(_small(name, tmp_path), seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pass_rate"]["value"] == 1.0
    assert all(result["metrics"][m]["value"] > 0 for m in ("wall_s", "cpu_s", "setup_s"))


def test_tracer_restores_every_wrapped_name(tmp_path):
    workload = _small("configs", tmp_path)
    tadlab = sys.modules["tadlab"]
    before = _bindings()
    assert all(c.ok for c in workload.run_pass(tadlab))
    with Tracer() as tracer:
        assert any(_bindings()[k] is not v for k, v in before.items())
        traced_checks = workload.run_pass(tadlab, tracer)
    assert all(_bindings()[k] is v for k, v in before.items())
    after_checks = workload.run_pass(tadlab)
    # the third pass's outputs must be byte-identical to the first pass's
    assert all(c.ok for c in traced_checks + after_checks), [
        c for c in traced_checks + after_checks if not c.ok]


class _UnknownSolver(WORKLOADS["solve"]):
    def build(self, tadlab):
        super().build(tadlab)
        name, model, _ = self.cases[0]
        self.cases = ((name, model, ({"sarl": "no_such_solver"},)),)


def test_raised_exception_is_a_failed_check(tmp_path):
    workload = _UnknownSolver(run.ROOT, 0, tmp_path, small=True)
    result, _ = run.measure(workload, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["pass_rate"]["value"] == 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_counts_repeat_exactly(tmp_path, name):
    counted = [m for m, unit in layer_metric_units().items() if unit in ("count", "bytes")]
    runs = []
    for i in range(2):
        workload = _small(name, tmp_path / str(i))
        tadlab = sys.modules["tadlab"]
        with Tracer() as tracer:
            workload.run_pass(tadlab, tracer)
        runs.append({m: tracer.metrics()[m] for m in counted})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_seed0_solve_counts():
    tadlab = run.import_tadlab()
    workload = WORKLOADS["solve"](run.ROOT, 0, None)
    workload.build(tadlab)
    (_, mmdp, _), (_, game, _) = workload.cases
    sweeps = []
    for call in (lambda: tadlab.tad_run(mmdp, sarl="vi"),
                 lambda: tadlab.brute_force_optimal(mmdp)):
        with Tracer() as tracer:
            call()
        sweeps.append(tracer.metrics()["core.optimal_values.sweeps"])
    assert sweeps == [6871, 2291]
    with Tracer() as tracer:
        tadlab.tad_run(game, sarl="q_learning", seed=0)
    assert tracer.metrics()["core.episode_positions.calls"] == 200
