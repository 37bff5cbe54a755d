"""The benchmark's harness still fits the package it measures.

`perfbench/tracer.py` replaces the names in its `TRACED` table on their
`tadlab` modules; a traced name that is deleted or renamed breaks the
benchmark's traced pass. `perfbench/workloads.py` calls public `tadlab`
names with fixed arguments; a call the package no longer takes fails the
benchmark's checks. These load each harness file by path, without the rest
of the harness, and check it here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
