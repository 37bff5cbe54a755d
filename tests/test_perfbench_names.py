"""Every function the benchmark's span tracer wraps still exists.

`perfbench/tracer.py` replaces the names in its `TRACED` table on their
`tadlab` modules; a traced name that is deleted or renamed breaks the
benchmark's traced pass. This loads the tracer by path, without importing
the rest of the harness, and checks each name here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_on_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tadlab.{module}"), name, None))]
    assert tracer.TRACED and missing == []
