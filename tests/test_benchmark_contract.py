"""The benchmark's traced run wraps package functions by name: every name
its tracer lists must still resolve, or ``perfbench/run.py --trace 1``
fails on start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_package_function_resolves():
    # load the module only: install() would rebind scipy in this process
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}"
               for _, module, attr in tracer._PACKAGE_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
