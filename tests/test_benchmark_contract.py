"""The benchmark's traced run wraps package functions by name: every name
its tracer lists must still resolve, or ``perfbench/run.py --trace 1``
fails on start-up; and one traced execution must run to the end.  Every
workload's command line must pass the program's config checks, and every
config key must be documented."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from nsdarcy import cli
from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import build_rectangle_mesh

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


def test_traced_solve_runs_end_to_end(tmp_path):
    # one traced execution reads what the tracer reads off the package
    root = TRACER.parents[1]
    record, spans = tmp_path / "record.json", tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"),
         "--record", str(record), "--spawned-at", repr(time.monotonic()),
         "--spans", str(spans), "--", "solve", "--mesh", "builtin:2x4",
         "--out", str(tmp_path / "out")],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(record.read_text())["per_layer"]
    space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
    assert metrics["solver.dofs"] == space.num_total_dofs == 39
    assert metrics["fem.CoupledSpace.calls"] == 1
    assert metrics["linalg.splu.calls"] > 0


def test_every_workload_invocation_is_accepted(tmp_path, monkeypatch):
    # load the module only: run.py puts its own directory on sys.path to
    # import the tracer, and runs nothing unless it is the main program
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", TRACER.parent / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.WORKLOADS
    for name, argv in run.WORKLOADS.items():
        # run.py adds --seed and --out to every workload
        args = cli.build_parser().parse_args(
            argv + ["--seed", "1", "--out", str(tmp_path / name)])
        assert cli.load_config(args)["seed"] == 1


def test_every_config_key_is_in_the_readme():
    readme = (TRACER.parents[1] / "README.md").read_text()
    assert [key for key in cli.KEYS if f"`{key}`" not in readme] == []
