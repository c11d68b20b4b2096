"""Run ten fixed CLI commands in two source trees and compare what they
leave: the output files byte for byte, stdout and stderr (with the output
directory replaced by ``<out>``) and the exit codes.

Each command runs as ``python3 -m nsdarcy.cli ... --out DIR`` with the
tree's ``src`` on ``PYTHONPATH`` and one BLAS thread, one command at a
time, twice: on the CPUs this process may use, where the command forks a
worker, and pinned to one CPU, where it runs its checks inline.  ``{name}``
in a command is the path of a config file holding ``CONFIGS[name]``.  One
line is printed per command and CPU setting; the exit status is 1 if any
run differs.  Gates nothing.

Usage, from the repository root:
``python3 tools/same_outputs.py PARENT [CHANGE]``, where PARENT and CHANGE
are source trees (CHANGE defaults to this repository).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "solve --mesh builtin:48x96 --vtk",
    "verify --mesh builtin:4x8 --levels 4 --seed 1",
    "mms --case smooth --mesh builtin:4x8 --levels 4",
    "solve --case representable --mesh builtin:16x32",
    "mms --case representable --mesh builtin:4x8 --levels 3",
    "solve --case smooth --vtk",
    "verify --mesh builtin:2x4 --levels 2 --unstable-pair",
    "solve --mesh builtin:8x16 --no-convection",
    # the compensation sweep reuses the viscous dataset's solves
    "verify --levels 3 --config {viscous}",
    "verify --mesh builtin:2x4 --levels 1",
]

CONFIGS = {"viscous": {"nu": 0.5, "K": 2.0}}

ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(tree, command, out, pinned):
    """(exit code, stdout, stderr, {relative path: bytes}) of ``command``,
    on one CPU if ``pinned``."""
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "nsdarcy.cli", *command.split(),
                           "--out", str(out)], cwd=tree, env=env,
                          capture_output=True, text=True,
                          preexec_fn=_one_cpu if pinned else None)
    files = {str(path.relative_to(out)): path.read_bytes()
             for path in sorted(out.rglob("*")) if path.is_file()}
    return (proc.returncode, proc.stdout.replace(str(out), "<out>"),
            proc.stderr.replace(str(out), "<out>"), files)


def differences(a, b):
    """The names of the parts in which two runs differ."""
    code_a, out_a, err_a, files_a = a
    code_b, out_b, err_b, files_b = b
    found = [f"exit {code_a} vs {code_b}"] if code_a != code_b else []
    found += ["stdout"] * (out_a != out_b) + ["stderr"] * (err_a != err_b)
    found += [name for name in sorted(set(files_a) | set(files_b))
              if files_a.get(name) != files_b.get(name)]
    return found


def main(argv):
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    trees = [Path(argv[0]).resolve(),
             Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1]).resolve()]
    scratch = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    failed = False
    try:
        configs = {name: scratch / f"{name}.json" for name in CONFIGS}
        for name, path in configs.items():
            path.write_text(json.dumps(CONFIGS[name]))
        for k, command in enumerate(COMMANDS):
            for pinned in (False, True):
                runs = [run(tree, command.format(**configs),
                            scratch / f"{side}{k}{'p' * pinned}", pinned)
                        for side, tree in zip(("parent", "change"), trees)]
                found = differences(*runs)
                failed |= bool(found)
                status = f"DIFFERENT ({', '.join(found)})" if found else "same"
                print(f"{status}: exit {runs[0][0]}, {len(runs[0][3])} files: "
                      f"{command}{' (one CPU)' * pinned}", flush=True)
    finally:
        shutil.rmtree(scratch)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
