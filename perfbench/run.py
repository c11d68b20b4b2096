"""Benchmark of the nsdarcy command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of the repository (the program is
imported from ``src/``).  Each execution of a workload is a fresh Python
process (``child.py``) that runs ``nsdarcy.cli.main`` once, closed loop:
one execution at a time, BLAS threads pinned in the child's environment.

``--trace 0`` (timed run): measures set-up time in separate processes, then
repeats the workload until ``--seconds`` have passed or the next execution
would not end within them (at least one execution), and reports the median
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` over the executions and the median
``setup_s`` over every process.

``--trace 1`` (traced run): one untraced execution and two traced ones.
It reports the per-layer metrics (medians of the two traced executions for
times), checks that all three wrote byte-identical files and that the
counts named in ``tracer.EXACT_COUNTS`` repeat exactly.

Every execution's files are checked against ``reference/<workload>.json``.
The last line of standard output is the result as one JSON object; the
metric names and units come from ``BENCHMARK.json``.  Working files go to
``.perfbench_out/`` in the current directory.
"""

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402

# name -> nsdarcy arguments; the run adds --seed and --out
WORKLOADS = {
    # one large coupled solve (~23k dofs): SuperLU factorization dominates,
    # the inf-sup check is skipped above the dense cap, the VTK writer runs
    "solve-48x96": ["solve", "--mesh", "builtin:48x96", "--vtk"],
    # many small solves on a refinement chain: repeated dense inf-sup
    # eigensolves, spaces and meshes rebuilt per dataset, pointwise data
    "verify-L4": ["verify", "--mesh", "builtin:4x8", "--levels", "4"],
    # manufactured rate study: Dirichlet and interface-load solver path,
    # error norms and source callables, no inf-sup
    "mms-L4": ["mms", "--case", "smooth", "--mesh", "builtin:4x8",
               "--levels", "4"],
}

# one BLAS thread: on a 2-CPU host, mms-L4 ran 17% faster and with less
# run-to-run spread than with two, and the count does not depend on the host
BLAS_THREADS = 1
SETUP_SAMPLES = 5
EXEC_TIMEOUT_S = 170
OUT_ROOT = ".perfbench_out"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (e.g. no program to run)."""


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(run_dir, tag, env, cli_argv=None, traced=False):
    """Run one child process; ``cli_argv=None`` only imports the program.

    Returns the child's record plus its exit code, CPU time and peak RSS
    (from the kernel's accounting of the reaped child), and its directory.
    """
    work = os.path.join(run_dir, tag)
    os.makedirs(work)
    record_path = os.path.join(work, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--record", record_path]
    if traced:
        cmd += ["--spans", os.path.join(work, "spans.json")]
    if cli_argv is None:
        cmd.append("--setup-only")
    with open(os.path.join(work, "log.txt"), "w") as log:
        spawned_at = time.monotonic()
        extra = ["--spawned-at", repr(spawned_at)]
        if cli_argv is not None:
            extra += ["--", *cli_argv, "--out", os.path.join(work, "out")]
        proc = subprocess.Popen(cmd + extra, env=env, cwd=work,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(EXEC_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    record.update(dir=work, process_exit=proc.returncode,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return record


def check_execution(workload, record):
    """Problems with one execution: exit code, then reference outputs."""
    if record["process_exit"] != 0 or "wall_s" not in record:
        return [f"exit code {record['process_exit']}"]
    return reference.check_outputs(workload, os.path.join(record["dir"],
                                                          "out"))


def _same_files(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return not mismatch and not errors


def _setup_samples(run_dir, env):
    # the first import fills the bytecode cache; users do not pay it per run
    first = spawn(run_dir, "setup-warm", env)
    if first["process_exit"] != 0:
        raise BenchmarkError("the program does not import; see "
                             f"{os.path.join(first['dir'], 'log.txt')}")
    return [spawn(run_dir, f"setup-{k}", env)["setup_s"]
            for k in range(SETUP_SAMPLES)]


def timed_run(workload, cli_argv, seconds, run_dir, env):
    setups = _setup_samples(run_dir, env)
    deadline = time.monotonic() + seconds
    executions = []
    while True:
        start = time.monotonic()
        executions.append(spawn(run_dir, f"exec-{len(executions)}", env,
                                cli_argv))
        now = time.monotonic()
        if now + (now - start) > deadline:
            break
    for ex in executions:
        ex["problems"] = check_execution(workload, ex)
    done = [ex for ex in executions if "wall_s" in ex]
    if not done:
        raise BenchmarkError("no execution completed; see "
                             f"{os.path.join(executions[0]['dir'], 'log.txt')}")
    setups += [ex["setup_s"] for ex in done]
    metrics = {name: statistics.median(ex[name] for ex in done)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return executions, metrics


def traced_run(workload, cli_argv, run_dir, env):
    plain = spawn(run_dir, "exec-untraced", env, cli_argv)
    traced = [spawn(run_dir, f"exec-traced-{k}", env, cli_argv, traced=True)
              for k in range(2)]
    executions = [plain] + traced
    for ex in executions:
        ex["problems"] = check_execution(workload, ex)
    if any("wall_s" not in ex for ex in executions):
        raise BenchmarkError("an execution did not complete; see the logs "
                             f"under {run_dir}")
    plain_out = os.path.join(plain["dir"], "out")
    for ex in traced:
        if not _same_files(plain_out, os.path.join(ex["dir"], "out")):
            ex["problems"].append("traced outputs differ from untraced")
    first, second = (ex["per_layer"] for ex in traced)
    for name in tracer.EXACT_COUNTS:
        if first[name] != second[name]:
            traced[1]["problems"].append(
                f"{name} not exact: {first[name]} then {second[name]}")
    metrics = {name: (statistics.median([first[name], second[name]])
                      if name.endswith("self_s") else first[name])
               for name in first}
    metrics["trace.overhead_frac"] = (
        statistics.median(ex["wall_s"] for ex in traced) / plain["wall_s"]
        - 1.0)
    return executions, metrics


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "nsdarcy")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nsdarcy", "cli.py")):
        print("no program to benchmark: src/nsdarcy/cli.py is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = os.path.abspath(os.path.join(
        OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                  f"-{os.getpid()}"))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = _child_env(root)
    cli_argv = WORKLOADS[args.workload] + ["--seed", str(args.seed)]
    try:
        if args.trace:
            executions, measured = traced_run(args.workload, cli_argv,
                                              run_dir, env)
        else:
            executions, measured = timed_run(args.workload, cli_argv,
                                             args.seconds, run_dir, env)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for ex in executions if ex["problems"])
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0, "attempted": len(executions),
              "failed": failed, "metrics": metrics}
    env_record = environment(root, args.seed)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "environment": env_record,
                   "executions": executions, "measured": measured,
                   "result": result}, fh, indent=1)
    for ex in executions:
        shutil.rmtree(os.path.join(ex["dir"], "out"), ignore_errors=True)
        for problem in ex["problems"]:
            print(f"FAIL {os.path.basename(ex['dir'])}: {problem}")

    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"{args.workload}: {len(executions)} executions, "
          f"fail_frac {failed / len(executions)!r}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
