"""Independent jobs in forked workers: ``workers.run_jobs`` returns what
running the jobs inline returns, raises what they would raise, and leaves
no process behind; the commands write the same bytes either way."""

import functools
import os
import signal
import threading

import pytest

from nsdarcy import analysis, mms, workers
from nsdarcy.cli import EXIT_OK, EXIT_SOLVER, EXIT_VERIFICATION, main
from nsdarcy.fem import SingularLinearSystem
from nsdarcy.solver import NonConvergence


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the process may use, as ``run_jobs`` sees it,
    and count the workers it forks."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counting)

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
        forks.clear()
        return forks
    return use


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _fail(exc_type, message):
    raise exc_type(message)


class TestRunJobs:
    def test_results_in_job_order_with_the_first_job_at_home(self, cpus):
        forks = cpus(3)
        pids = workers.run_jobs([os.getpid] * 5)
        # job 0 in the caller; jobs 1..4 dealt round-robin to two workers
        assert len(forks) == 2
        assert pids[0] == os.getpid()
        assert pids[1] == pids[3] != pids[2] == pids[4]
        assert os.getpid() not in pids[1:]
        assert workers.run_jobs([functools.partial(pow, 2, k)
                                 for k in range(6)]) == [1, 2, 4, 8, 16, 32]
        assert no_child_is_left()

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_one_cpu_or_few_jobs_run_inline(self, cpus, count):
        forks = cpus(1 if count == 2 else 4)
        assert workers.run_jobs([os.getpid] * count) == [os.getpid()] * count
        assert forks == []

    def test_a_process_with_other_threads_runs_inline(self, cpus):
        forks = cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert workers.run_jobs([os.getpid] * 3) == [os.getpid()] * 3
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    def test_the_first_failing_job_in_list_order_is_raised(self, cpus):
        cpus(3)
        jobs = [os.getpid, functools.partial(_fail, ValueError, "first"),
                functools.partial(_fail, KeyError, "second")]
        with pytest.raises(ValueError, match="first"):
            workers.run_jobs(jobs)
        assert no_child_is_left()

    def test_a_failure_at_home_is_raised_and_the_workers_reaped(self, cpus):
        cpus(2)
        jobs = [functools.partial(_fail, SingularLinearSystem, "home"),
                functools.partial(signal.pause)]
        with pytest.raises(SingularLinearSystem, match="home"):
            workers.run_jobs(jobs)
        assert no_child_is_left()

    def test_a_result_that_does_not_pickle_loses_its_worker(self, cpus):
        cpus(2)
        with pytest.raises(workers.WorkerLost,
                           match=r"job <lambda>\(\) ended without a result: "
                                 "its worker exited with status 1"):
            workers.run_jobs([os.getpid, lambda: lambda: None])
        assert no_child_is_left()


# ---------------------------------------------------------------------------
# the commands, inline and forked
# ---------------------------------------------------------------------------

def _run(tmp_path, tag, argv, capsys):
    out = tmp_path / tag
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
             if out.exists() else {})
    return (code, captured.out.replace(str(out), "OUT"),
            captured.err.replace(str(out), "OUT"), files)


@pytest.mark.parametrize("argv", [
    ["solve", "--mesh", "builtin:2x4"],
    ["solve", "--mesh", "builtin:2x4", "--vtk"],
    ["solve", "--case", "smooth"],
    ["solve", "--case", "representable"],
    ["verify", "--mesh", "builtin:2x4", "--levels", "1"],
    ["verify", "--levels", "3"],
    ["verify", "--mesh", "builtin:2x4", "--levels", "2", "--unstable-pair"],
    ["mms", "--case", "smooth"],
    ["mms", "--case", "representable"]],
    ids=["solve", "solve-vtk", "solve-smooth", "solve-representable",
         "verify-1", "verify-3", "verify-unstable", "mms-smooth",
         "mms-representable"])
def test_forked_outputs_are_byte_identical_to_inline(tmp_path, capsys, cpus,
                                                     argv):
    forks = cpus(1)
    inline = _run(tmp_path, "inline", argv, capsys)
    assert forks == []
    forks = cpus(2)
    forked = _run(tmp_path, "forked", argv, capsys)
    assert forks
    assert inline[0] in (EXIT_OK, EXIT_VERIFICATION)
    assert forked == inline
    assert no_child_is_left()


def _coarse_only(original):
    # fails on every level but the finest of a 2-level study, which runs
    # in the caller
    def errors(space, case, state):
        if space.mesh.num_triangles < 100:
            raise SingularLinearSystem("coarse level: injected")
        return original(space, case, state)
    return errors


@pytest.mark.parametrize("argv, owner, name, replacement", [
    (["verify", "--mesh", "builtin:2x4", "--levels", "1"], analysis,
     "check_uniqueness",
     lambda *a, **k: _fail(SingularLinearSystem, "uniqueness: injected")),
    (["verify", "--mesh", "builtin:2x4", "--levels", "1"], analysis,
     "compute_inf_sup",
     lambda *a, **k: _fail(NonConvergence, "inf-sup: injected")),
    (["solve", "--mesh", "builtin:2x4"], analysis, "verify_energy_estimate",
     lambda *a, **k: _fail(NonConvergence, "energy: injected")),
    (["solve", "--mesh", "builtin:2x4"], analysis, "compensation_residual",
     lambda *a, **k: _fail(SingularLinearSystem, "companion: injected")),
    (["mms", "--case", "representable", "--levels", "2"], mms,
     "solution_errors", _coarse_only(mms.solution_errors))],
    ids=["verify-singular", "verify-nonconvergence", "solve-nonconvergence",
         "solve-home", "mms-singular"])
def test_a_failing_job_fails_the_command_as_inline(
        tmp_path, capsys, cpus, monkeypatch, argv, owner, name, replacement):
    monkeypatch.setattr(owner, name, replacement)
    cpus(1)
    inline = _run(tmp_path, "inline", argv, capsys)
    forks = cpus(2)
    forked = _run(tmp_path, "forked", argv, capsys)
    assert forks
    assert inline[0] == EXIT_SOLVER
    assert "injected" in inline[2] and "Traceback" not in inline[2]
    assert forked == inline
    assert forked[3] == {}  # no output files
    assert no_child_is_left()


def test_a_killed_worker_is_a_quiet_solver_failure(tmp_path, capsys, cpus,
                                                   monkeypatch):
    home = os.getpid()

    def killed(*args, **kwargs):
        assert os.getpid() != home, "the job ran in the test process"
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(analysis, "check_uniqueness", killed)
    cpus(2)
    code, _, err, files = _run(
        tmp_path, "run", ["verify", "--mesh", "builtin:2x4", "--levels", "1"],
        capsys)
    assert code == EXIT_SOLVER
    assert ("solver failure: job uniqueness() ended without a result: its "
            f"worker was killed by signal {int(signal.SIGKILL)}") in err
    assert "Traceback" not in err
    assert files == {}
    assert not (tmp_path / "run").exists()
    assert no_child_is_left()


def test_an_unexpected_error_leaves_no_child(tmp_path, cpus, monkeypatch):
    # an error no exit code maps escapes main, from a worker or from home,
    # with its type, and every worker is reaped first
    cpus(2)
    monkeypatch.setattr(analysis, "check_uniqueness",
                        lambda *a, **k: _fail(ZeroDivisionError, "worker"))
    with pytest.raises(ZeroDivisionError, match="worker"):
        main(["verify", "--mesh", "builtin:2x4", "--levels", "1",
              "--out", str(tmp_path / "a")])
    assert no_child_is_left()
    monkeypatch.setattr(analysis, "compensation_residual",
                        lambda *a, **k: _fail(ZeroDivisionError, "home"))
    with pytest.raises(ZeroDivisionError, match="home"):
        main(["solve", "--mesh", "builtin:2x4", "--out", str(tmp_path / "b")])
    assert no_child_is_left()
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
