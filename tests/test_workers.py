"""Independent jobs in forked workers: ``workers.Jobs`` and
``workers.run_jobs`` return what running the jobs inline returns, raise
what they would raise, and leave no process behind; the commands write the
same bytes either way."""

import functools
import gc
import itertools
import os
import signal
import threading
import time
import weakref

import pytest

from nsdarcy import analysis, fem, mms, solver, workers
from nsdarcy.cli import EXIT_OK, EXIT_SOLVER, EXIT_VERIFICATION, main
from nsdarcy.fem import SingularLinearSystem
from nsdarcy.mesh import build_rectangle_mesh, dump_mesh
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


def _two_phase(tag, log):
    """A two-phase job that appends each phase's tag, name and pid to the
    file ``log``, the second once it has the first value, and returns (tag,
    the pid of each phase, that value)."""
    def first():
        with open(log, "a") as fh:
            fh.write(f"{tag} first {os.getpid()}\n")
        first_pid = os.getpid()

        def finish(values):
            value = next(values)
            with open(log, "a") as fh:
                fh.write(f"{tag} second {os.getpid()}\n")
            return tag, first_pid, os.getpid(), value
        return finish
    return first


class TestJobs:
    def test_first_phases_run_in_a_worker_during_the_step(self, cpus,
                                                          tmp_path):
        forks = cpus(2)
        log = tmp_path / "log"
        with workers.Jobs([_two_phase(tag, log) for tag in "ab"]) as started:
            # the step: wait until both first phases have run
            for _ in range(1000):
                if log.exists() and log.read_text().count("first") == 2:
                    break
                time.sleep(0.01)
            assert "second" not in log.read_text()
            started.send({"state": 1})
            results = started.results()
        assert len(forks) == 1
        worker = results[0][1]
        assert worker != os.getpid()
        assert results == [(tag, worker, worker, {"state": 1})
                           for tag in "ab"]
        assert log.read_text().splitlines() == [
            f"{tag} {phase} {worker}" for phase, tag in
            [("first", "a"), ("first", "b"), ("second", "a"),
             ("second", "b")]]
        assert no_child_is_left()

    def test_inline_each_job_runs_both_phases_after_the_step(self, cpus,
                                                            tmp_path):
        forks = cpus(1)
        log = tmp_path / "log"
        with workers.Jobs([_two_phase(tag, log) for tag in "ab"]) as started:
            assert not log.exists()
            started.send(7)
            results = started.results()
        home = os.getpid()
        assert forks == []
        assert results == [("a", home, home, 7), ("b", home, home, 7)]
        assert log.read_text().splitlines() == [
            f"a first {home}", f"a second {home}", f"b first {home}",
            f"b second {home}"]

    def test_a_first_phase_failure_is_raised_after_the_jobs_before_it(
            self, cpus, tmp_path):
        cpus(2)
        log = tmp_path / "log"
        jobs = [_two_phase("a", log),
                functools.partial(_fail, KeyError, "first phase")]
        with workers.Jobs(jobs) as started:
            started.send(1)
            with pytest.raises(KeyError, match="first phase"):
                started.results()
        # the worker ran the first job's second phase before reporting
        assert [line.split()[:2] for line in log.read_text().splitlines()] \
            == [["a", "first"], ["a", "second"]]
        assert no_child_is_left()

    def test_a_failing_step_kills_the_workers(self, cpus):
        forks = cpus(3)
        with pytest.raises(ZeroDivisionError):
            with workers.Jobs([functools.partial(signal.pause)] * 2):
                1 / 0
        assert len(forks) == 2
        assert no_child_is_left()

    def test_a_failed_fork_leaves_its_share_to_the_caller(
            self, cpus, monkeypatch, tmp_path):
        # three CPUs, two workers: the second fork fails, so jobs b and d
        # run in the caller after the step, as inline
        cpus(3)
        monkeypatch.setattr(os, "fork", _failing_fork(os.fork, 2))
        log = tmp_path / "log"
        jobs = [_two_phase(tag, log) for tag in "abcd"]
        with workers.Jobs(jobs) as started:
            _wait_for(log, "first", 2)
            assert "b first" not in log.read_text()
            started.send(5)
            results = started.results()
        home, worker = os.getpid(), results[0][1]
        assert worker != home
        assert results == [("a", worker, worker, 5), ("b", home, home, 5),
                           ("c", worker, worker, 5), ("d", home, home, 5)]
        assert no_child_is_left()

    def test_a_worker_lost_before_the_value_is_sent(self, cpus):
        cpus(2)
        with workers.Jobs([_die]) as started:
            # the worker has ended; it stays unreaped for results()
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            started.send(bytes(1 << 20))  # more than any pipe or socket buffer
            with pytest.raises(workers.WorkerLost,
                               match=r"job _die\(\) ended without a result: "
                                     "its worker was killed by signal "
                                     f"{int(signal.SIGKILL)}"):
                started.results()
        assert no_child_is_left()

    @pytest.mark.parametrize("where", ["step", "results"])
    def test_an_interrupt_leaves_no_child(self, cpus, where):
        cpus(2)

        def interrupt(signum, frame):
            raise KeyboardInterrupt
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                with workers.Jobs([lambda: lambda _: signal.pause()]) \
                        as started:
                    signal.setitimer(signal.ITIMER_REAL, 0.1)
                    if where == "step":
                        time.sleep(10)
                    started.send(None)
                    started.results()  # waits on the paused worker
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert no_child_is_left()


def _reading(count=None):
    """A job whose second phase returns the first ``count`` values sent,
    or every value with ``count`` None."""
    def first():
        return lambda values: list(itertools.islice(values, count))
    return first


def _logging_reads(log):
    """A job whose second phase appends "read" to the file ``log`` for each
    value it reads, and returns the values."""
    def first():
        def finish(values):
            seen = []
            for value in values:
                seen.append(value)
                with open(log, "a") as fh:
                    fh.write(f"read {value}\n")
            return seen
        return finish
    return first


def _waiting_for(marker):
    """A job whose first phase waits up to 10 s for the file ``marker``;
    its second phase returns the length of each value."""
    def first():
        for _ in range(1000):
            if marker.exists():
                return lambda values: [len(value) for value in values]
            time.sleep(0.01)
        raise TimeoutError("the marker was never made")
    return first


def _dying_after_one():
    def finish(values):
        next(values)
        _die()
    return finish


class TestStreamedValues:
    def test_no_send_waits_for_a_first_phase(self, cpus, tmp_path):
        # the first phase ends only once every value is sent: 1.2 MB, more
        # than a socket buffer holds unread
        forks = cpus(2)
        marker = tmp_path / "marker"
        with workers.Jobs([_waiting_for(marker)]) as started:
            for _ in range(4):
                started.send(bytes(300_000))
            marker.touch()
            assert started.results() == [[300_000] * 4]
        assert len(forks) == 1
        assert no_child_is_left()

    def test_second_phases_read_the_values_in_order(self, cpus):
        # two workers: the first runs jobs 0 and 2, which both read every
        # value, the second job 1, which reads the first only
        values = [{"k": k} for k in range(4)] + [bytes(500_000), None]
        jobs = [_reading(), _reading(1), _reading()]
        results = {}
        for count in (1, 3):
            forks = cpus(count)
            with workers.Jobs(jobs) as started:
                for value in values:
                    started.send(value)
                results[count] = started.results()
            assert len(forks) == count - 1
        assert results[3] == results[1] == [values, values[:1], values]
        assert no_child_is_left()

    def test_a_second_phase_reads_each_value_as_it_arrives(self, cpus,
                                                          tmp_path):
        cpus(2)
        log = tmp_path / "log"
        with workers.Jobs([_logging_reads(log)]) as started:
            for k in range(3):
                started.send(k)
                _wait_for(log, "read", k + 1)
            assert started.results() == [[0, 1, 2]]
        assert no_child_is_left()

    def test_a_worker_killed_mid_stream_is_lost(self, cpus):
        cpus(2)
        with workers.Jobs([_dying_after_one]) as started:
            started.send(1)
            # the worker has ended; it stays unreaped for results()
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            started.send(bytes(1 << 20))
            with pytest.raises(workers.WorkerLost,
                               match=r"job _dying_after_one\(\) ended without "
                                     "a result: its worker was killed by "
                                     f"signal {int(signal.SIGKILL)}"):
                started.results()
        assert no_child_is_left()


def _wait_for(log, phase, count):
    """Wait until the file ``log`` names ``phase`` ``count`` times."""
    for _ in range(1000):
        if log.exists() and log.read_text().count(phase) == count:
            return
        time.sleep(0.01)
    raise AssertionError(f"{count} {phase} phases never ran")


def _failing_fork(fork, failing):
    """``fork``, except that its ``failing``-th call raises OSError."""
    calls = []

    def fork_or_fail():
        calls.append(1)
        if len(calls) == failing:
            raise OSError("no process to spare")
        return fork()
    return fork_or_fail


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("path", ["success", "failing job", "failing step",
                                  "lost worker", "failed fork", "streamed"])
def test_no_descriptor_is_left_behind(cpus, monkeypatch, path):
    cpus(3)
    if path == "failed fork":
        monkeypatch.setattr(os, "fork", _failing_fork(os.fork, 1))
    jobs = {"success": [os.getpid] * 4, "failed fork": [os.getpid] * 4,
            "failing job": [os.getpid, functools.partial(_fail, KeyError, "")],
            "lost worker": [os.getpid, _die]}
    before = _open_descriptors()
    if path == "failing step":
        with pytest.raises(ZeroDivisionError):
            with workers.Jobs([functools.partial(signal.pause)] * 2):
                1 / 0
    elif path == "streamed":
        with workers.Jobs([_reading()] * 3) as started:
            for _ in range(3):
                started.send(bytes(300_000))
            assert started.results() == [[bytes(300_000)] * 3] * 3
    else:
        try:
            workers.run_jobs(jobs[path])
        except (KeyError, workers.WorkerLost):
            assert path in ("failing job", "lost worker")
    assert _open_descriptors() == before
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
    ["mms", "--case", "representable"],
    ["solve", "--mesh", "{wavy}", "--vtk"]],
    ids=["solve", "solve-vtk", "solve-smooth", "solve-representable",
         "verify-1", "verify-3", "verify-unstable", "mms-smooth",
         "mms-representable", "solve-wavy-vtk"])
def test_forked_outputs_are_byte_identical_to_inline(tmp_path, capsys, cpus,
                                                     interface_maps, argv):
    wavy = tmp_path / "wavy.txt"
    wavy.write_text(dump_mesh(interface_maps["wavy"](
        build_rectangle_mesh(4, 8, 1.0))))
    argv = [arg.format(wavy=wavy) for arg in argv]
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


# ---------------------------------------------------------------------------
# solve: the checks' first phases overlap the coupled solve
# ---------------------------------------------------------------------------

def _factor_doing(monkeypatch, action, log=None):
    """Route every ``fem._factor`` call through ``action(context)`` and, with
    ``log``, append the pid and the context (without its details) to that
    file, in whichever process builds the factor."""
    factor = fem._factor

    def wrapped(A, context, order=None):
        action(context)
        if log is not None:
            with open(log, "a") as fh:
                brief = context.split(" (")[0].rstrip("0123456789 ")
                fh.write(f"{os.getpid()} {brief}\n")
        return factor(A, context, order)
    for module in (fem, analysis):
        monkeypatch.setattr(module, "_factor", wrapped)


@pytest.mark.parametrize("count", [1, 2])
def test_the_worker_builds_every_factor_but_the_solves(tmp_path, cpus,
                                                       monkeypatch, count):
    # one CPU: every factor at home, each read before the next is built;
    # two: the worker forked before the solve builds the lifting and
    # strain factors while this process solves, then the rest of the checks
    log = tmp_path / "factors"
    _factor_doing(monkeypatch, lambda context: None, log)
    cpus(count)
    assert main(["solve", "--mesh", "builtin:2x4",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    by_pid = {}
    for line in log.read_text().splitlines():
        pid, context = line.split(" ", 1)
        by_pid.setdefault(int(pid), []).append(context)
    home = by_pid.pop(os.getpid())
    if count == 1:
        assert by_pid == {}
        assert home == ["coupled iteration", "lifting saddle system",
                        "companion solve", "fluid strain", "Darcy matrix"]
    else:
        assert home == ["coupled iteration"]
        assert list(by_pid.values()) == [[
            "lifting saddle system", "fluid strain", "companion solve",
            "Darcy matrix"]]
    assert no_child_is_left()


@pytest.mark.parametrize("count", [1, 2])
def test_the_lifting_factor_is_freed_before_the_companion_factor(
        tmp_path, cpus, monkeypatch, count):
    # in whichever process runs the companion job, the factor handed over
    # to the lifting is gone once the companion solve builds its own
    lifting, log = [], tmp_path / "checked"
    factor = fem._factor

    def checking(A, context, order=None):
        if context.startswith("companion"):
            gc.collect()
            assert [ref() for ref in lifting] == [None]
            log.write_text(str(os.getpid()))
        lu = factor(A, context, order)
        if context.startswith("lifting"):
            lifting.append(weakref.ref(lu))
        return lu
    for module in (fem, analysis):
        monkeypatch.setattr(module, "_factor", checking)
    cpus(count)
    assert main(["solve", "--mesh", "builtin:2x4",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert (int(log.read_text()) == os.getpid()) == (count == 1)
    assert no_child_is_left()


def _fail_in(prefix, exc_type):
    """A ``_factor_doing`` action that raises for contexts from ``prefix``."""
    def action(context):
        if context.startswith(prefix):
            raise exc_type(f"{prefix}: injected")
    return action


@pytest.mark.parametrize("where", ["solve", "fluid strain", "lifting"])
def test_a_failure_before_or_during_the_solve_is_as_inline(
        tmp_path, capsys, cpus, monkeypatch, where):
    # the solve's own failure wins over a worker that is still alive; a
    # first phase's failure is raised once the solve has returned
    solved = []
    if where == "solve":
        monkeypatch.setattr(solver, "solve_coupled", lambda *a, **k: _fail(
            NonConvergence, "solve: injected"))
    else:
        _factor_doing(monkeypatch, _fail_in(where, SingularLinearSystem))
        solve = solver.solve_coupled

        def solving(*args, **kwargs):
            state = solve(*args, **kwargs)
            solved.append(os.getpid())
            return state
        monkeypatch.setattr(solver, "solve_coupled", solving)
    argv = ["solve", "--mesh", "builtin:2x4"]
    cpus(1)
    inline = _run(tmp_path, "inline", argv, capsys)
    forks = cpus(2)
    forked = _run(tmp_path, "forked", argv, capsys)
    assert forks
    assert inline[0] == EXIT_SOLVER
    assert f"{where}: injected" in inline[2]
    assert "Traceback" not in inline[2]
    assert forked == inline
    assert forked[3] == {}
    assert solved == ([] if where == "solve" else [os.getpid()] * 2)
    assert no_child_is_left()


def test_an_early_worker_killed_in_its_first_phase_is_lost(
        tmp_path, capsys, cpus, monkeypatch):
    home = os.getpid()

    def killed(context):
        if context.startswith("lifting"):
            assert os.getpid() != home, "the job ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
    _factor_doing(monkeypatch, killed)
    cpus(2)
    code, _, err, files = _run(
        tmp_path, "run", ["solve", "--mesh", "builtin:2x4"], capsys)
    assert code == EXIT_SOLVER
    assert ("solver failure: job companion() ended without a result: its "
            f"worker was killed by signal {int(signal.SIGKILL)}") in err
    assert "Traceback" not in err
    assert files == {}
    assert no_child_is_left()


@pytest.mark.parametrize("where", ["solve", "fluid strain"])
@pytest.mark.parametrize("count", [1, 2])
def test_an_unexpected_error_escapes_solve_with_its_type(
        tmp_path, cpus, monkeypatch, where, count):
    if where == "solve":
        monkeypatch.setattr(solver, "solve_coupled", lambda *a, **k: _fail(
            ZeroDivisionError, "solve: injected"))
    else:
        _factor_doing(monkeypatch, _fail_in(where, ZeroDivisionError))
    cpus(count)
    with pytest.raises(ZeroDivisionError, match=f"{where}: injected"):
        main(["solve", "--mesh", "builtin:2x4", "--out", str(tmp_path / "a")])
    assert not (tmp_path / "a").exists()
    assert no_child_is_left()


# ---------------------------------------------------------------------------
# verify: this process solves, one worker checks each state as it arrives
# ---------------------------------------------------------------------------

VERIFY_2X4 = ["verify", "--mesh", "builtin:2x4", "--levels", "2"]


def test_verify_shares_the_zero_start_factor_of_one_operator(
        tmp_path, cpus, monkeypatch):
    # per level, the driven and head-driven datasets (nu = K = G = 1, zero
    # start) share one factor and the viscous one has its own; then the
    # two uniqueness starts factor theirs
    contexts = []
    _factor_doing(monkeypatch, contexts.append)
    cpus(1)
    assert main([*VERIFY_2X4, "--out", str(tmp_path / "out")]) \
        == EXIT_VERIFICATION  # the coarse base fails the inf-sup spread
    assert contexts.count("coupled iteration 1") == 6


def test_verify_solves_at_home_and_checks_in_one_worker(tmp_path, cpus,
                                                        monkeypatch):
    # one CPU: every factor at home, the solves first; two: the worker
    # builds every factor but the suite's solves, in the same order
    log = tmp_path / "factors"
    _factor_doing(monkeypatch, lambda context: None, log)
    by_pid = {}
    for count in (1, 2):
        cpus(count)
        assert main([*VERIFY_2X4, "--out", str(tmp_path / f"out{count}")]) \
            == EXIT_VERIFICATION
        by_pid[count] = {}
        for line in log.read_text().splitlines():
            pid, context = line.split(" ", 1)
            by_pid[count].setdefault(int(pid), []).append(context)
        log.unlink()
    home = by_pid[2].pop(os.getpid())
    assert home == ["coupled iteration"] * 4
    worker, = by_pid[2].values()
    assert worker[0] == "coupled iteration"  # uniqueness first
    assert worker.count("coupled iteration") == 2
    assert by_pid[1] == {os.getpid(): home + worker}
    assert no_child_is_left()


@pytest.mark.parametrize("count", [1, 2])
def test_verify_never_holds_two_coupled_factors(tmp_path, cpus, monkeypatch,
                                                count):
    # in every process, each coupled factor is gone before the next is
    # built: a shared one included
    held = []
    factor = fem._factor

    def checking(A, context, order=None):
        if context.startswith("coupled"):
            gc.collect()
            assert [ref() for ref in held if ref() is not None] == []
        lu = factor(A, context, order)
        if context.startswith("coupled"):
            held.append(weakref.ref(lu))
        return lu
    for module in (fem, analysis):
        monkeypatch.setattr(module, "_factor", checking)
    cpus(count)
    assert main([*VERIFY_2X4, "--out", str(tmp_path / "out")]) \
        == EXIT_VERIFICATION
    assert held
    assert no_child_is_left()
