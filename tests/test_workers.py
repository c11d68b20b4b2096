"""A command's check in a forked worker: ``workers.Jobs`` forks at most one
worker, returns what running the check inline returns, raises what it
would raise, and leaves no process or descriptor behind; the commands
write the same bytes either way."""

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
    """Set the number of CPUs the process may use, as ``workers.Jobs`` sees
    it, and count the workers it forks."""
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


def _logging(tag, log):
    """A warm that appends ``tag`` and its pid to the file ``log``."""
    def warm():
        with open(log, "a") as fh:
            fh.write(f"{tag} {os.getpid()}\n")
    return warm


def _first_value(log):
    """A check that logs "check" and its pid to the file ``log`` once it
    has the first value, and returns (its pid, that value)."""
    def check(values):
        value = next(values)
        _logging("check", log)()
        return os.getpid(), value
    return check


class TestJobs:
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_at_most_one_worker_is_forked(self, cpus, count):
        forks = cpus(count)
        with workers.Jobs(lambda values: (os.getpid(), list(values))) \
                as started:
            for value in "ab":
                started.send(value)
            pid, values = started.result()
        assert len(forks) == (count > 1)
        assert (pid == os.getpid()) == (count == 1)
        assert values == ["a", "b"]
        assert no_child_is_left()

    def test_first_phases_run_in_a_worker_during_the_step(self, cpus,
                                                          tmp_path):
        # warm, the worker's first phase, runs while the caller steps; the
        # check goes on once the value is sent
        forks = cpus(2)
        log = tmp_path / "log"
        with workers.Jobs(_first_value(log), _logging("warm", log)) \
                as started:
            _wait_for(log, "warm", 1)  # the step
            assert "check" not in log.read_text()
            started.send({"state": 1})
            worker, value = started.result()
        assert len(forks) == 1
        assert worker != os.getpid()
        assert value == {"state": 1}
        assert log.read_text().splitlines() == [f"warm {worker}",
                                                f"check {worker}"]
        assert no_child_is_left()

    def test_inline_the_check_runs_after_the_step_and_warm_never(
            self, cpus, tmp_path):
        forks = cpus(1)
        log = tmp_path / "log"
        with workers.Jobs(_first_value(log), _logging("warm", log)) \
                as started:
            started.send(7)
            assert not log.exists()
            result = started.result()
        assert forks == []
        assert result == (os.getpid(), 7)
        assert log.read_text().splitlines() == [f"check {os.getpid()}"]

    @pytest.mark.parametrize("meets_it", [False, True],
                             ids=["check-passes", "check-meets-it"])
    def test_a_failing_warm_leaves_the_outcome_as_inline(self, cpus,
                                                         meets_it):
        # the worker drops warm's exception; a check that meets the same
        # failure raises it in its own order, after reading the values
        build = functools.partial(_fail, SingularLinearSystem, "injected")

        def check(values):
            read = list(values)
            if meets_it:
                build()
            return read
        outcomes = {}
        for count in (1, 2):
            forks = cpus(count)
            with workers.Jobs(check, build) as started:
                started.send(3)
                try:
                    outcomes[count] = started.result()
                except SingularLinearSystem as exc:
                    outcomes[count] = repr(exc)
            assert len(forks) == count - 1
        assert outcomes[2] == outcomes[1] == (
            "SingularLinearSystem('injected')" if meets_it else [3])
        assert no_child_is_left()

    def test_a_failing_step_kills_the_workers(self, cpus):
        forks = cpus(3)
        with pytest.raises(ZeroDivisionError):
            with workers.Jobs(lambda values: signal.pause()):
                1 / 0
        assert len(forks) == 1
        assert no_child_is_left()

    def test_a_failed_fork_leaves_its_share_to_the_caller(
            self, cpus, monkeypatch, tmp_path):
        # the fork fails: the check, all the worker would have run, runs
        # in the caller after the step, as inline, and warm never runs
        cpus(2)
        monkeypatch.setattr(os, "fork", _failing_fork(os.fork, 1))
        log = tmp_path / "log"
        with workers.Jobs(_first_value(log), _logging("warm", log)) \
                as started:
            started.send(5)
            assert not log.exists()
            result = started.result()
        assert result == (os.getpid(), 5)
        assert log.read_text().splitlines() == [f"check {os.getpid()}"]
        assert no_child_is_left()

    def test_a_process_with_other_threads_runs_inline(self, cpus):
        forks = cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            with workers.Jobs(lambda values: os.getpid()) as started:
                assert started.result() == os.getpid()
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    def test_a_result_that_does_not_pickle_loses_its_worker(self, cpus):
        cpus(2)
        with pytest.raises(workers.WorkerLost,
                           match=r"<lambda>\(\) ended without a result: "
                                 "its worker exited with status 1"):
            with workers.Jobs(lambda values: lambda: None) as started:
                started.result()
        assert no_child_is_left()

    def test_a_worker_lost_before_the_value_is_sent(self, cpus):
        cpus(2)
        with workers.Jobs(_die) as started:
            # the worker has ended; it stays unreaped for result()
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            started.send(bytes(1 << 20))  # more than any pipe or socket buffer
            with pytest.raises(workers.WorkerLost,
                               match=r"_die\(\) ended without a result: "
                                     "its worker was killed by signal "
                                     f"{int(signal.SIGKILL)}"):
                started.result()
        assert no_child_is_left()

    @pytest.mark.parametrize("where", ["step", "results"])
    def test_an_interrupt_leaves_no_child(self, cpus, where):
        cpus(2)

        def interrupt(signum, frame):
            raise KeyboardInterrupt
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                with workers.Jobs(lambda values: signal.pause()) as started:
                    signal.setitimer(signal.ITIMER_REAL, 0.1)
                    if where == "step":
                        time.sleep(10)
                    started.send(None)
                    started.result()  # waits on the paused worker
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert no_child_is_left()


def _logging_reads(log):
    """A check that appends "read" to the file ``log`` for each value it
    reads, and returns the values."""
    def check(values):
        seen = []
        for value in values:
            seen.append(value)
            with open(log, "a") as fh:
                fh.write(f"read {value}\n")
        return seen
    return check


def _dying_after_one(values):
    next(values)
    _die()


class TestStreamedValues:
    """The values reach the check, the worker's second phase after warm,
    one by one as they are sent."""

    def test_no_send_waits_for_a_first_phase(self, cpus, tmp_path):
        # warm ends only once every value is sent: 1.2 MB, more than a
        # socket buffer holds unread
        forks = cpus(2)
        marker = tmp_path / "marker"
        found = []

        def warm():
            for _ in range(1000):
                if marker.exists():
                    found.append(True)
                    return
                time.sleep(0.01)
        with workers.Jobs(lambda values: (found, [len(v) for v in values]),
                          warm) as started:
            for _ in range(4):
                started.send(bytes(300_000))
            marker.touch()
            assert started.result() == ([True], [300_000] * 4)
        assert len(forks) == 1
        assert no_child_is_left()

    def test_second_phases_read_the_values_in_order(self, cpus):
        # a check that reads every value, and one that reads the first only
        # while the rest are still sent
        values = [{"k": k} for k in range(4)] + [bytes(500_000), None]
        results = {}
        for count in (1, 3):
            forks = cpus(count)
            results[count] = []
            for reads in (None, 1):
                with workers.Jobs(lambda values, reads=reads: list(
                        itertools.islice(values, reads))) as started:
                    for value in values:
                        started.send(value)
                    results[count].append(started.result())
            assert len(forks) == 2 * (count > 1)
        assert results[3] == results[1] == [values, values[:1]]
        assert no_child_is_left()

    def test_a_second_phase_reads_each_value_as_it_arrives(self, cpus,
                                                          tmp_path):
        cpus(2)
        log = tmp_path / "log"
        with workers.Jobs(_logging_reads(log)) as started:
            for k in range(3):
                started.send(k)
                _wait_for(log, "read", k + 1)
            assert started.result() == [0, 1, 2]
        assert no_child_is_left()

    def test_a_worker_killed_mid_stream_is_lost(self, cpus):
        cpus(2)
        with workers.Jobs(_dying_after_one) as started:
            started.send(1)
            # the worker has ended; it stays unreaped for result()
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            started.send(bytes(1 << 20))
            with pytest.raises(workers.WorkerLost,
                               match=r"_dying_after_one\(\) ended without "
                                     "a result: its worker was killed by "
                                     f"signal {int(signal.SIGKILL)}"):
                started.result()
        assert no_child_is_left()


class TestRunJobs:
    """Work at home, the caller's step, fails while its worker runs."""

    def test_a_failure_at_home_is_raised_and_the_workers_reaped(
            self, cpus, tmp_path):
        # the worker has read the first value and waits for the next
        cpus(2)
        log = tmp_path / "log"
        with pytest.raises(SingularLinearSystem, match="home"):
            with workers.Jobs(_logging_reads(log)) as started:
                started.send(0)
                _wait_for(log, "read", 1)
                _fail(SingularLinearSystem, "home")
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


def _die(*values):
    os.kill(os.getpid(), signal.SIGKILL)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("path", ["success", "failing job", "failing step",
                                  "lost worker", "failed fork", "streamed",
                                  "failing warm"])
def test_no_descriptor_is_left_behind(cpus, monkeypatch, path):
    cpus(3)
    if path == "failed fork":
        monkeypatch.setattr(os, "fork", _failing_fork(os.fork, 1))
    value = bytes(300_000) if path == "streamed" else 1
    check = {"failing job": lambda values: _fail(KeyError, ""),
             "lost worker": _die}.get(path, list)
    warm = (functools.partial(_fail, KeyError, "")
            if path == "failing warm" else None)
    before = _open_descriptors()
    if path == "failing step":
        with pytest.raises(ZeroDivisionError):
            with workers.Jobs(lambda values: signal.pause()):
                1 / 0
    else:
        try:
            with workers.Jobs(check, warm) as started:
                for _ in range(3):
                    started.send(value)
                assert started.result() == [value] * 3
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


VERIFY_2X4 = ["verify", "--mesh", "builtin:2x4", "--levels", "2"]


@pytest.mark.parametrize("argv", [
    ["solve", "--mesh", "builtin:2x4"],
    ["solve", "--case", "smooth"],
    VERIFY_2X4,
    ["mms", "--case", "representable", "--levels", "3"]],
    ids=["solve", "solve-smooth", "verify", "mms"])
def test_each_command_forks_one_worker(tmp_path, capsys, cpus, argv):
    # however many CPUs the process may use, one worker runs the check,
    # and the run writes what an inline run writes
    cpus(1)
    inline = _run(tmp_path, "inline", argv, capsys)
    for count in (2, 3, 8):
        forks = cpus(count)
        assert _run(tmp_path, f"forked{count}", argv, capsys) == inline
        assert len(forks) == 1
    assert no_child_is_left()


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
        assert os.getpid() != home, "the check ran in the test process"
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(analysis, "check_uniqueness", killed)
    cpus(2)
    code, _, err, files = _run(
        tmp_path, "run", ["verify", "--mesh", "builtin:2x4", "--levels", "1"],
        capsys)
    assert code == EXIT_SOLVER
    assert ("solver failure: check() ended without a result: its "
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
# solve: the worker warms while the coupled solve runs
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
    # failure while warming is met again by the check, and raised once the
    # solve has returned
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
            assert os.getpid() != home, "warm ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
    _factor_doing(monkeypatch, killed)
    cpus(2)
    code, _, err, files = _run(
        tmp_path, "run", ["solve", "--mesh", "builtin:2x4"], capsys)
    assert code == EXIT_SOLVER
    assert ("solver failure: check() ended without a result: its "
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
    # one CPU: every factor at home, the suite's four solves first, then
    # the check: uniqueness (two starts, whose uniqueness number builds the
    # level-0 strain and Darcy factors), each level's reports and
    # compensation, building the level's factors as they are read; two
    # CPUs: home builds the suite's solves only, and the worker warms (each
    # level's strain and lifting factors), then runs the same check
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
    suite = ["coupled iteration"] * 4
    uniqueness = ["coupled iteration", "fluid strain", "Darcy matrix",
                  "coupled iteration"]
    reports = ["Darcy matrix", "lifting saddle system", "companion solve",
               "Darcy matrix", "Darcy matrix"]
    assert by_pid[1] == {os.getpid(): suite + uniqueness + reports
                         + ["fluid strain"] + reports}
    assert by_pid[2].pop(os.getpid()) == suite
    worker, = by_pid[2].values()
    assert worker == (["fluid strain", "lifting saddle system"] * 2
                      + ["coupled iteration", "Darcy matrix",
                         "coupled iteration"]
                      + ["Darcy matrix", "companion solve", "Darcy matrix",
                         "Darcy matrix"] * 2)
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
