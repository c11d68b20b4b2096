"""Independent jobs run side by side in forked workers.

A job has two phases: ``job()`` runs the first, which reads no state, and
returns ``finish``; ``finish(value)`` runs the second on the value of the
caller's own step.  ``with Jobs(jobs) as started`` forks, before the step,
one worker per further CPU the process may use (``os.sched_getaffinity``)
and deals them the jobs round-robin.  A worker runs its first phases in
order, up to the first that raises, then, once ``started.send(value)`` has
pickled the value to it, its second phases; it pickles each outcome back
through a pipe and leaves by ``os._exit``.  ``started.results()``
reaps the workers and returns ``[job()(value) for job in jobs]``, or raises
the exception of the first job in list order that raised, as inline; a
job whose worker ended without its result is a ``WorkerLost`` naming it.
Leaving the block by an exception kills and reaps the workers.  ``run_jobs``
runs its first job as the step and the rest with no first phase.

Inline, each job runs both phases in turn after the step: when the
process may use one CPU, when ``os.fork`` or ``os.sched_getaffinity`` is
missing, or when the process runs other Python threads, which a fork would
copy in whatever state they are in.  (OpenBLAS stops its own thread pool
at a fork and restarts it on the next call.)  A worker shares nothing with
the caller after the fork: a cache a job fills, such as a space's strain
factor, is filled again in each process that needs it.
"""

import functools
import os
import pickle
import signal
import threading

__all__ = ["Jobs", "run_jobs", "WorkerLost"]


class WorkerLost(Exception):
    """A worker ended without sending the result of a job."""


def _usable_cpus():
    """The CPUs this process may use, in order; none where forking is
    unavailable or unsafe."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return []
    return sorted(os.sched_getaffinity(0))


def _move_to(cpu):
    """Move this process onto ``cpu``, then let it run where it could
    before: the scheduler keeps a running process where it is unless it
    must move it.  Unmoved, a forked worker was seen to share its parent's
    CPU for the whole of a sub-second job while the other CPU idled (a
    2-vCPU virtual machine).  Binding for good would also bind the BLAS
    threads started afterwards to that one CPU."""
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, [cpu])
        os.sched_setaffinity(0, allowed)
    except OSError:  # a CPU the host does not have: the move is a hint
        pass


def _name(job):
    """A job's function and bound arguments, for messages."""
    job = getattr(job, "__wrapped__", job)
    func = getattr(job, "func", job)
    args = ", ".join(map(repr, getattr(job, "args", ())))
    return f"{func.__name__}({args})"


def _outcome(call, *args):
    """(True, call(*args)), or (False, the exception it raised)."""
    try:
        return True, call(*args)
    except Exception as exc:
        return False, exc


def _serve(jobs, share, cpu, read, write, inherited):
    """A worker's life: close the pipe ends it inherited, move to ``cpu``,
    run its share's first phases, read the value from ``read`` and send
    each second phase's outcome through ``write``.  Never returns; any
    failure to report, an unpicklable result included, exits 1."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        _move_to(cpu)
        prepared = []
        for i in share:
            prepared.append((i, _outcome(jobs[i])))
            if not prepared[-1][1][0]:
                break
        with open(read, "rb") as fh:
            value = pickle.load(fh)
        with open(write, "wb") as fh:
            for i, (ok, finish) in prepared:
                outcome = _outcome(finish, value) if ok else (ok, finish)
                fh.write(pickle.dumps((i, outcome)))
                fh.flush()
                if not outcome[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _received(fh):
    """The outcomes a worker sent, up to where its stream ends."""
    outcomes = {}
    while True:
        try:
            i, outcome = pickle.load(fh)
        except (EOFError, pickle.UnpicklingError):  # the end, or cut short
            return outcomes
        outcomes[i] = outcome


def _ended(code):
    return (f"was killed by signal {-code}" if code < 0
            else f"exited with status {code}")


class Jobs:
    """Two-phase jobs, their first phases run in workers forked before the
    caller's own step (see the module doc)."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.inputs = []  # the write ends of the workers' input pipes
        self.workers = {}  # pid -> (the read end of its pipe, its share)
        cpus = _usable_cpus()
        count = max(min(len(jobs), len(cpus) - 1), 0)
        self.local = [] if count else list(range(len(jobs)))
        try:
            for k in range(count):
                self._fork(range(k, len(jobs), count), cpus[k + 1])
        except BaseException:
            self.__exit__()
            raise
        if self.workers:
            _move_to(cpus[0])

    def _fork(self, share, cpu):
        (read_in, write_in), (read, write) = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the caller runs the share
            for fd in (read_in, write_in, read, write):
                os.close(fd)
            self.local.extend(share)
            return
        if pid == 0:
            _serve(self.jobs, share, cpu, read_in, write,
                   [write_in, read, *self.inputs,
                    *(fh.fileno() for fh, _ in self.workers.values())])
        os.close(read_in)
        os.close(write)
        self.inputs.append(write_in)
        self.workers[pid] = (open(read, "rb"), share)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        while self.inputs:
            os.close(self.inputs.pop())
        for pid, (fh, _) in self.workers.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def send(self, value):
        """Hand ``value``, what the caller's step made, to the jobs."""
        self.value, data = value, pickle.dumps(value)
        while self.inputs:
            try:
                with open(self.inputs.pop(), "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # a lost worker: results() names its job
                pass

    def results(self):
        """``[job()(value) for job in jobs]``, or what it would raise."""
        outcomes = {}
        for i in self.local:
            ok, finish = _outcome(self.jobs[i])
            outcomes[i] = _outcome(finish, self.value) if ok else (ok, finish)
            if not outcomes[i][0]:
                break
        exit_codes = {}  # job index -> exit code of the worker that held it
        for pid, (fh, share) in list(self.workers.items()):
            outcomes.update(_received(fh))
            fh.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self.workers[pid]
            exit_codes.update(dict.fromkeys(share, code))
        results = []
        for i, job in enumerate(self.jobs):
            if i not in outcomes:
                raise WorkerLost(f"job {_name(job)} ended without a result: "
                                 f"its worker {_ended(exit_codes[i])}")
            ok, value = outcomes[i]
            if not ok:
                raise value
            results.append(value)
        return results


def run_jobs(jobs):
    """``[job() for job in jobs]``, with every job after the first run in a
    forked worker where more than one CPU is free (see the module doc)."""
    deferred = [functools.wraps(job)(lambda job=job: lambda _: job())
                for job in jobs[1:]]
    with Jobs(deferred) as started:
        started.send(None)
        return [job() for job in jobs[:1]] + started.results()
