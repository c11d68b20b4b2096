"""Independent jobs run side by side in forked workers.

A job has two phases: ``job()`` runs the first, which reads no state, and
returns ``finish``; ``finish(values)`` runs the second on an iterator over
the values of the caller's own steps, in the order sent, each as soon as
it arrives (a job that reads one value takes ``next(values)``).
``with Jobs(jobs) as started`` forks, before the steps, one worker per
further CPU the process may use (``os.sched_getaffinity``) and deals them
the jobs round-robin.  Each worker talks to the caller over one socket
pair, which a thread of the worker reads from the moment it is forked: so
``started.send(value)``, which may be repeated, never waits for a first
phase or a check.  A worker runs its first phases in order, up to the
first that raises, then its second phases; it pickles each outcome back
over the same channel and leaves by ``os._exit``.  ``started.results()``
ends the values, reaps the workers and returns
``[job()(iter(values)) for job in jobs]``, or raises the exception of the
first job in list order that raised, as inline; a job whose worker ended
without its result is a ``WorkerLost`` naming it.  Leaving the block by an
exception kills and reaps the workers.  ``run_jobs`` runs its first job as
the step and the rest with no first phase.

Inline, each job runs both phases in turn after the steps: when the
process may use one CPU, when ``os.fork`` or ``os.sched_getaffinity`` is
missing, or when the process runs other Python threads, which a fork would
copy in whatever state they are in.  (OpenBLAS stops its own thread pool
at a fork and restarts it on the next call.)  A worker shares nothing with
the caller after the fork: a cache a job fills, such as a space's strain
factor, is filled again in each process that needs it.
"""

import functools
import itertools
import os
import pickle
import queue
import signal
import socket
import threading

__all__ = ["Jobs", "run_jobs", "WorkerLost"]


class WorkerLost(Exception):
    """A worker ended without sending the result of a job."""


def _usable_cpus():
    """How many CPUs this process may use; none where forking is
    unavailable or unsafe."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 0
    return len(os.sched_getaffinity(0))


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


def _unpickled(channel):
    """What the other end pickled into ``channel``, up to where it ends."""
    with channel.makefile("rb") as fh:
        while True:
            try:
                yield pickle.load(fh)
            except (EOFError, pickle.UnpicklingError, ConnectionError):
                return  # the end, or cut short


def _values(channel):
    """The values sent to a worker, read on a thread as they arrive: each
    call of the result replays them in order, waiting for the next."""
    arrived, seen = queue.SimpleQueue(), []

    def read():
        for value in _unpickled(channel):
            arrived.put((value,))
        arrived.put(())  # the end

    def replay():
        for k in itertools.count():
            if k == len(seen):
                item = arrived.get()
                if not item:
                    arrived.put(item)  # the end, for the next phase too
                    return
                seen.append(*item)
            yield seen[k]
    threading.Thread(target=read, daemon=True).start()
    return replay


def _serve(jobs, share, channel):
    """A worker's life: read the values on a thread, run its share's first
    phases, send each second phase's outcome back through ``channel``.
    Never returns; a failure to report, say an unpicklable result, exits 1."""
    code = 1
    try:
        values = _values(channel)
        prepared = []
        for i in share:
            prepared.append((i, _outcome(jobs[i])))
            if not prepared[-1][1][0]:
                break
        for i, (ok, finish) in prepared:
            outcome = _outcome(finish, values()) if ok else (ok, finish)
            channel.sendall(pickle.dumps((i, outcome)))
            if not outcome[0]:
                break
        code = 0
    finally:
        os._exit(code)


def _ended(code):
    return (f"was killed by signal {-code}" if code < 0
            else f"exited with status {code}")


class Jobs:
    """Two-phase jobs, their first phases run in workers forked before the
    caller's own step (see the module doc)."""

    def __init__(self, jobs):
        self.jobs, self.values = jobs, []
        self.workers = {}  # pid -> (this end of its channel, its share)
        count = max(min(len(jobs), _usable_cpus() - 1), 0)
        self.local = [] if count else list(range(len(jobs)))
        try:
            for k in range(count):
                self._fork(range(k, len(jobs), count))
        except BaseException:
            self.__exit__()
            raise

    def _fork(self, share):
        channel, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the caller runs the share
            channel.close()
            theirs.close()
            self.local.extend(share)
            return
        if pid == 0:
            channel.close()  # a caller that dies ends the worker's wait
            _serve(self.jobs, share, theirs)
        theirs.close()
        self.workers[pid] = (channel, share)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for pid, (channel, _) in self.workers.items():
            channel.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def send(self, value):
        """Hand ``value``, the next result of the caller's steps, on."""
        self.values.append(value)
        data = pickle.dumps(value)
        for channel, _ in self.workers.values():
            try:
                channel.sendall(data)
            except ConnectionError:  # a lost worker: results() names its job
                pass

    def results(self):
        """``[job()(iter(values)) for job in jobs]``, or what it raises."""
        for channel, _ in self.workers.values():
            channel.shutdown(socket.SHUT_WR)  # no value follows
        outcomes = {}
        for i in self.local:
            ok, finish = _outcome(self.jobs[i])
            outcomes[i] = (_outcome(finish, iter(self.values)) if ok
                           else (ok, finish))
            if not outcomes[i][0]:
                break
        exit_codes = {}  # job index -> exit code of the worker that held it
        for pid, (channel, share) in list(self.workers.items()):
            with channel:
                outcomes.update(_unpickled(channel))
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
