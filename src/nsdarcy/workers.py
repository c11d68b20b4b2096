"""A command's checks run beside its steps, in one forked worker.

A check is plain serial code: ``check(values)`` reads an iterator over the
values of the caller's steps, in the order sent, and returns one result.
``with Jobs(check, warm) as started`` forks one worker, before the steps,
where the process may use more than one CPU (``os.sched_getaffinity``).
The worker first runs ``warm()``, which only fills per-space caches that
the check would fill itself, so an exception from it is dropped: the check
meets the same failure again in its own order.  Then it runs the check on
the values, each as soon as it arrives: a thread of the worker reads them
from the moment it is forked, so ``started.send(value)``, which may be
repeated, never waits for ``warm`` or the check.  The worker pickles the
check's outcome back over the same socket pair and leaves by ``os._exit``.
``started.result()`` ends the values, reaps the worker and returns
``check(iter(values))``, or raises what it raised, as inline; a worker
that ended without the outcome is a ``WorkerLost`` naming the check.
Leaving the block by an exception kills and reaps the worker.

Inline, ``result()`` runs the check after the steps and ``warm`` never
runs: when the process may use one CPU, when ``os.fork`` fails or it or
``os.sched_getaffinity`` is missing, or when the process runs other Python
threads, which a fork would copy in whatever state they are in.
(OpenBLAS stops its own thread pool at a fork and restarts it on the next
call.)  The worker shares nothing with the caller after the fork: a cache
the check fills, such as a space's strain factor, is filled in the worker.
"""

import os
import pickle
import queue
import signal
import socket
import threading

__all__ = ["Jobs", "WorkerLost"]


class WorkerLost(Exception):
    """The worker ended without sending the outcome of its check."""


def _usable_cpus():
    """How many CPUs this process may use; none where forking is
    unavailable or unsafe."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 0
    return len(os.sched_getaffinity(0))


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
    """The values sent to a worker, read on a thread as they arrive: one
    pass over them in order, each waited for."""
    arrived = queue.SimpleQueue()

    def read():
        for value in _unpickled(channel):
            arrived.put((value,))
        arrived.put(())  # the end
    threading.Thread(target=read, daemon=True).start()
    return (item[0] for item in iter(arrived.get, ()))


def _serve(check, warm, channel):
    """A worker's life: read the values on a thread, warm, run the check,
    send its outcome back through ``channel``.  Never returns; a failure to
    report, say an unpicklable result, exits 1."""
    code = 1
    try:
        values = _values(channel)
        if warm is not None:
            _outcome(warm)  # dropped: the check meets it again
        channel.sendall(pickle.dumps(_outcome(check, values)))
        code = 0
    finally:
        os._exit(code)


def _ended(code):
    return (f"was killed by signal {-code}" if code < 0
            else f"exited with status {code}")


class Jobs:
    """A check, run in a worker forked before the caller's own steps (see
    the module doc)."""

    def __init__(self, check, warm=None):
        self.check, self.values, self.pid = check, [], None
        if _usable_cpus() < 2:
            return
        self.channel, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the check runs inline
            self.channel.close()
            theirs.close()
            return
        if pid == 0:
            self.channel.close()  # a caller that dies ends the worker's wait
            _serve(check, warm, theirs)
        theirs.close()
        self.pid = pid

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.pid is not None:
            self.channel.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def send(self, value):
        """Hand ``value``, the next result of the caller's steps, on."""
        if self.pid is None:
            self.values.append(value)
            return
        try:
            self.channel.sendall(pickle.dumps(value))
        except ConnectionError:  # a lost worker: result() names the check
            pass

    def result(self):
        """``check(iter(values))``, or what it raises."""
        if self.pid is None:
            return self.check(iter(self.values))
        self.channel.shutdown(socket.SHUT_WR)  # no value follows
        with self.channel:
            outcome = next(_unpickled(self.channel), None)
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if outcome is None:
            raise WorkerLost(f"{self.check.__name__}() ended without a "
                             f"result: its worker {_ended(code)}")
        ok, value = outcome
        if not ok:
            raise value
        return value
