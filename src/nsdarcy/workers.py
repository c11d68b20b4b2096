"""Independent jobs run side by side in forked workers.

``run_jobs(jobs)`` returns ``[job() for job in jobs]``.  The caller orders
the jobs largest first.  The first job runs in the calling process, and the
rest are dealt round-robin to one forked worker per further CPU that the
process may use (``os.sched_getaffinity``).  A worker runs its share in
order, up to the first job that raises, pickles each result, or that
exception, back through a pipe as the job ends, and leaves by ``os._exit``.
The caller reaps every worker before it returns or raises, and raises what
the jobs would have raised inline: the exception of the first job in list
order that raised, with its type and message.  A job whose worker ended
without sending its result (killed, say) is a ``WorkerLost`` naming the
job and how the worker ended.

The jobs run inline, in order, when the process may use one CPU, when
``os.fork`` or ``os.sched_getaffinity`` is missing, or when the process
already runs other Python threads, which a fork would copy in whatever
state they are in.  (OpenBLAS stops its own thread pool at a fork and
restarts it on the next call.)  A worker shares nothing with the caller
after the fork: a cache a job fills, such as a space's coupled layout or
strain factor, is filled again in each process that needs it.
"""

import os
import pickle
import signal
import threading

__all__ = ["run_jobs", "WorkerLost"]


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
    func = getattr(job, "func", job)
    args = ", ".join(map(repr, getattr(job, "args", ())))
    return f"{func.__name__}({args})"


def _outcomes(jobs, indices):
    """Yield (index, (True, result) or (False, exception)) for the jobs at
    ``indices``, run in order up to the first that raises."""
    for i in indices:
        try:
            yield i, (True, jobs[i]())
        except Exception as exc:
            yield i, (False, exc)
            return


def _serve(jobs, share, cpu, write, inherited):
    """A worker's life: close the pipe ends it inherited, move to ``cpu``,
    run its share and send each outcome through ``write`` as it comes.
    Never returns; any failure to report, an unpicklable result included,
    leaves with status 1."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        _move_to(cpu)
        with open(write, "wb") as fh:
            for outcome in _outcomes(jobs, share):
                fh.write(pickle.dumps(outcome))
                fh.flush()
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


def run_jobs(jobs):
    """``[job() for job in jobs]``, with every job after the first run in a
    forked worker where more than one CPU is free (see the module doc)."""
    cpus = _usable_cpus()
    num_workers = min(len(jobs), len(cpus)) - 1
    if num_workers < 1:
        return [job() for job in jobs]
    local = [0]
    workers = {}  # pid -> (the read end of its pipe, its share of the jobs)
    exit_codes = {}  # job index -> exit code of the worker that held it
    try:
        for first in range(1, num_workers + 1):
            share = range(first, len(jobs), num_workers)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller runs the share
                os.close(read)
                os.close(write)
                local.extend(share)
                continue
            if pid == 0:
                _serve(jobs, share, cpus[first], write,
                       [read, *(fh.fileno() for fh, _ in workers.values())])
            os.close(write)
            workers[pid] = (open(read, "rb"), share)
        _move_to(cpus[0])
        outcomes = dict(_outcomes(jobs, sorted(local)))
        if outcomes[0][0]:  # else job 0's exception is the one to raise
            for pid, (fh, share) in list(workers.items()):
                outcomes.update(_received(fh))
                fh.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[pid]
                exit_codes.update(dict.fromkeys(share, code))
    finally:
        for pid, (fh, _) in workers.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i, job in enumerate(jobs):
        if i not in outcomes:
            raise WorkerLost(f"job {_name(job)} ended without a result: its "
                             f"worker {_ended(exit_codes[i])}")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results
