"""Numbered jobs run in forked child processes, each result sent back on a pipe.

``ForkedJobs`` keeps at most ``workers`` children. A child is forked when a job
needs one and then runs one job at a time: it reads the job number from its job
pipe, calls ``run(job)``, and writes the result, which must be
``marshal``-able, to its result pipe. It keeps its heap from one job to the
next, so the parent pays for copy-on-write pages only once per child. Plain
``os.fork`` and ``os.pipe`` carry the jobs, not ``multiprocessing``, whose
import alone costs a stage tens of milliseconds. A child ignores Ctrl-C, which
the parent handles, and leaves through ``os._exit`` whatever happens, so none
of the parent's cleanup runs in it a second time. The parent kills and reaps a
child in ``cancel`` and ``close``, and as soon as it takes the child's result
when no job is left to start.

``fork_workers`` says how many children a stage should start: none with one
usable CPU or without ``os.fork``, else two. Whether a stage's work is worth
children at all is decided before, by ``cli._forked_jobs``: it keeps the work
in process while a tracer has replaced a name a child would call, or under the
floor of input bytes measured for that kind of job, and imports this module
only above that floor, so runs under it never compile it. A name of
``ribstore`` or ``analytics`` that ``cli`` has not yet bound counts as not
replaced, so the gate imports neither module.
"""

from __future__ import annotations

import gc
import marshal
import os
import struct
import sys
from time import perf_counter
from typing import BinaryIO, Callable, Optional

# ``select`` and ``signal`` are imported only once a child is forked: a stage
# imports this module to ask ``fork_workers``, and many runs start no child.

_LENGTH = struct.Struct(">Q")  # the length of a child's result, ahead of it
_JOB = struct.Struct(">I")  # a job number sent to a child


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_workers() -> int:
    """The children to run a stage's jobs in; 0 means in process."""
    cpus = _usable_cpus() if hasattr(os, "fork") else 1
    return 0 if cpus < 2 else 2


class WorkerStats:
    """What a stage spent on forked children: children forked, the seconds the
    parent blocked on their results, and their CPU seconds from ``os.wait4``.
    All stay zero when the work runs in process."""

    __slots__ = ("children_started", "blocked_s", "children_cpu_s")

    def __init__(self) -> None:
        self.children_started = 0
        self.blocked_s = self.children_cpu_s = 0.0

    def as_dict(self) -> dict:
        return {name: round(getattr(self, name), 6) for name in self.__slots__}


class ChildLost(Exception):
    """A child ended without sending its job's result."""

    def __init__(self, status: int):
        super().__init__(f"ended without a result (exit status {os.waitstatus_to_exitcode(status)})")


class _Child:
    __slots__ = ("pid", "jobs", "results")

    def __init__(self, pid: int, jobs: int, results: BinaryIO):
        self.pid = pid
        self.jobs = jobs  # the write end of its job pipe
        self.results = results  # the read end of its result pipe


class ForkedJobs:
    """``run(job)`` for numbered jobs, in at most `workers` forked children.

    A child is forked only for a job started, so the children never outnumber
    the jobs. ``stats`` counts what they cost. ``running`` maps each job given
    to a child to that child until its result is taken. A fork that fails (no
    memory or process slot) leaves ``start`` returning False and caps the
    children at those already running, so the caller runs that job in process.
    """

    def __init__(self, run: Callable[[int], object], workers: int):
        self._run = run
        self._workers = workers
        self.stats = WorkerStats()
        self._children: dict[int, _Child] = {}  # pid -> every child not yet reaped
        self._idle: list[_Child] = []
        self.running: dict[int, _Child] = {}

    def can_start(self) -> bool:
        return bool(self._idle) or len(self._children) < self._workers

    def start(self, job: int) -> bool:
        """Give `job` to an idle child or a new one; False if no child can be forked."""
        child = self._idle.pop() if self._idle else self._fork()
        if child is None:
            return False
        try:
            os.write(child.jobs, _JOB.pack(job))
        except BrokenPipeError:
            pass  # the child is gone: result() reports it
        self.running[job] = child
        return True

    def ready(self) -> int:
        """Block until a running job's child has sent its result or ended; return the
        lowest such job."""
        import select

        fds = {child.results.fileno(): job for job, child in self.running.items()}
        start = perf_counter()
        readable, _, _ = select.select(list(fds), [], [])
        self.stats.blocked_s += perf_counter() - start
        return min(fds[fd] for fd in readable)

    def result(self, job: int, keep: bool = True):
        """The result of `job`, waiting for it; its child is then idle, or reaped
        unless `keep`. Callers pass False once no job is left to start, so that
        no idle child holds its heap until ``close``.

        Raises ChildLost, with the child reaped, if the child ended first.
        """
        child = self.running.pop(job)
        start = perf_counter()
        header = child.results.read(_LENGTH.size)
        data = child.results.read(_LENGTH.unpack(header)[0]) if len(header) == _LENGTH.size else b""
        self.stats.blocked_s += perf_counter() - start
        try:
            result = marshal.loads(data)
        except (EOFError, ValueError, TypeError):
            raise ChildLost(self._reap(child)) from None
        if keep:
            self._idle.append(child)
        else:
            self._reap(child)
        return result

    def cancel(self, job: int) -> None:
        """Kill and reap the child running `job`."""
        self._reap(self.running.pop(job))

    def close(self) -> None:
        """Kill and reap every child."""
        for child in list(self._children.values()):
            self._reap(child)
        self.running.clear()

    def _fork(self) -> Optional[_Child]:
        import signal

        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (job_read, job_write, result_read, result_write):
                os.close(fd)
            self._workers = len(self._children)
            return None
        if pid == 0:
            # Leave through os._exit whatever happens, so that none of the parent's
            # finally blocks, buffered writes or finalizers run here.
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                gc.freeze()  # the parent's objects are never collected here
                for fd in (job_write, result_read, *(c.jobs for c in self._children.values())):
                    os.close(fd)
                for other in self._children.values():
                    other.results.close()
                with open(result_write, "wb") as results:
                    while job := os.read(job_read, _JOB.size):  # empty once the parent is gone
                        # Format 2 keeps no object references: half the time of the default here.
                        data = marshal.dumps(self._run(_JOB.unpack(job)[0]), 2)
                        results.write(_LENGTH.pack(len(data)))
                        results.write(data)
                        results.flush()
                status = 0
            except Exception:
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        os.close(job_read)
        os.close(result_write)
        child = self._children[pid] = _Child(pid, job_write, open(result_read, "rb"))
        self.stats.children_started += 1
        return child

    def _reap(self, child: _Child) -> int:
        """Kill `child`, close its pipes, reap it, count its CPU time, and return its wait status."""
        import signal

        try:
            os.kill(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.close(child.jobs)
        child.results.close()
        _, status, usage = os.wait4(child.pid, 0)
        del self._children[child.pid]
        if child in self._idle:
            self._idle.remove(child)
        self.stats.children_cpu_s += usage.ru_utime + usage.ru_stime
        return status
