"""RIB snapshot files decoded in forked child processes, for ``ribstore.attribute``.

A child runs a ``TimelineEntry``'s own loader and ``build_lpm`` and sends back
the snapshot's counters row and its range tables, origins as codes into a list
of origin texts, as one ``marshal`` payload on a pipe. Plain ``os.fork`` and
``os.pipe`` carry it, not ``multiprocessing``, whose import alone costs a stage
tens of milliseconds. A child leaves through ``os._exit`` whatever happens, so
none of the parent's cleanup runs in it a second time.
"""

from __future__ import annotations

import gc
import marshal
import os
import signal
import struct
from time import perf_counter
from typing import BinaryIO, Callable, NamedTuple, Optional

from .ribstore import (
    BadPrefixTable,
    DecodeStats,
    MissingPeerIndex,
    OriginAs,
    RibSnapshot,
    TimelineEntry,
    TruncatedRecord,
    _read_only,
    build_lpm,
)

# Errors a child reports by name and the parent raises again as the same type.
_CHILD_ERRORS = (TruncatedRecord, MissingPeerIndex, BadPrefixTable, ValueError)
_LENGTH = struct.Struct(">Q")  # the length of a child's result, ahead of it
_JOB = struct.Struct(">I")  # a timeline position sent to a child


def _child_result(loader: Callable[[], RibSnapshot]) -> tuple:
    """A snapshot load and index build as marshal-able data, run in the child.

    ``("ok", counters, origin texts, ((starts, origin codes), ...))`` where a
    code indexes the texts; an OSError as ``("OSError", args, filename)``; any
    other error as ``(type name, message, offset or None)``.
    """
    try:
        snapshot = loader()
        tables = build_lpm(snapshot)._tables
    except OSError as exc:
        return ("OSError", exc.args, exc.filename)
    except Exception as exc:
        name = next((cls.__name__ for cls in _CHILD_ERRORS if isinstance(exc, cls)), type(exc).__name__)
        return (name, str(exc), getattr(exc, "offset", None))
    codes: dict[str, int] = {}
    encoded = tuple((starts, [codes.setdefault(o.text, len(codes)) for o in origins]) for starts, origins in tables)
    return ("ok", snapshot.counters(), list(codes), encoded)


class _Child(NamedTuple):
    """A forked decoder."""

    pid: int
    jobs: int  # the write end of its job pipe
    results: BinaryIO  # the read end of its result pipe


class ChildDecodes:
    """Snapshot files decoded ahead of the records by at most ``workers`` forked children.

    A child is forked when the first record needs a snapshot and decodes one
    timeline position at a time: it reads the position from its job pipe, runs
    the entry's loader and ``build_lpm``, and writes the ``_child_result`` to its
    result pipe. It keeps its heap from one snapshot to the next, and the parent
    pays for copy-on-write pages only once per child. ``serve(pos)`` kills the
    children still decoding positions before ``pos``, keeps the next file-backed
    entries from ``pos`` on assigned, and adopts the result for ``pos`` into its
    entry: the counters row and an index whose origins are interned by text
    across the timeline. A child's error is raised again, as the same type and
    message, only on adoption.
    """

    def __init__(self, entries: list[TimelineEntry], workers: int, stats: DecodeStats):
        self._entries = entries
        self._workers = workers
        self._stats = stats
        self._children: dict[int, _Child] = {}  # pid -> every child not yet reaped
        self._decoding: dict[int, _Child] = {}  # position -> the child decoding it
        self._idle: list[_Child] = []
        self._next = 0  # no position before this is assigned
        self._origins: dict[str, OriginAs] = {}

    def serve(self, pos: int) -> None:
        for stale in [p for p in self._decoding if p < pos]:
            self._reap(self._decoding.pop(stale))
        self._next = max(self._next, pos)
        self._assign()
        child = self._decoding.pop(pos, None)
        if child is None:
            return
        start = perf_counter()
        header = child.results.read(_LENGTH.size)
        data = child.results.read(_LENGTH.unpack(header)[0]) if len(header) == _LENGTH.size else b""
        self._stats.blocked_s += perf_counter() - start
        try:
            result = marshal.loads(data)
        except (EOFError, ValueError, TypeError):
            status = self._reap(child)
            raise ChildProcessError(
                f"{self._entries[pos].path}: snapshot decode ended without a result "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            ) from None
        self._idle.append(child)
        self._assign()  # the child's next snapshot decodes while this one is unpacked
        self._adopt(self._entries[pos], result)

    def close(self) -> None:
        """Kill and reap every child."""
        for child in list(self._children.values()):
            self._reap(child)

    def _assign(self) -> None:
        entries = self._entries
        while self._next < len(entries) and (self._idle or len(self._children) < self._workers):
            entry = entries[self._next]
            if entry.path is not None and entry._index is None:
                child = self._idle.pop() if self._idle else self._fork()
                if child is None:
                    return
                try:
                    os.write(child.jobs, _JOB.pack(self._next))
                except BrokenPipeError:
                    pass  # the child is gone: serve() reports it if a record needs this snapshot
                self._decoding[self._next] = child
            self._next += 1

    def _fork(self) -> Optional[_Child]:
        job_read, job_write = os.pipe()
        result_read, result_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # No child can start (no memory or process slot): what no child decodes loads in process.
            for fd in (job_read, job_write, result_read, result_write):
                os.close(fd)
            self._workers = len(self._children)
            return None
        if pid == 0:
            # Leave through os._exit whatever happens, so that none of the parent's
            # finally blocks, buffered writes or finalizers run here.
            try:
                gc.freeze()  # the parent's objects are never collected here
                for fd in (job_write, result_read, *(c.jobs for c in self._children.values())):
                    os.close(fd)
                for other in self._children.values():
                    other.results.close()
                with open(result_write, "wb") as results:
                    while job := os.read(job_read, _JOB.size):  # empty once the parent is gone
                        # Format 2 keeps no object references: half the time of the default here.
                        data = marshal.dumps(_child_result(self._entries[_JOB.unpack(job)[0]]._loader), 2)
                        results.write(_LENGTH.pack(len(data)))
                        results.write(data)
                        results.flush()
            finally:
                os._exit(0)
        os.close(job_read)
        os.close(result_write)
        child = self._children[pid] = _Child(pid, job_write, open(result_read, "rb"))
        self._stats.children_started += 1
        return child

    def _reap(self, child: _Child) -> int:
        """Kill `child`, close its pipes, reap it, count its CPU time, and return its wait status."""
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
        self._stats.children_cpu_s += usage.ru_utime + usage.ru_stime
        return status

    def _adopt(self, entry: TimelineEntry, result: tuple) -> None:
        kind = result[0]
        if kind == "ok":
            _, counters, texts, encoded = result
            interned = self._origins
            origins = [interned.get(t) or interned.setdefault(t, OriginAs.parse(t)) for t in texts]
            entry.counters = counters
            entry._index = _read_only(tuple((starts, [origins[c] for c in codes]) for starts, codes in encoded))
            self._stats.snapshots_adopted += 1
            return
        if kind == "OSError":
            args, filename = result[1:]
            raise OSError(*args) if filename is None else OSError(*args, filename)
        message, offset = result[1:]
        cls = next((cls for cls in _CHILD_ERRORS if cls.__name__ == kind), None)
        if cls is None:
            raise ChildProcessError(f"{entry.path}: snapshot decode failed: {kind}: {message}")
        exc = cls.__new__(cls)
        exc.args = (message,)
        if offset is not None:
            exc.offset = offset
        raise exc
