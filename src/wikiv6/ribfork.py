"""RIB snapshot files decoded in forked child processes, for ``ribstore.attribute``.

A child, one of ``forkjobs.ForkedJobs``, runs a ``TimelineEntry``'s own loader
and ``build_lpm`` and sends back the snapshot's counters row and its range
tables, origins as codes into a list of origin texts, as one ``marshal``
payload on a pipe. The parent raises a child's error again, as the same type,
only when a record reaches that snapshot.
"""

from __future__ import annotations

from typing import Callable

from .forkjobs import ChildLost, ForkedJobs
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


class ChildDecodes:
    """Snapshot files decoded ahead of the records by at most ``workers`` forked children.

    The children are ``forkjobs.ForkedJobs`` whose job is a timeline position:
    a child runs that entry's loader and ``build_lpm`` and sends back the
    ``_child_result``. They are forked when the first record needs a snapshot.
    ``serve(pos)`` kills the children still decoding positions before ``pos``,
    keeps the next file-backed entries from ``pos`` on assigned, and adopts the
    result for ``pos`` into its entry: the counters row and an index whose
    origins are interned by text across the timeline. A child's error is raised
    again, as the same type and message, only on adoption.
    """

    def __init__(self, entries: list[TimelineEntry], workers: int, stats: DecodeStats):
        self._entries = entries
        self._stats = stats
        self._jobs = ForkedJobs(self._decode, workers, stats)
        self._next = 0  # no position before this is assigned
        self._origins: dict[str, OriginAs] = {}

    def _decode(self, pos: int) -> tuple:
        return _child_result(self._entries[pos]._loader)

    def serve(self, pos: int) -> None:
        jobs = self._jobs
        for stale in [p for p in jobs.running if p < pos]:
            jobs.cancel(stale)
        self._next = max(self._next, pos)
        self._assign()
        if pos not in jobs.running:
            return
        try:
            result = jobs.result(pos)
        except ChildLost as exc:
            raise ChildProcessError(f"{self._entries[pos].path}: snapshot decode {exc}") from None
        self._assign()  # the child's next snapshot decodes while this one is unpacked
        self._adopt(self._entries[pos], result)

    def close(self) -> None:
        """Kill and reap every child."""
        self._jobs.close()

    def _assign(self) -> None:
        entries, jobs = self._entries, self._jobs
        while self._next < len(entries) and jobs.can_start():
            entry = entries[self._next]
            # A failed fork leaves what no child decodes to load in process.
            if entry.path is not None and entry._index is None and not jobs.start(self._next):
                return
            self._next += 1

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
