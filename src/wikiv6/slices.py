"""The attribute stage's records, one snapshot's slice per job, in forked children.

Records are time-sorted, so the rows that snapshot i serves (times at or after
``ends[i - 1]`` and before ``ends[i]``) are one contiguous byte range of the
record TSV. ``record_slices`` finds each range's first row by bisecting the
file. ``attribute_sliced`` runs each range as a ``forkjobs.ForkedJobs`` job: the
child streams its rows through ``cli``'s read, attribute and write steps into a
part file, loading only the snapshots its rows reach, and sends back its counts
and those snapshots' counters rows. The parent appends the parts to the output
in order as they arrive, and raises a child's error again, as the same type and
message, only where the in-process run would raise it.

``cli`` imports this module only when a run is large enough to slice, so that
the other stages and small runs never compile it.
"""

from __future__ import annotations

import io
import os
import shutil
from contextlib import closing, contextmanager
from typing import Optional

from . import cli
from .ingest import BadRow, parse_timestamp
from .ribstore import ATTRIBUTED_HEADER, BadPrefixTable, MissingPeerIndex, TruncatedRecord, UnsortedInput


class _Window(io.RawIOBase):
    """Bytes `start` up to `stop` of an unbuffered binary file."""

    def __init__(self, raw, start: int, stop: int):
        raw.seek(start)
        self._raw = raw
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view, view[: self._left] as window:
            n = self._raw.readinto(window)
        self._left -= n
        return n


@contextmanager
def slice_lines(path: str, start: int, stop: int):
    """The text lines of bytes `start` up to `stop` of `path`, decoded as a
    text-mode open of the whole file decodes them (UTF-8 with surrogateescape,
    universal newlines) when both offsets are line starts."""
    with open(path, "rb", buffering=0) as raw:
        with io.TextIOWrapper(io.BufferedReader(_Window(raw, start, stop)), encoding="utf-8", errors="surrogateescape") as text:
            yield text


def count_lines(path: str, stop: int) -> int:
    """The text lines before byte `stop`, a line start, of `path`."""
    with slice_lines(path, 0, stop) as lines:
        return sum(1 for _ in lines)


class _Unsliceable(Exception):
    """A probed line whose timestamp the bisect cannot read."""


def record_slices(path: str, ends: list) -> Optional[list]:
    """``(start, stop)`` byte ranges of the time-sorted record TSV at `path`,
    one per snapshot that some row's time (before ``ends[i]``) falls to; the
    first also takes the header and every row before the first boundary.

    Each boundary is the first data row whose time is at or after an ``ends``
    time, found by bisecting the file and probing rows with
    ``parse_timestamp``. The data row before a boundary was probed too and is
    earlier than it, so even in an unsorted file no timestamp regression spans
    two ranges. None where a probed row has no readable timestamp or holds a
    bare carriage return, which a text-mode read splits into two lines.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def first_row(x: int) -> tuple:
            """(offset, time) of the first non-blank line starting at or after
            `x`, which is past the first line; (size, None) if there is none."""
            fh.seek(x - 1)
            fh.readline()  # to the first line start at or after x
            while True:
                offset = fh.tell()
                line = fh.readline()
                if not line:
                    return size, None
                text = line.rstrip(b"\n")
                text = text[:-1] if text.endswith(b"\r") else text
                if b"\r" in text:
                    raise _Unsliceable
                if text:
                    try:
                        return offset, parse_timestamp(text.split(b"\t", 1)[0].decode("utf-8", "surrogateescape"))
                    except ValueError:
                        raise _Unsliceable from None

        fh.readline()  # the header, or a first data row: the first range has it
        lo = fh.tell()
        starts = [0]
        try:
            first = first_row(lo)[0] if lo < size else size
            for end in ends[:-1]:
                hi = size
                while lo < hi:  # the least x whose first row is at or after `end`, if any
                    mid = (lo + hi) // 2
                    _, ts = first_row(mid)
                    if ts is None or ts >= end:
                        hi = mid
                    else:
                        lo = mid + 1
                offset = first_row(lo)[0] if lo < size else size
                if max(first, starts[-1]) < offset < size:
                    starts.append(offset)
        except _Unsliceable:
            return None
    return list(zip(starts, starts[1:] + [size]))


# Errors a slice sends back by name, and the parent raises again as the same type.
SLICE_ERRORS = (BadRow, UnsortedInput, TruncatedRecord, MissingPeerIndex, BadPrefixTable, ValueError)


def attribute_slice(records_path: str, part: str, start: int, stop: int, timeline) -> tuple:
    """Attribute the records in bytes `start` up to `stop` of `records_path`
    into `part` + ".tmp", in a forked child or, where none could be forked,
    in process.

    Returns ``("ok", records, unrouted, |delta| counts, {position: counters
    row})``, marshal-able; an OSError as ``("OSError", args, filename)``, any
    other error of ``SLICE_ERRORS`` as ``(type name, message, offset or line
    number or None)``. The timeline's snapshots are unloaded again afterwards,
    so that the next slice a child runs starts from none.
    """
    tally = cli._Tally()
    try:
        with slice_lines(records_path, start, stop) as lines, open(f"{part}.tmp", "w", encoding="utf-8") as sink:
            cli._attribute_lines(lines, timeline, sink, tally)
    except OSError as exc:
        return ("OSError", exc.args, exc.filename)
    except SLICE_ERRORS as exc:
        name = next(cls.__name__ for cls in SLICE_ERRORS if isinstance(exc, cls))
        return (name, str(exc), getattr(exc, "lineno", getattr(exc, "offset", None)))
    finally:
        rows = cli._snapshot_rows(timeline)
        for entry in timeline.entries:
            entry.counters = None
            entry.evict()
    return ("ok", tally.count, tally.unrouted, tally.deltas, rows)


def slice_error(outcome: tuple, lines_before) -> Exception:
    """The error a failed slice's outcome names, as that type; a BadRow's line
    number counts ``lines_before()`` the slice's first line."""
    kind = outcome[0]
    if kind == "OSError":
        args, filename = outcome[1:]
        return OSError(*args) if filename is None else OSError(*args, filename)
    message, detail = outcome[1:]
    if kind == "BadRow":
        return BadRow(lines_before() + detail, message.split(": ", 1)[1])
    cls = next(cls for cls in SLICE_ERRORS if cls.__name__ == kind)
    exc = cls.__new__(cls)
    exc.args = (message,)
    if detail is not None:
        exc.offset = detail
    return exc


def attribute_sliced(
    records_path: str, attributed_path: str, timeline, size: int, tally, rows: dict, meanwhile
) -> Optional[dict]:
    """Attribute the records one slice per job in forked children, each written
    to a part file by ``attribute_slice``, and append the parts to
    `attributed_path` in order as they arrive. `size` is the bytes of input,
    counts go to `tally` (a ``cli._Tally``), snapshot counters rows to `rows`,
    and `meanwhile` runs while the parent first waits. Returns the ``decode``
    stats block.

    Raises the error the in-process run raises first: a later slice's error
    never comes ahead of an earlier one's, and a BadRow's line number counts
    the lines of the slices before its own. Returns None, having written
    nothing, where the records fall in one slice or cannot be sliced, or no
    child can be forked; the stage then runs in process.
    """
    try:
        slices = record_slices(records_path, timeline.ends)
    except OSError:  # the in-process run reports it
        return None
    if slices is None or len(slices) < 2:
        return None
    parts = [f"{attributed_path}.{k}" for k in range(len(slices))]

    def run(k: int) -> tuple:
        return attribute_slice(records_path, parts[k], *slices[k], timeline)

    jobs = cli._forked_jobs(run, size, cli._SLICE_MIN_BYTES, len(slices))
    if jobs is None:
        return None
    outcomes = cli._job_outcomes(
        jobs,
        len(slices),
        run,
        stops=lambda outcome: outcome[0] != "ok",
        lost=lambda k, exc: ("lost", f"{records_path}: the slice from byte {slices[k][0]} {exc}"),
        discard=lambda k: cli._discard(parts[k]),
        meanwhile=meanwhile,
    )
    header = (ATTRIBUTED_HEADER + "\n").encode("utf-8")
    with closing(outcomes), cli._replacing(attributed_path, binary=True) as sink:
        sink.write(header)
        for k, outcome in enumerate(outcomes):
            if outcome[0] == "lost":
                raise ChildProcessError(outcome[1])
            if outcome[0] != "ok":
                raise slice_error(outcome, lambda: count_lines(records_path, slices[k][0]))
            _, count, unrouted, deltas, snapshot_rows = outcome
            tally.count += count
            tally.unrouted += unrouted
            for d, n in deltas.items():
                tally.deltas[d] = tally.deltas.get(d, 0) + n
            rows.update(snapshot_rows)
            with open(f"{parts[k]}.tmp", "rb") as part:
                part.seek(len(header))
                shutil.copyfileobj(part, sink)
            cli._discard(parts[k])
    return {**jobs.stats.as_dict(), "snapshots_adopted": len(rows)}
