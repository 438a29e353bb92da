"""Byte ranges of the time-sorted record TSV, one per RIB snapshot, read as text.

Records are time-sorted, so the rows that snapshot i serves (times at or after
``ends[i - 1]`` and before ``ends[i]``) are one contiguous byte range of the
record TSV. ``record_slices`` finds each range's first row by bisecting the
file, ``slice_lines`` reads one range as a text-mode read of the whole file
reads it, and ``count_lines`` counts the lines before a range, for the line
number of a bad row in it. The attribute stage runs each range as a job in a
forked child (``cli._attribute_range``).

``cli`` imports this module only when a run is large enough to slice, so that
the other stages and small runs never compile it.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from typing import Optional

from .ingest import parse_timestamp


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
