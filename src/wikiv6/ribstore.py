"""Historical BGP RIB snapshots: MRT parsing, LPM lookup, time-nearest attribution.

The MRT reader handles the TABLE_DUMP_V2 family (RFC 6396): a PEER_INDEX_TABLE
followed by RIB_IPV4_UNICAST / RIB_IPV6_UNICAST records. Every record carries
one NLRI prefix and per-peer BGP attribute blobs; we pull the origin AS out of
each peer's AS_PATH (4-byte ASNs in this format) and settle disagreements by
plurality vote. Ties go to the lowest first differing ASN: ``64501`` beats
``64502`` and ``set:64501,64502``, and ``set:64501,64502`` beats
``set:64501,64503``; an ``unrouted`` prefix-table row loses every tie.

A snapshot's ``entries`` are its routes as sorted ``((version, network int,
prefix length), OriginAs)`` pairs, the keys ``LpmIndex`` indexes, so neither
the MRT decode, the index build nor the prefix-table writer makes an address
object.

``attribute`` loads each snapshot in process when the first record reaches it.
The ``attribute`` stage runs the time-sorted records as byte ranges, one per
snapshot that some record falls to (``slices``), each through ``attribute`` in
a forked child that loads only the snapshots its range reaches. A run that
forks no child is the one-range case: the whole file, in process.
"""

from __future__ import annotations

import io
import struct
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, TextIO

from .ingest import (
    RECORD_COLUMNS, EditRecord, Record, SiteId, format_record, format_timestamp, parse_timestamp, read_rows
)
from .netaddr import V6_KEY, IpAddress, Prefix, ip_key, key_text, parse_key, prefix_key

MRT_TABLE_DUMP_V2 = 13
TD2_PEER_INDEX_TABLE = 1
TD2_RIB_IPV4_UNICAST = 2
TD2_RIB_IPV6_UNICAST = 4

BGP_ATTR_AS_PATH = 2
AS_SET = 1
AS_SEQUENCE = 2

_HEADER = struct.Struct(">IHHI")


class TruncatedRecord(Exception):
    """Stream ended inside an MRT record; offset is where that record starts."""

    def __init__(self, offset: int):
        super().__init__(f"truncated MRT record at byte {offset}")
        self.offset = offset


class MissingPeerIndex(Exception):
    """TABLE_DUMP_V2 stream without a leading PEER_INDEX_TABLE."""


class EmptyTimeline(Exception):
    """No RIB snapshots available to attribute against."""


class UnsortedInput(Exception):
    """attribute() requires records sorted by timestamp."""


class BadPrefixTable(Exception):
    """Prefix-table TSV is unusable (missing captured_at header)."""


@dataclass(frozen=True)
class OriginAs:
    """Origin of a prefix: a single ASN, an ambiguous AS_SET, or unrouted."""

    kind: str  # "asn" | "set" | "unrouted"
    asns: tuple[int, ...] = ()

    @classmethod
    def from_asn(cls, asn: int) -> "OriginAs":
        if asn <= 0:
            raise ValueError(f"ASN must be positive: {asn}")
        return cls("asn", (asn,))

    @classmethod
    def ambiguous(cls, asns: Iterable[int]) -> "OriginAs":
        values = tuple(sorted(set(asns)))
        if not values:
            raise ValueError("empty AS set")
        if len(values) == 1:
            return cls.from_asn(values[0])
        return cls("set", values)

    @cached_property
    def text(self) -> str:
        if self.kind == "asn":
            return str(self.asns[0])
        if self.kind == "set":
            return "set:" + ",".join(str(a) for a in self.asns)
        return "unrouted"

    @classmethod
    def parse(cls, text: str) -> "OriginAs":
        if text == "unrouted":
            return UNROUTED
        if text.startswith("set:"):
            return cls.ambiguous(int(a) for a in text[4:].split(","))
        return cls.from_asn(int(text))

    def __str__(self) -> str:
        return self.text


UNROUTED = OriginAs("unrouted")


RouteKey = tuple[int, int, int]  # (IP version, network int, prefix length)
Route = tuple[RouteKey, OriginAs]


_ADDRESS = V6_KEY - 1  # the address bits of a key


@dataclass
class RibSnapshot:
    """A timestamped prefix -> origin table plus parse counters.

    ``entries`` holds one ``((version, network int, prefix length), origin)``
    pair per prefix, sorted by key: the routes ``build_lpm`` indexes.
    Constructed from ``(ip_network, OriginAs)`` pairs, a prefix given more
    than once keeps its voted origin.
    """

    captured_at: datetime
    pairs: InitVar[Iterable[tuple[Prefix, OriginAs]]] = ()
    peer_count: int = 0
    skipped_types: int = 0
    skipped_subtypes: int = 0
    malformed_attributes: int = 0
    malformed_records: int = 0
    bad_rows: int = 0
    entries: list[Route] = field(init=False)

    def __post_init__(self, pairs: Iterable[tuple[Prefix, OriginAs]]) -> None:
        votes: dict[RouteKey, list[OriginAs]] = {}
        for prefix, origin in pairs:
            votes.setdefault((prefix.version, int(prefix.network_address), prefix.prefixlen), []).append(origin)
        self.entries = _voted_routes(votes)

    def counters(self) -> dict:
        """Capture time, route count and parse counters, as one stats row."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("captured_at", "entries")}
        return {"captured_at": format_timestamp(self.captured_at), "routes": len(self.entries), **row}


def _vote(candidates: list[OriginAs]) -> OriginAs:
    first = candidates[0]
    # parse_mrt_rib keeps one OriginAs per origin, so agreeing peers compare by identity.
    if candidates.count(first) == len(candidates):
        return first
    tally: dict[tuple[int, ...], int] = {}
    for origin in candidates:
        tally[origin.asns] = tally.get(origin.asns, 0) + 1
    # Plurality across peers; ties go to the lowest first differing ASN, so an
    # ASN beats an AS_SET that starts with it, and unrouted (no ASNs) loses.
    top = max(tally.values())
    tied = [asns for asns, n in tally.items() if n == top]
    winner = tied[0] if len(tied) == 1 else min(tied, key=lambda asns: (not asns, asns))
    return next(origin for origin in candidates if origin.asns == winner)


def _voted_routes(votes: dict[RouteKey, list[OriginAs]]) -> list[Route]:
    """Sorted routes, one per key, each key's candidate origins settled by _vote."""
    return [(key, _vote(votes[key])) for key in sorted(votes)]


def parse_mrt_rib(stream: BinaryIO) -> RibSnapshot:
    """Parse one MRT TABLE_DUMP_V2 file into a voted RibSnapshot.

    Unknown MRT types/subtypes are skipped and counted. Raises TruncatedRecord
    if the stream ends mid-record and MissingPeerIndex if RIB records appear
    before a PEER_INDEX_TABLE (or the stream holds no records at all). The
    stream must be seekable.
    """
    start = stream.tell()
    size = stream.seek(0, io.SEEK_END) - stream.seek(start)  # bytes from `start` on
    offset = 0
    captured_at: Optional[datetime] = None
    peer_count: Optional[int] = None
    votes: dict[RouteKey, list[OriginAs]] = {}
    # One OriginAs per ASN (int key) and per AS_SET (tuple key) seen in this parse.
    origins: dict[object, OriginAs] = {}
    snapshot = RibSnapshot(datetime.fromtimestamp(0, timezone.utc))

    while True:
        header = stream.read(_HEADER.size)
        if not header:
            break
        if len(header) < _HEADER.size:
            raise TruncatedRecord(offset)
        ts, mrt_type, subtype, length = _HEADER.unpack(header)
        end = offset + _HEADER.size + length
        if end > size:  # found before the read, as a buffered read allocates `length` first
            raise TruncatedRecord(offset)
        body = stream.read(length)
        if len(body) < length:
            raise TruncatedRecord(offset)
        if captured_at is None:
            captured_at = datetime.fromtimestamp(ts, timezone.utc)
        if mrt_type != MRT_TABLE_DUMP_V2:
            snapshot.skipped_types += 1
        elif subtype == TD2_PEER_INDEX_TABLE:
            peer_count = _parse_peer_index(body)
        elif subtype in (TD2_RIB_IPV4_UNICAST, TD2_RIB_IPV6_UNICAST):
            if peer_count is None:
                raise MissingPeerIndex(f"RIB record at byte {offset} before PEER_INDEX_TABLE")
            _parse_rib_record(body, 4 if subtype == TD2_RIB_IPV4_UNICAST else 6, votes, origins, snapshot)
        else:
            snapshot.skipped_subtypes += 1
        offset = end

    if captured_at is None or peer_count is None:
        raise MissingPeerIndex("stream contains no PEER_INDEX_TABLE")
    snapshot.captured_at = captured_at
    snapshot.peer_count = peer_count
    snapshot.entries = _voted_routes(votes)
    return snapshot


def _parse_peer_index(body: bytes) -> int:
    if len(body) < 8:
        return 0
    (view_len,) = struct.unpack_from(">H", body, 4)
    pos = 6 + view_len
    if pos + 2 > len(body):
        return 0
    (count,) = struct.unpack_from(">H", body, pos)
    return count


_U32 = struct.Struct(">I")


def _parse_rib_record(
    body: bytes,
    version: int,
    votes: dict[RouteKey, list[OriginAs]],
    origins: dict[object, OriginAs],
    snapshot: RibSnapshot,
) -> None:
    """Add one RIB record's peer origins to `votes`, decoding each entry in place."""
    width = 32 if version == 4 else 128
    size = len(body)
    if size < 5:
        snapshot.malformed_records += 1
        return
    plen = body[4]
    nbytes = (plen + 7) // 8
    pos = 5 + nbytes
    if plen > width or pos + 2 > size:
        snapshot.malformed_records += 1
        return
    # Bits past the prefix length are irrelevant (RFC 4271 section 4.3): drop them.
    network = int.from_bytes(body[5:pos], "big") >> (8 * nbytes - plen) << (width - plen)
    entry_count = body[pos] << 8 | body[pos + 1]
    pos += 2
    peer_origins: list[OriginAs] = []
    for _ in range(entry_count):
        # Peer entry: peer index (2), originated time (4), attribute length (2), attributes.
        attr = pos + 8
        if attr > size:
            snapshot.malformed_records += 1
            break
        end = attr + (body[pos + 6] << 8 | body[pos + 7])
        if end > size:
            snapshot.malformed_records += 1
            break
        pos = end
        origin = None
        while attr + 3 <= end:  # attribute: flags, type, length (1 or 2 bytes), data
            if body[attr] & 0x10:  # extended length
                start = attr + 4
                if start > end:
                    break
                stop = start + (body[attr + 2] << 8 | body[attr + 3])
            else:
                start = attr + 3
                stop = start + body[attr + 2]
            if stop > end:
                break
            if body[attr + 1] != BGP_ATTR_AS_PATH:
                attr = stop
                continue
            # AS_PATH segments: type, ASN count (nonzero), 4-byte ASNs; the last one names the origin.
            last = -1
            seg = start
            while seg + 2 <= stop and body[seg + 1]:
                last = seg
                seg += 2 + 4 * body[seg + 1]
            if seg != stop or last < 0:
                break
            if body[last] == AS_SEQUENCE:
                asn = _U32.unpack_from(body, stop - 4)[0]
                origin = origins.get(asn)
                if origin is None and asn:
                    origin = origins[asn] = OriginAs.from_asn(asn)
            elif body[last] == AS_SET:
                asns = struct.unpack_from(f">{body[last + 1]}I", body, last + 2)
                origin = origins.get(asns)
                if origin is None and all(asns):  # ASN 0 anywhere in the set is malformed (RFC 7607)
                    origin = origins[asns] = OriginAs.ambiguous(asns)
            break
        if origin is None:
            snapshot.malformed_attributes += 1
        else:
            peer_origins.append(origin)
    if peer_origins:
        votes.setdefault((version, network, plen), []).extend(peer_origins)


CAPTURED_AT_PREFIX = "# captured_at="


def load_prefix_table(lines: Iterable[str]) -> RibSnapshot:
    """Load the textual snapshot interchange format.

    First line: ``# captured_at=<ISO-8601>``; body rows ``prefix<TAB>origin``.
    Bad rows are skipped and counted.
    """
    captured_at: Optional[datetime] = None
    votes: dict[RouteKey, list[OriginAs]] = {}
    origins: dict[str, OriginAs] = {}
    bad_rows = 0
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(CAPTURED_AT_PREFIX) and captured_at is None:
                captured_at = parse_timestamp(line[len(CAPTURED_AT_PREFIX) :])
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            bad_rows += 1
            continue
        try:
            key = prefix_key(parts[0])
            origin = origins.get(parts[1]) or origins.setdefault(parts[1], OriginAs.parse(parts[1]))
        except ValueError:
            bad_rows += 1
            continue
        votes.setdefault(key, []).append(origin)
    if captured_at is None:
        raise BadPrefixTable("missing '# captured_at=' header")
    snapshot = RibSnapshot(captured_at, bad_rows=bad_rows)
    snapshot.entries = _voted_routes(votes)
    return snapshot


def write_prefix_table(snapshot: RibSnapshot, sink: TextIO) -> int:
    """Dump a snapshot in load_prefix_table's format; returns rows written."""
    sink.write(f"{CAPTURED_AT_PREFIX}{format_timestamp(snapshot.captured_at)}\n")
    for (version, network, plen), origin in snapshot.entries:
        sink.write(f"{key_text(network | V6_KEY if version == 6 else network)}/{plen}\t{origin.text}\n")
    return len(snapshot.entries)


class LpmIndex:
    """Longest-prefix match as a search over flat range tables, built once.

    Each IP version's routes are flattened into disjoint address runs: ``starts``
    holds each run's first address in ascending order and ``origins`` the origin
    of the longest prefix covering that run, UNROUTED where none does (the
    range-search form of LPM in Lampson, Srinivasan and Varghese, "IP Lookups
    Using Multiway and Multicolumn Search"). A lookup is one bisect into ``starts``.
    The index holds only these tables and cannot change; ``build_lpm`` makes one
    from a snapshot, whose routes are sorted by key and hold one voted origin per
    prefix.
    """

    __slots__ = ("_tables",)

    def __init__(self, routes: list[Route]):
        self._tables = _range_tables(routes)

    def lookup(self, ip: IpAddress) -> OriginAs:
        return self.lookup_key(ip_key(ip))

    def lookup_key(self, key: int) -> OriginAs:
        """The origin of an address key (``netaddr.ip_key``)."""
        starts, origins = self._tables[key >> 128]
        return origins[bisect_right(starts, key & _ADDRESS) - 1]


def _range_tables(routes: list[Route]) -> tuple[tuple[list[int], list[OriginAs]], ...]:
    """The v4 and the v6 (starts, origins) runs, from routes sorted by key."""
    split = bisect_left(routes, ((6,),))
    return _sweep(routes[:split], 32), _sweep(routes[split:], 128)


def _sweep(routes: list[Route], width: int) -> tuple[list[int], list[OriginAs]]:
    """Flatten one version's sorted routes into (starts, origins) runs.

    Keys sort parents before the prefixes they enclose, so a stack of the
    enclosing prefixes' last addresses gives the origin each gap falls
    back to when a nested prefix ends.
    """
    starts = [0]
    origins = [UNROUTED]
    enclosing: list[tuple[int, OriginAs]] = []  # (last address, origin), innermost on top

    def run(start: int, origin: OriginAs) -> None:
        if starts[-1] == start:  # an empty run: the new one replaces it
            origins[-1] = origin
        else:
            starts.append(start)
            origins.append(origin)

    for (_version, start, plen), origin in routes:
        while enclosing and enclosing[-1][0] < start:
            last, _origin = enclosing.pop()
            run(last + 1, enclosing[-1][1] if enclosing else UNROUTED)
        run(start, origin)
        enclosing.append((start + (1 << (width - plen)) - 1, origin))
    while enclosing:
        last, _origin = enclosing.pop()
        run(last + 1, enclosing[-1][1] if enclosing else UNROUTED)
    return starts, origins


def build_lpm(snapshot: RibSnapshot) -> LpmIndex:
    """The index of a snapshot's routes. ``TimelineEntry.index`` looks this name
    up in the module when it is called, so a replacement set here is used."""
    return LpmIndex(snapshot.entries)


class TimelineEntry:
    """One snapshot in a timeline; the LPM index is built on first use.

    ``counters`` is the loaded snapshot's ``RibSnapshot.counters()`` row, None
    until the first load.
    """

    __slots__ = ("captured_at", "counters", "_loader", "_index")

    def __init__(self, captured_at: datetime, loader: Callable[[], RibSnapshot]):
        self.captured_at = captured_at
        self.counters: Optional[dict] = None
        self._loader = loader
        self._index: Optional[LpmIndex] = None

    def index(self) -> LpmIndex:
        if self._index is None:
            snapshot = self._loader()
            self.counters = snapshot.counters()
            self._index = build_lpm(snapshot)
        return self._index

    def evict(self) -> None:
        self._index = None


class RibTimeline:
    """Snapshots ordered by capture time, supporting nearest-time queries. Snapshot i
    serves the times up to and including its midpoint with snapshot i + 1, floored to the
    microsecond, so a tie goes to the earlier one: those at or after ``ends[i - 1]`` and
    before ``ends[i]``, that midpoint plus 1 µs. The last ``ends`` entry is ``datetime.max``."""

    def __init__(self, entries: Sequence[TimelineEntry]):
        self.entries = sorted(entries, key=lambda e: e.captured_at)
        times = [e.captured_at for e in self.entries]
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("snapshot capture times must be strictly increasing")
        self.ends = [a + (b - a) // 2 + timedelta(microseconds=1) for a, b in zip(times, times[1:])]
        if times:
            self.ends.append(datetime.max.replace(tzinfo=times[-1].tzinfo))

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_snapshots(cls, snapshots: Iterable[RibSnapshot]) -> "RibTimeline":
        return cls([TimelineEntry(s.captured_at, lambda snap=s: snap) for s in snapshots])

    @classmethod
    def from_files(cls, paths: Iterable[str]) -> "RibTimeline":
        """Build from MRT files and/or prefix-table TSVs (sniffed by content).

        Capture times are read eagerly (cheaply); full parsing happens the
        first time a snapshot's index is needed. No child process starts here.
        """
        entries = []
        by_time: dict[datetime, str] = {}
        for path in paths:
            is_table, captured_at = _sniff(path)
            if captured_at in by_time:
                raise ValueError(
                    f"snapshot capture times must be strictly increasing: {by_time[captured_at]} "
                    f"and {path} are both captured at {format_timestamp(captured_at)}"
                )
            by_time[captured_at] = path
            entries.append(TimelineEntry(captured_at, _file_loader(path, is_table)))
        return cls(entries)

    def nearest_position(self, t: datetime) -> int:
        if not self.entries:
            raise EmptyTimeline("timeline has no snapshots")
        return bisect_right(self.ends, t, 0, len(self.ends) - 1)


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """Prefix a snapshot file's error message with its path; type and ``.offset`` stay."""
    try:
        yield
    except (TruncatedRecord, MissingPeerIndex, BadPrefixTable, ValueError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _sniff(path: str) -> tuple[bool, datetime]:
    """(is a prefix table, capture time) of a snapshot file, read from its head.

    A prefix table starts with ``#``; anything else is read as MRT.
    """
    with _naming(path), open(path, "rb") as fh:
        if fh.peek(1)[:1] == b"#":
            # Decoded as the loader reads it: UTF-8 with surrogateescape, universal newlines.
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape")
            first = text.readline().rstrip("\n")
            text.detach()  # so that only `fh` closes the file
            if not first.startswith(CAPTURED_AT_PREFIX):
                raise BadPrefixTable("missing '# captured_at=' header")
            return True, parse_timestamp(first[len(CAPTURED_AT_PREFIX) :])
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedRecord(0)
    (ts,) = struct.unpack_from(">I", header)
    return False, datetime.fromtimestamp(ts, timezone.utc)


def _file_loader(path: str, is_table: bool) -> Callable[[], RibSnapshot]:
    def load() -> RibSnapshot:
        # Loads happen lazily, mid-attribution, so the error must name the file.
        with _naming(path):
            if is_table:
                # A row with a non-UTF-8 byte fails its prefix or origin check and is counted.
                with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                    return load_prefix_table(fh)
            with open(path, "rb") as fh:
                return parse_mrt_rib(fh)

    return load


class AttributedRecord(Record):
    """An EditRecord plus the origin AS at the nearest snapshot."""

    __slots__ = ("_origin", "_delta")
    _FIELDS = ("timestamp", "site", "ip", "origin", "snapshot_delta_s")

    origin = property(attrgetter("_origin"))
    snapshot_delta_s = property(attrgetter("_delta"))

    def __init__(self, timestamp: datetime, site: SiteId, ip: IpAddress, origin: OriginAs, snapshot_delta_s: int):
        super().__init__(timestamp, site, ip)
        self._origin = origin
        self._delta = snapshot_delta_s


_new = object.__new__


def _attributed_record(
    timestamp: datetime, site: SiteId, key: int, origin: OriginAs, delta: int, text: Optional[str]
) -> AttributedRecord:
    """An AttributedRecord from its address key and its canonical row text (or None)."""
    record = _new(AttributedRecord)
    record._timestamp = timestamp
    record._site = site
    record._key = key
    record._text = text
    record._origin = origin
    record._delta = delta
    return record


def attribute(records: Iterable[EditRecord], timeline: RibTimeline) -> Iterator[AttributedRecord]:
    """Annotate time-sorted records with origin AS and snapshot delta.

    Sorted input lets the timeline advance monotonically: only a record past the
    current snapshot's hand-over looks for the next one, so one LPM index is in use
    and snapshots no record falls to are never adopted. Raises UnsortedInput on
    timestamp regressions and EmptyTimeline when there are no snapshots. Each
    record's canonical row text, when it has one, is carried over.
    """
    if not len(timeline):
        raise EmptyTimeline("timeline has no snapshots")
    entries, ends = timeline.entries, timeline.ends
    last = len(ends) - 1  # bisect below ends[-1], so datetime.max still goes to the last snapshot
    records = iter(records)
    first = next(records, None)
    if first is None:
        return
    end = first._timestamp  # so the first record moves to its snapshot
    pos = 0  # the snapshot whose index `lookup` and `captured_at` belong to
    for record in chain((first,), records):
        ts = record._timestamp
        if ts >= end:
            lookup = None  # so the evicted index is freed before the next one loads
            nearest = bisect_right(ends, ts, pos, last)
            for stale in range(pos, nearest):
                entries[stale].evict()
            pos = nearest
            lookup = entries[pos].index().lookup_key
            captured_at = entries[pos].captured_at
            end = ends[pos]
        elif ts < prev:
            raise UnsortedInput(f"record at {format_timestamp(ts)} after {format_timestamp(prev)}")
        prev = ts
        key = record._key
        delta = int((ts - captured_at).total_seconds())
        yield _attributed_record(ts, record._site, key, lookup(key), delta, record._text)


ATTRIBUTED_COLUMNS = (*RECORD_COLUMNS, "origin", "delta_s")
ATTRIBUTED_HEADER = "\t".join(ATTRIBUTED_COLUMNS)


def format_attributed(record: AttributedRecord) -> str:
    return f"{format_record(record)}\t{record._origin.text}\t{record._delta}"


def write_attributed(records: Iterable[AttributedRecord], sink: TextIO) -> int:
    sink.write(ATTRIBUTED_HEADER + "\n")
    count = 0
    for record in records:
        sink.write(format_attributed(record) + "\n")
        count += 1
    return count


def read_attributed(lines: Iterable[str]) -> Iterator[AttributedRecord]:
    """Inverse of write_attributed; raises BadRow on a row that does not decode."""
    origins: dict[str, OriginAs] = {}

    def decode(ts_text: str, site: SiteId, ip_text: str, origin_text: str, delta_text: str) -> AttributedRecord:
        timestamp = parse_timestamp(ts_text)
        key = parse_key(ip_text)
        origin = origins.get(origin_text) or origins.setdefault(origin_text, OriginAs.parse(origin_text))
        return _attributed_record(timestamp, site, key, origin, int(delta_text), None)

    return read_rows(lines, ATTRIBUTED_COLUMNS, decode)
