"""Stream MediaWiki full-history XML exports and keep only anonymous-IP edits.

The parser is an expat push parser fed in 64 KB chunks, so resident memory
depends on the largest single revision, not on the dump size. Its handlers
are closures over the revision state. Every element pushes or pops a name
stack; only page, revision, contributor and the five captured leaves
(siteinfo/dbname, page/ns, revision/timestamp, contributor/ip,
contributor/username) go further. No character-data handler is set except
while a captured leaf is open, so expat never turns article text or the
whitespace between elements into Python strings. A leaf's text may arrive in
several pieces (expat flushes its buffer at the end of each chunk), and the
pieces are joined when the leaf closes.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TypeVar
from xml.parsers import expat

from .netaddr import IpAddress, NotAnIp, canonical_key, ip_key, key_ip, key_text

# Longest suffix first; the bare "wiki" suffix is the flagship encyclopedia.
_FAMILY_SUFFIXES = (
    ("wikiversity", "wikiversity"),
    ("wikivoyage", "wikivoyage"),
    ("wiktionary", "wiktionary"),
    ("wikisource", "wikisource"),
    ("wikimedia", "wikimedia"),
    ("wikibooks", "wikibooks"),
    ("wikiquote", "wikiquote"),
    ("wikinews", "wikinews"),
    ("wiki", "wikipedia"),
)


@dataclass(frozen=True)
class SiteId:
    """One wiki, e.g. code="enwiki" -> language "en", family "wikipedia"."""

    code: str
    language: str
    family: str

    @classmethod
    def from_code(cls, code: str) -> "SiteId":
        if not code or not code.isascii() or not code.isalnum() or code != code.lower():
            raise ValueError(f"bad site code: {code!r}")
        for suffix, family in _FAMILY_SUFFIXES:
            if code.endswith(suffix):
                stem = code[: -len(suffix)]
                language = stem if 2 <= len(stem) <= 3 and stem.isalpha() else ""
                return cls(code, language, family)
        return cls(code, "", "other")


class Record:
    """Base of the immutable record types: slotted fields behind read-only properties.

    A record stores its address as a key (``netaddr.ip_key``); ``ip`` builds
    the ``ipaddress`` object only when it is read. A record decoded from text
    that was already canonical also keeps that text, ``timestamp<TAB>site<TAB>ip``,
    so it can be written out again as it came in. Records compare, hash and
    print by their public fields, in ``_FIELDS`` order; the text plays no part.
    """

    __slots__ = ("_timestamp", "_site", "_key", "_text")
    _FIELDS: tuple[str, ...] = ()

    def __init__(self, timestamp: datetime, site: SiteId, ip: IpAddress):
        self._timestamp = timestamp
        self._site = site
        self._key = ip_key(ip)
        self._text = None

    timestamp = property(attrgetter("_timestamp"))
    site = property(attrgetter("_site"))
    key = property(attrgetter("_key"))

    @property
    def ip(self) -> IpAddress:
        return key_ip(self._key)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{self.__class__.__qualname__}({fields})"


class EditRecord(Record):
    """One anonymous edit: when, where, and the editor's IP.

    Timestamps come from the dump verbatim (UTC, second resolution); real
    corpora fall between 2001 and the dump date.
    """

    __slots__ = ()
    _FIELDS = ("timestamp", "site", "ip")


_new = object.__new__


def _edit_record(timestamp: datetime, site: SiteId, key: int, text: Optional[str]) -> EditRecord:
    """An EditRecord from its address key and its canonical row text (or None)."""
    record = _new(EditRecord)
    record._timestamp = timestamp
    record._site = site
    record._key = key
    record._text = text
    return record


class StreamMalformed(Exception):
    """Ill-formed XML; parsing aborted at the reported position."""

    def __init__(self, message: str, line: int, column: int, byte_index: int):
        super().__init__(f"{message} (line {line}, column {column}, byte {byte_index})")
        self.line = line
        self.column = column
        self.byte_index = byte_index


@dataclass
class ParseStats:
    """Skip counters for one dump file. Conservation law:

    anonymous + registered + deleted + malformed_ip
            + missing_timestamp + namespace_filtered == revisions
    """

    revisions: int = 0
    anonymous: int = 0
    skipped_registered: int = 0
    skipped_deleted: int = 0
    skipped_malformed_ip: int = 0
    skipped_missing_timestamp: int = 0
    skipped_namespace: int = 0
    siteinfo_conflicts: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def canonical_timestamp(text: str) -> bool:
    """True iff `text`, which parse_timestamp accepts, is exactly format_timestamp of its value.

    Separators at their ``YYYY-MM-DDTHH:MM:SSZ`` places are enough: a parsable
    text with them has only digits in the other 14 places. Looser shapes
    such as ``03:04,05`` or ``03404305`` parse but are written differently.
    """
    return len(text) == 20 and text[4::3] == "--T::Z"


if sys.version_info >= (3, 11):
    _parse_utc = datetime.fromisoformat
else:  # fromisoformat accepts a bare Z only from Python 3.11 on

    def _parse_utc(text: str) -> datetime:
        return datetime.fromisoformat(text[:-1] + "+00:00")


def parse_timestamp(text: str) -> datetime:
    """Parse a dump timestamp: zero-padded ISO-8601 with a Z suffix or an explicit offset."""
    if canonical_timestamp(text):
        return _parse_utc(text)  # already UTC
    text = text.strip()
    # fromisoformat accepts a bare Z only from Python 3.11 on; RFC 3339 also allows "z".
    dt = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text)
    if dt.tzinfo is None:
        raise ValueError(f"naive timestamp: {text!r}")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # an offset that moves year 1 or 9999 out of range
        raise ValueError(f"timestamp out of range in UTC: {text!r}") from None


# Leaf elements whose character data we capture, keyed by (parent, element).
_CAPTURED = {
    ("siteinfo", "dbname"),
    ("page", "ns"),
    ("revision", "timestamp"),
    ("contributor", "ip"),
    ("contributor", "username"),
}
# Every element name either handler acts on; all others only move the stack.
_WATCHED = frozenset({"page", "revision", "contributor"} | {leaf for _, leaf in _CAPTURED})

_CHUNK = 1 << 16


def parse_dump_stream(
    xml: BinaryIO,
    site: SiteId,
    namespaces: Optional[Iterable[int]] = None,
    stats: Optional[ParseStats] = None,
) -> Iterator[EditRecord]:
    """Yield one EditRecord per anonymous-IP revision, in document order.

    `xml` must already be decompressed. Registered, deleted, malformed-IP and
    missing-timestamp revisions are skipped and counted in `stats`; a page
    namespace filter applies when `namespaces` is given. Raises
    StreamMalformed on ill-formed XML.
    """
    if stats is None:
        stats = ParseStats()
    ns_filter = set(namespaces) if namespaces is not None else None
    parser = expat.ParserCreate()
    parser.buffer_text = True
    pending: list[EditRecord] = []
    # The sentinel root keeps stack[-1] and stack[-2] valid at the document element.
    stack = [""]
    push = stack.append
    pop = stack.pop
    # Text of the open captured leaf; empty whenever `capturing` is false.
    chars: list[str] = []
    capturing = False
    page_ns: Optional[int] = None
    rev_timestamp: Optional[str] = None
    contrib_deleted = False
    contrib_ip: Optional[str] = None
    contrib_username: Optional[str] = None

    def start_element(name: str, attrs: dict[str, str]) -> None:
        nonlocal capturing, page_ns, rev_timestamp, contrib_deleted, contrib_ip, contrib_username
        push(name)
        if name not in _WATCHED:
            return
        parent = stack[-2]
        if (parent, name) in _CAPTURED:
            if capturing:  # a leaf nested in another drops the outer leaf's text
                chars.clear()
            capturing = True
            parser.CharacterDataHandler = chars.append
        elif name == "page":
            page_ns = None
        elif name == "revision" and parent == "page":
            rev_timestamp = None
            contrib_deleted = False
            contrib_ip = None
            contrib_username = None
        elif name == "contributor" and parent == "revision":
            contrib_deleted = attrs.get("deleted") is not None

    def end_element(name: str) -> None:
        nonlocal capturing, page_ns, rev_timestamp, contrib_ip, contrib_username
        pop()
        if name not in _WATCHED:
            return
        parent = stack[-1]
        if capturing and (parent, name) in _CAPTURED:
            text = "".join(chars)
            chars.clear()
            capturing = False
            parser.CharacterDataHandler = None
            if name == "dbname":
                if text.strip() != site.code:
                    stats.siteinfo_conflicts += 1
            elif name == "ns":
                try:
                    page_ns = int(text.strip())
                except ValueError:
                    page_ns = None
            elif name == "timestamp":
                rev_timestamp = text
            elif name == "ip":
                contrib_ip = text
            elif name == "username":
                contrib_username = text
        elif name == "revision" and parent == "page":
            finish_revision()

    def finish_revision() -> None:
        stats.revisions += 1
        if ns_filter is not None and page_ns not in ns_filter:
            stats.skipped_namespace += 1
            return
        # The <ip> element is the sole sign of an anonymous edit; usernames are
        # never parsed as addresses (wikis ban IP-shaped usernames).
        if contrib_deleted or (contrib_ip is None and contrib_username is None):
            stats.skipped_deleted += 1
            return
        if contrib_ip is None:
            stats.skipped_registered += 1
            return
        if rev_timestamp is None:
            stats.skipped_missing_timestamp += 1
            return
        try:
            record = _decode_record(rev_timestamp, site, contrib_ip)
        except NotAnIp:
            stats.skipped_malformed_ip += 1
            return
        except ValueError:  # the timestamp is decoded first
            stats.skipped_missing_timestamp += 1
            return
        stats.anonymous += 1
        pending.append(record)

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    try:
        while True:
            chunk = xml.read(_CHUNK)
            try:
                parser.Parse(chunk, not chunk)
            except expat.ExpatError as exc:
                raise StreamMalformed(
                    str(exc),
                    parser.ErrorLineNumber,
                    parser.ErrorColumnNumber,
                    parser.ErrorByteIndex,
                ) from None
            if pending:
                yield from pending
                pending.clear()
            if not chunk:
                break
    finally:
        # The handlers refer to the parser; dropping them frees its buffers now
        # rather than at the next full garbage collection.
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None


RECORD_COLUMNS = ("timestamp", "site", "ip")
RECORD_HEADER = "\t".join(RECORD_COLUMNS)


def format_timestamp(ts: datetime) -> str:
    """Inverse of parse_timestamp at second resolution: ``YYYY-MM-DDTHH:MM:SSZ`` in UTC."""
    # isoformat zero-pads the year to four digits; strftime("%Y") does not on glibc.
    return ts.astimezone(timezone.utc).isoformat()[:19] + "Z"


def format_record(record: Record) -> str:
    """A record's ``timestamp<TAB>site<TAB>ip`` row text, canonical."""
    text = record._text
    if text is None:
        text = f"{format_timestamp(record._timestamp)}\t{record._site.code}\t{key_text(record._key)}"
    return text


def write_records(records: Iterable[EditRecord], sink: BinaryIO) -> int:
    """Write the canonical record TSV (header + one row per record)."""
    count = 0
    sink.write((RECORD_HEADER + "\n").encode("utf-8"))
    for record in records:
        sink.write((format_record(record) + "\n").encode("utf-8"))
        count += 1
    return count


class BadRow(ValueError):
    """An interchange TSV row that does not decode; `lineno` is 1-based."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


_Row = TypeVar("_Row")


def read_rows(lines: Iterable[str], columns: Sequence[str], make: Callable[..., _Row]) -> Iterator[_Row]:
    """Decode an interchange TSV whose first three columns are timestamp, site, ip.

    A leading header line and blank lines are skipped. Each row becomes
    ``make(timestamp text, site, ip text, *rest)``, with the site decoded and
    ``rest`` the remaining column texts. A row with the wrong column count or
    a field that does not decode (``make`` signals this with ValueError)
    raises BadRow. Read files with ``errors="surrogateescape"``: a byte that
    is not UTF-8 then fails its field's check and is reported on its own line.
    """
    header = "\t".join(columns)
    width = len(columns)
    sites: dict[str, SiteId] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line or (lineno == 1 and line == header):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise BadRow(lineno, f"expected {width} columns, got {len(fields)}")
        try:
            site = sites.get(fields[1])
            if site is None:
                site = sites[fields[1]] = SiteId.from_code(fields[1])
            fields[1] = site
            row = make(*fields)
        except ValueError as exc:
            raise BadRow(lineno, str(exc)) from None
        yield row


def _decode_record(ts_text: str, site: SiteId, ip_text: str) -> EditRecord:
    """The record of a row's timestamp and address texts, decoded in that order;
    it keeps its row text when both are canonical."""
    canonical = canonical_timestamp(ts_text)
    timestamp = _parse_utc(ts_text) if canonical else parse_timestamp(ts_text)
    key, canonical_ip = canonical_key(ip_text)
    text = f"{ts_text}\t{site.code}\t{ip_text}" if canonical and canonical_ip else None
    return _edit_record(timestamp, site, key, text)


def read_records(lines: Iterable[str]) -> Iterator[EditRecord]:
    """Inverse of write_records; accepts any iterable of text lines.

    A row whose timestamp and address are already canonical keeps its text,
    so format_record gives it back unchanged.
    """
    return read_rows(lines, RECORD_COLUMNS, _decode_record)
