"""Aggregate anonymous-edit records into the longitudinal report tables.

All metrics reduce to distinct-key sets and first/last-seen maps, so partial
aggregates built per input shard merge losslessly (union / min / max) and any
merge order yields byte-identical tables. Distinct counting is exact.

The aggregate holds ints and packed bytes, not objects, wherever a table can
decode them: an address is one int key, a week or month is one int key (its
``YYYY-Www`` or ``YYYY-MM`` text is built only when a table row is written),
the AS series is one bin per week of ``origin code << 128 | v6 address``
members, and each address's sites, first and last sighting are packed into
one int (see ``PartialAggregate``).

``PartialAggregate.add`` takes records in time order, as ``extract`` writes
them and ``attribute`` requires, and keeps the open week's and month's
members in sets. A week or month bin is final once a later one arrives, and
is then packed into one sorted ``bytes`` column; weeks keep their v4 and v6
addresses in two maps. A sealed aggregate is plain dicts of ints and bytes,
so ``marshal`` carries it as it is. ``aggregate`` takes any order: it sorts
the records from the first late one onwards in memory, aggregates them apart
and merges them in.
"""

from __future__ import annotations

import heapq
import math
from array import array
from calendar import monthrange
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate, chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from struct import iter_unpack
from typing import Callable, Iterable, Iterator, Optional, Union

from .ingest import EditRecord
from .netaddr import V6_KEY as _V6, OuiDatabase, UNLISTED, eui64_mac, key_text, parse_key, prefix_key
from .ribstore import AttributedRecord, OriginAs, UnsortedInput

V4 = "v4"
V6 = "v6"

PREFIX_LENGTHS = (48, 56, 64, 128)

TABLE_NAMES = (
    "weekly_by_version",
    "site_fraction",
    "cumulative_prefixes",
    "ratio_per_48",
    "lifetimes",
    "weekly_by_as",
    "eui64_weekly",
    "eui64_fraction",
    "vendor_counts",
    "hitlist_overlap",
)


class BadHitlistRow(ValueError):
    """A hitlist line could not be parsed."""


@dataclass(frozen=True)
class LifetimeStat:
    ip: str
    first_seen: datetime
    last_seen: datetime
    lifetime_days: int


def round_fraction(x: float) -> float:
    """Display rounding for fractions: two decimals."""
    return round(x, 2)


def round_percent(x: float) -> float:
    """Display rounding for percentages: two significant figures."""
    if x == 0:
        return 0.0
    return round(x, 1 - math.floor(math.log10(abs(x))))


def _csv_text(value: object) -> str:
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_CSV_CELLS: dict[str, Callable[[object], str]] = {
    "s": _csv_text,
    "d": str,
    "f2": lambda value: f"{round_fraction(value):.2f}",
    "g": lambda value: repr(float(value)),
}


@dataclass
class ReportTable:
    """A named table with a fixed column schema and deterministic rendering.

    Format codes per column: ``s`` text, ``d`` integer, ``f2`` fraction shown
    with two decimals, ``g`` full-precision float.
    """

    name: str
    columns: tuple[str, ...]
    formats: tuple[str, ...]
    rows: list[tuple]

    def to_csv(self) -> str:
        cells = [_CSV_CELLS[fmt] for fmt in self.formats]
        out = [",".join(self.columns)]
        out += [",".join([cell(value) for cell, value in zip(cells, row)]) for row in self.rows]
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        """The rows as a JSON list of objects, byte for byte what
        ``json.dumps(rows, indent=2) + "\\n"`` writes, built without its
        pure-Python indenting encoder."""
        if not self.rows:
            return "[]\n"
        keys = [f"    {encode_basestring_ascii(column)}: " for column in self.columns]
        cells = [_JSON_CELLS[fmt] for fmt in self.formats]
        objects = [
            "  {\n" + ",\n".join([key + cell(value) for key, cell, value in zip(keys, cells, row)]) + "\n  }"
            for row in self.rows
        ]
        return "[\n" + ",\n".join(objects) + "\n]\n"


def _json_number(value: Union[int, float]) -> str:
    """A number as ``json`` writes it: ``NaN``, ``Infinity`` and ``-Infinity``
    for the non-finite floats, else the float's or int's ``repr``."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return int.__repr__(value)


_JSON_CELLS: dict[str, Callable[[object], str]] = {
    "s": lambda value: encode_basestring_ascii(str(value)),
    "d": lambda value: int.__repr__(int(value)),
    "f2": lambda value: _json_number(round_fraction(value)),
    "g": lambda value: _json_number(float(value)),
}


# Timestamps are packed as UTC microseconds since 0001-01-01, which fit in 64
# bits up to year 9999: an address's span is ``sites << 128 | first << 64 | last``.
_EPOCH = datetime(1, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US
_LAST = (1 << 64) - 1
_SITE_SHIFT = 128
_SPAN = (1 << _SITE_SHIFT) - 1
_SEALED = 1 << 64  # a sealed aggregate's open week and month, later than any record's

# Origin codes of the AS series: 0 unrouted, 1 any AS_SET, ASN + 1 for one ASN.
_UNROUTED_CODE = 0
_SET_CODE = 1
_CODE_SHIFT = 128  # above a v6 address's 128 bits

# Bytes per member in a sealed bin's packed column.
_V4_BYTES = 4
_V6_BYTES = 16  # a v6 key without its bit 128
_MEMBER_BYTES = 21  # an origin code (at most 2**32, 5 bytes) << 128 | v6 address
_TOP_BYTES = 6  # the top 48 bits of a v6 address


def _datetime(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


def _utc_us(record: Union[EditRecord, AttributedRecord]) -> int:
    """A record's time in UTC microseconds since 0001-01-01; it must be timezone-aware."""
    try:
        return (record.timestamp - _EPOCH) // _US
    except TypeError:
        raise ValueError(f"record timestamp is not timezone-aware: {record.timestamp!r}") from None


def week_label(week: int) -> str:
    """``YYYY-Www`` of a week key: UTC days since 0001-01-01, a Monday, ``// 7``."""
    iso = date.fromordinal(week * 7 + 1).isocalendar()
    return f"{iso[0]:04d}-W{iso[1]:02d}"


def _month(d: date) -> int:
    """Month key of a date: ``year * 12 + month - 1``."""
    return d.year * 12 + d.month - 1


def month_label(month: int) -> str:
    """``YYYY-MM`` of a ``_month`` key."""
    year, index = divmod(month, 12)
    return f"{year:04d}-{index + 1:02d}"


def _origin_code(origin: OriginAs) -> int:
    if origin.kind == "asn":
        return origin.asns[0] + 1
    return _SET_CODE if origin.kind == "set" else _UNROUTED_CODE


def _series_label(code: int) -> str:
    return str(code - 1) if code > _SET_CODE else ("unrouted", "set")[code]


def _series_order(code: int) -> tuple[bool, int]:
    """ASNs in numeric order, then ``set``, then ``unrouted``."""
    return (code <= _SET_CODE, code if code > _SET_CODE else _SET_CODE - code)


def _version(key: int) -> str:
    return V6 if key >> 128 else V4


def _pack(members: Iterable[int], width: int) -> bytes:
    """`members` sorted and packed into one column, `width` big-endian bytes each."""
    return b"".join([member.to_bytes(width, "big") for member in sorted(members)])


def _unpack(column: bytes, width: int) -> Iterator[int]:
    """The members of a packed column, in ascending order."""
    return map(int.from_bytes, map(itemgetter(0), iter_unpack(f"{width}s", column)), repeat("big"))


def _code_counts(bin: bytes) -> Counter:
    """Members per origin code of a ``weekly_as_ips`` bin; a member's first five bytes are its code."""
    codes = map(itemgetter(0), iter_unpack(f"5s{_MEMBER_BYTES - 5}s", bin))
    return Counter(map(int.from_bytes, codes, repeat("big")))


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PartialAggregate:
    """Mergeable per-shard aggregation state: bins of distinct keys and per-address spans.

    An address is one int, the record's ``key`` (``netaddr.ip_key``):
    ``int(ip)``, with bit 128 set for IPv6, so that ``10.0.0.1`` and
    ``::ffff:10.0.0.1`` stay two addresses. Text is built only for output.

    Bins are int keys of the record's UTC date, in time order; tables turn
    them into text with ``week_label`` and ``month_label``.

    - week: UTC days since 0001-01-01 ``// 7``; 0001-01-01 is a Monday, so
      each key is one ISO week.
    - month: ``year * 12 + month - 1``.
    - ``weekly_v4``: per week, the v4 addresses, 4 bytes each.
    - ``weekly_v6``: per week, the v6 addresses (the key without bit 128),
      16 bytes each.
    - ``weekly_as_ips``: per week, ``origin code << 128 | v6 address``, 21
      bytes each, where the code is 0 for unrouted, 1 for any AS_SET and
      ASN + 1 for one ASN, so a week pays for one bin however many origins it has.
    - ``month_48s``: per month, the top 48 bits of each v6 address, 6 bytes each.
    - ``first_last``: address key -> ``sites << 128 | first << 64 | last``.
      ``first`` and ``last`` are UTC microsecond counts since 0001-01-01
      (years 1 to 9999 fit in 64 bits), and ``sites`` has one bit per site
      the address was seen on.
    - ``sites``: site code -> its bit in ``first_last``, ``1 << 128 + i`` for
      the i-th site this aggregate saw.

    Each bin of the four bin maps is one ``bytes`` column of its members,
    sorted and packed big-endian at its map's width; a week or month with no
    members has no bin. ``add`` takes records in time order and keeps the
    open week's and month's members in four sets, so a bin is final once a
    record of a later bin arrives, and ``add`` then packs the sets into their
    maps; ``seal`` packs the last ones. Before it changes anything, ``add``
    raises ``UnsortedInput`` on a record of an earlier week, on a v6 record of
    an earlier month, and on any record after ``seal``. Tables and ``merge``
    read only sealed aggregates, as ``aggregate`` and ``merge`` return them;
    their fields are then plain dicts of ints and bytes, which ``marshal``
    carries as they are.

    Record timestamps must be timezone-aware (``parse_timestamp`` returns
    UTC; ``add`` raises ``ValueError`` on a naive one).
    """

    def __init__(self):
        self.sites: dict[str, int] = {}
        self.weekly_v4: dict[int, bytes] = {}
        self.weekly_v6: dict[int, bytes] = {}
        self.weekly_as_ips: dict[int, bytes] = {}
        self.month_48s: dict[int, bytes] = {}
        self.first_last: dict[int, int] = {}
        # The open week and month, and their members: every earlier bin is packed.
        self._week = self._month = -1
        self._month_days = (0, 0)  # the open month's first UTC day, and the next month's
        self._open_v4: set[int] = set()
        self._open_v6: set[int] = set()
        self._open_members: set[int] = set()
        self._open_tops: set[int] = set()

    def add(self, record: Union[EditRecord, AttributedRecord]) -> None:
        try:
            us = (record.timestamp - _EPOCH) // _US
        except TypeError:
            us = _utc_us(record)  # raises the ValueError for a naive timestamp
        day = us // _DAY_US
        week = day // 7
        if week != self._week:
            self._enter_week(week)
        key = record.key
        if key >> 128:
            if not self._month_days[0] <= day < self._month_days[1]:
                self._enter_month(day)
            address = key ^ _V6
            self._open_v6.add(address)
            self._open_tops.add(address >> 80)
            origin = getattr(record, "origin", None)
            if origin is not None:
                self._open_members.add(_origin_code(origin) << _CODE_SHIFT | address)
        else:
            self._open_v4.add(key)
        site = self.sites.get(record.site.code) or self._new_site(record.site.code)
        # Few operations touch the whole span: with many sites it is long.
        seen = self.first_last.get(key)
        if seen is None:
            self.first_last[key] = site | (us << 64 | us)
        elif us > (last := seen & _LAST):
            self.first_last[key] = (seen | site) ^ (last ^ us)
        elif us < (first := seen >> 64 & _LAST):
            self.first_last[key] = (seen | site) ^ (first ^ us) << 64
        elif not seen & site:
            self.first_last[key] = seen | site

    def _new_site(self, code: str) -> int:
        bit = self.sites[code] = 1 << _SITE_SHIFT + len(self.sites)
        return bit

    def _enter_week(self, week: int) -> None:
        """Pack the open week and make `week`, a later one, the open week."""
        if week < self._week:
            raise UnsortedInput(f"record of {week_label(week)} after a later week, or after seal()")
        _seal(self.weekly_v4, self._week, self._open_v4, _V4_BYTES)
        _seal(self.weekly_v6, self._week, self._open_v6, _V6_BYTES)
        _seal(self.weekly_as_ips, self._week, self._open_members, _MEMBER_BYTES)
        self._week = week

    def _enter_month(self, day: int) -> None:
        """Pack the open month and make the month of UTC day `day`, a later one, the open month."""
        d = date.fromordinal(day + 1)
        month = _month(d)
        if month < self._month:
            raise UnsortedInput(f"v6 record of {month_label(month)} after a later month")
        _seal(self.month_48s, self._month, self._open_tops, _TOP_BYTES)
        first = day + 1 - d.day
        self._month_days = (first, first + monthrange(d.year, d.month)[1])
        self._month = month

    def seal(self) -> None:
        """Pack the open week and month. ``add`` then refuses every record."""
        self._enter_week(_SEALED)
        _seal(self.month_48s, self._month, self._open_tops, _TOP_BYTES)
        self._month = _SEALED


def _seal(bins: dict[int, bytes], bin_key: int, members: set[int], width: int) -> None:
    """Pack the open bin's `members`, if any, into ``bins[bin_key]`` and empty the set."""
    if members:
        bins[bin_key] = _pack(members, width)
        members.clear()


def aggregate(records: Iterable[Union[EditRecord, AttributedRecord]]) -> PartialAggregate:
    """A sealed aggregate of `records`, in any order: from the first record
    ``add`` refuses on, the rest are sorted in memory, aggregated apart and merged in."""
    agg = PartialAggregate()
    records = iter(records)
    for record in records:
        try:
            agg.add(record)
        except UnsortedInput:
            agg.seal()
            late = aggregate(sorted(chain((record,), records), key=_utc_us))
            # merge shares its first input's spans, the second's only where their site bits stay: larger first.
            return merge(agg, late) if len(agg.first_last) >= len(late.first_last) else merge(late, agg)
    agg.seal()
    return agg


def _merged_bins(a: dict[int, bytes], b: dict[int, bytes], width: int) -> dict[int, bytes]:
    """Bin-wise union of packed bins, in bin order; a bin only one side has is shared, not copied."""
    out = {**a, **b}
    for bin_key in a.keys() & b.keys():
        out[bin_key] = _pack({*_unpack(a[bin_key], width), *_unpack(b[bin_key], width)}, width)
    return dict(sorted(out.items()))


def merge(a: PartialAggregate, b: PartialAggregate) -> PartialAggregate:
    """Combine two sealed shard aggregates into a sealed one; commutative, associative, idempotent.

    ``b``'s site bits are moved to their sites' positions in the result, which
    lists ``a``'s sites and then ``b``'s new ones. Neither input is changed.
    """
    if a._open_v4 or a._open_v6 or b._open_v4 or b._open_v6:
        raise ValueError("merge takes sealed aggregates: call seal() after add()")
    out = PartialAggregate()
    out.sites = dict(a.sites)
    for code in b.sites:
        if code not in out.sites:
            out._new_site(code)
    bits = [out.sites[code] for code in b.sites]
    moved: dict[int, int] = {}  # b's site bits -> the result's, per combination seen
    out.first_last = dict(a.first_last)
    for key, span in b.first_last.items():
        sites = span >> _SITE_SHIFT
        if sites not in moved:
            moved[sites] = sum(bits[i] for i in _bits(sites))
        if moved[sites] != sites << _SITE_SHIFT:  # else b's span is kept, not rebuilt
            span = moved[sites] | span & _SPAN
        seen = out.first_last.get(key)
        if seen is not None:
            first = min(seen >> 64 & _LAST, span >> 64 & _LAST)
            span = (seen | span) >> _SITE_SHIFT << _SITE_SHIFT | first << 64 | max(seen & _LAST, span & _LAST)
        out.first_last[key] = span
    out.weekly_v4 = _merged_bins(a.weekly_v4, b.weekly_v4, _V4_BYTES)
    out.weekly_v6 = _merged_bins(a.weekly_v6, b.weekly_v6, _V6_BYTES)
    out.weekly_as_ips = _merged_bins(a.weekly_as_ips, b.weekly_as_ips, _MEMBER_BYTES)
    out.month_48s = _merged_bins(a.month_48s, b.month_48s, _TOP_BYTES)
    out.seal()
    return out


def table_weekly_by_version(agg: PartialAggregate) -> ReportTable:
    rows = []
    for week in sorted(agg.weekly_v4.keys() | agg.weekly_v6.keys()):
        label = week_label(week)
        for version, bins, width in ((V4, agg.weekly_v4, _V4_BYTES), (V6, agg.weekly_v6, _V6_BYTES)):
            if week in bins:
                rows.append((label, version, len(bins[week]) // width))
    return ReportTable("weekly_by_version", ("week", "version", "distinct_ips"), ("s", "s", "d"), rows)


def table_site_fraction(agg: PartialAggregate) -> ReportTable:
    # Addresses per combination of sites and IP version, then per site.
    combinations = Counter(span >> _SITE_SHIFT << 1 | key >> 128 for key, span in agg.first_last.items())
    codes = list(agg.sites)
    counts = {code: [0, 0] for code in codes}
    for combination, n in combinations.items():
        for i in _bits(combination >> 1):
            counts[codes[i]][combination & 1] += n
    rows = []
    for site, (n_v4, n_v6) in sorted(counts.items()):
        frac = n_v6 / (n_v4 + n_v6)
        rows.append((site, n_v4, n_v6, frac, frac))
    return ReportTable(
        "site_fraction",
        ("site", "n_v4", "n_v6", "frac_v6", "frac_v6_raw"),
        ("s", "d", "d", "f2", "g"),
        rows,
    )


Cumulative = tuple[list[int], dict[int, list[int]]]


def cumulative_by_week(agg: PartialAggregate) -> Cumulative:
    """Per prefix length, the running distinct count at each observed v6 week.

    A prefix is born in the week of the earliest first sighting, read from
    ``first_last``, among its v6 keys. In address order those keys are one
    run, so one pass per length finds each run's birth week; each series is a
    running sum of births.
    """
    weeks = sorted(agg.weekly_v6)
    position = {week: i for i, week in enumerate(weeks)}
    first_last = agg.first_last
    v6 = sorted(filter(_V6.__le__, first_last))
    born = array("i", (position[(first_last[key] >> 64 & _LAST) // _WEEK_US] for key in v6))
    series = {}
    for length in PREFIX_LENGTHS:
        # The last slot counts the empty run before the first key.
        births = [0] * (len(weeks) + 1)
        run, low = None, len(weeks)
        for prefix, week in zip(map((128 - length).__rrshift__, v6), born):
            if prefix != run:
                births[low] += 1
                run, low = prefix, week
            elif week < low:
                low = week
        births[low] += 1
        series[length] = list(accumulate(births[: len(weeks)]))
    return weeks, series


def table_cumulative_prefixes(
    agg: PartialAggregate, cumulative: Optional[Callable[[], Cumulative]] = None
) -> ReportTable:
    """``cumulative``, when given, returns ``cumulative_by_week(agg)``; a report
    passes one cached call to both cumulative tables, so the series is built once."""
    weeks, series = cumulative() if cumulative else cumulative_by_week(agg)
    rows = []
    for i, week in enumerate(weeks):
        label = week_label(week)
        for length in PREFIX_LENGTHS:
            rows.append((label, length, series[length][i]))
    return ReportTable(
        "cumulative_prefixes",
        ("week", "length", "cumulative_distinct"),
        ("s", "d", "d"),
        rows,
    )


def table_ratio_per_48(agg: PartialAggregate, cumulative: Optional[Callable[[], Cumulative]] = None) -> ReportTable:
    """``cumulative`` as for ``table_cumulative_prefixes``."""
    weeks, series = cumulative() if cumulative else cumulative_by_week(agg)
    rows = []
    for i, week in enumerate(weeks):
        base = series[48][i]
        if base == 0:
            continue
        rows.append((week_label(week), series[56][i] / base, series[64][i] / base))
    return ReportTable("ratio_per_48", ("week", "ratio_56", "ratio_64"), ("s", "g", "g"), rows)


def _lifetime_stats(first_last: dict[int, int]) -> Iterator[LifetimeStat]:
    for key in sorted(first_last):
        span = first_last[key]
        first, last = span >> 64 & _LAST, span & _LAST
        yield LifetimeStat(key_text(key), _datetime(first), _datetime(last), (last - first) // _DAY_US)


def table_lifetimes(agg: PartialAggregate) -> tuple[ReportTable, Iterator[LifetimeStat]]:
    """The lifetime histogram, and a lazy per-address stat stream in address order."""
    histogram: dict[tuple[str, int], int] = {}
    for key, span in agg.first_last.items():
        bucket = (_version(key), ((span & _LAST) - (span >> 64 & _LAST)) // _DAY_US)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    rows = [(version, days, n) for (version, days), n in sorted(histogram.items())]
    table = ReportTable("lifetimes", ("version", "lifetime_days", "count"), ("s", "d", "d"), rows)
    return table, _lifetime_stats(agg.first_last)


def table_weekly_by_as(agg: PartialAggregate, top_k: int) -> ReportTable:
    # Each bin is sorted, so a k-way merge yields the weeks' members in order,
    # a member seen in several weeks as one run.
    members = heapq.merge(*[_unpack(bin, _MEMBER_BYTES) for bin in agg.weekly_as_ips.values()])
    all_time = Counter(member >> _CODE_SHIFT for member, _ in groupby(members))
    asns = sorted((code for code in all_time if code > _SET_CODE), key=lambda code: (-all_time[code], code))
    shown = {_UNROUTED_CODE, _SET_CODE, *asns[:top_k]}

    rows = []
    for week, bin in sorted(agg.weekly_as_ips.items()):
        counts = _code_counts(bin)
        label = week_label(week)
        for code in sorted(counts.keys() & shown, key=_series_order):
            rows.append((label, _series_label(code), counts[code]))
    return ReportTable("weekly_by_as", ("week", "asn", "distinct_v6"), ("s", "s", "d"), rows)


def _eui64_vendors(agg: PartialAggregate, db: OuiDatabase) -> dict[int, tuple[bytes, str]]:
    """(MAC octets, resolved vendor) for each distinct EUI-64 address."""
    vendors = {}
    for key in agg.first_last:
        if key >> 128:
            mac = eui64_mac(key)
            if mac is not None:
                vendors[key] = (mac, db.vendor(mac[:3]))
    return vendors


def table_eui64_weekly(
    agg: PartialAggregate, db: OuiDatabase, top_vendors: int
) -> tuple[ReportTable, ReportTable]:
    vendors = _eui64_vendors(agg, db)
    all_time: dict[str, int] = {}
    for _mac, vendor in vendors.values():
        if vendor != UNLISTED:
            all_time[vendor] = all_time.get(vendor, 0) + 1
    ranked = sorted(all_time.items(), key=lambda kv: (-kv[1], kv[0]))
    top = {vendor for vendor, _ in ranked[:top_vendors]}

    vendor_rows = []
    fraction_rows = []
    for week, bin in sorted(agg.weekly_v6.items()):
        series: dict[str, int] = {}
        for key in map(_V6.__or__, _unpack(bin, _V6_BYTES)):
            hit = vendors.get(key)
            if hit is not None:
                vendor = hit[1] if hit[1] == UNLISTED or hit[1] in top else "other"
                series[vendor] = series.get(vendor, 0) + 1
        label = week_label(week)
        vendor_rows.extend((label, vendor, n) for vendor, n in sorted(series.items()))
        frac = sum(series.values()) / (len(bin) // _V6_BYTES)
        fraction_rows.append((label, frac, frac))
    vendor_table = ReportTable(
        "eui64_weekly", ("week", "vendor", "distinct_v6"), ("s", "s", "d"), vendor_rows
    )
    fraction_table = ReportTable(
        "eui64_fraction",
        ("week", "eui64_fraction", "eui64_fraction_raw"),
        ("s", "f2", "g"),
        fraction_rows,
    )
    return vendor_table, fraction_table


def table_vendor_counts(agg: PartialAggregate, db: OuiDatabase) -> ReportTable:
    vendors = _eui64_vendors(agg, db)
    macs_by_vendor: dict[str, set[bytes]] = {}
    addrs_by_vendor: dict[str, int] = {}
    for mac, vendor in vendors.values():
        macs_by_vendor.setdefault(vendor, set()).add(mac)
        addrs_by_vendor[vendor] = addrs_by_vendor.get(vendor, 0) + 1
    rows = [
        (vendor, len(macs_by_vendor[vendor]), addrs_by_vendor[vendor])
        for vendor in sorted(macs_by_vendor)
    ]
    # A MAC's OUI fixes its vendor, so the per-vendor MAC sets are disjoint.
    rows.append(("total", sum(len(macs) for macs in macs_by_vendor.values()), len(vendors)))
    return ReportTable(
        "vendor_counts", ("vendor", "distinct_macs", "eui64_addresses"), ("s", "d", "d"), rows
    )


def parse_hitlist_line(line: str) -> Optional[tuple[int, int, int]]:
    """Parse one ``date<TAB>address-or-prefix`` hitlist row (IPv6 only) into
    ``(month, prefix_int, length)``, or None for a blank or comment line.

    `month` is the ``_month`` of the row's date. A timestamp with an offset is
    binned by its UTC month, as records are; a plain date or naive timestamp
    by its own month.
    """
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise BadHitlistRow(line)
    date_text, target = parts
    try:
        # fromisoformat accepts a bare Z only from Python 3.11 on, and a "z" on none.
        when = datetime.fromisoformat(date_text[:-1] + "+00:00" if date_text.endswith(("Z", "z")) else date_text)
        if when.tzinfo is not None:
            # OverflowError when the offset moves year 1 or 9999 out of range.
            when = when.astimezone(timezone.utc)
        if "/" in target:
            version, value, length = prefix_key(target, strict=False)
        else:
            key = parse_key(target)
            version, value, length = (6, key ^ _V6, 128) if key >> 128 else (4, key, 32)
    except (ValueError, OverflowError) as exc:
        raise BadHitlistRow(line) from exc
    if version != 6:
        raise BadHitlistRow(line)
    return _month(when), value, length


def read_hitlist(lines: Iterable[str]) -> tuple[list[tuple[int, int, int]], int]:
    """Parse a hitlist stream; malformed rows are skipped and counted."""
    entries = []
    bad = 0
    for line in lines:
        try:
            entry = parse_hitlist_line(line)
        except BadHitlistRow:
            bad += 1
            continue
        if entry is not None:
            entries.append(entry)
    return entries, bad


def table_hitlist_overlap(agg: PartialAggregate, hitlist: Iterable[tuple[int, int, int]]) -> ReportTable:
    """Per month, the corpus /48s and those inside a prefix `hitlist` lists that month.

    `hitlist` holds ``(month, prefix_int, length)`` rows, as ``read_hitlist`` returns them.
    """
    # Per month and shift, the listed prefixes' tops: a /48 is in a /L entry
    # (L <= 48) iff its top >> (48 - L) is; /48 and longer entries are shift 0.
    listed: dict[int, dict[int, set[int]]] = {}
    for month, prefix_int, length in hitlist:
        shift = 48 - min(length, 48)
        listed.setdefault(month, {}).setdefault(shift, set()).add(prefix_int >> (80 + shift))

    rows = []
    for month, bin in sorted(agg.month_48s.items()):
        shifts = list(listed.get(month, {}).items())
        overlap = 0
        for top in _unpack(bin, _TOP_BYTES) if shifts else ():
            for shift, listed_tops in shifts:
                if top >> shift in listed_tops:
                    overlap += 1
                    break
        rows.append((month_label(month), len(bin) // _TOP_BYTES, overlap))
    return ReportTable(
        "hitlist_overlap", ("month", "wikimedia_48s", "overlap_48s"), ("s", "d", "d"), rows
    )
