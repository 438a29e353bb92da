"""Aggregate anonymous-edit records into the longitudinal report tables.

All metrics reduce to distinct-key sets and first/last-seen maps, so partial
aggregates built per input shard merge losslessly (union / min / max) and any
merge order yields byte-identical tables. Distinct counting is exact.

The aggregate holds ints, not objects, wherever a table can decode them: an
address is one int key, a week or month is one int key (its ``YYYY-Www`` or
``YYYY-MM`` text is built only when a table row is written), the AS series is
one set per week of packed ``origin code << 129 | v6 key`` ints, and first and
last seen are packed into one int of UTC microseconds per address (see
``PartialAggregate``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import accumulate, chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .ingest import EditRecord
from .netaddr import V6_KEY as _V6, OuiDatabase, UNLISTED, eui64_mac, key_text, parse_key, prefix_key
from .ribstore import AttributedRecord, OriginAs

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


def _csv_cell(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
        out = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for value, fmt in zip(row, self.formats):
                if fmt == "s":
                    cells.append(_csv_cell(str(value)))
                elif fmt == "d":
                    cells.append(str(value))
                elif fmt == "f2":
                    cells.append(f"{round(value, 2):.2f}")
                else:  # "g"
                    cells.append(repr(float(value)))
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        rows = []
        for row in self.rows:
            obj = {}
            for col, value, fmt in zip(self.columns, row, self.formats):
                if fmt == "s":
                    obj[col] = str(value)
                elif fmt == "d":
                    obj[col] = int(value)
                elif fmt == "f2":
                    obj[col] = round(value, 2)
                else:
                    obj[col] = float(value)
            rows.append(obj)
        return json.dumps(rows, indent=2) + "\n"


# Timestamps are packed as UTC microseconds since 0001-01-01, which fit in 64
# bits up to year 9999: first/last seen is ``first << 64 | last``.
_EPOCH = datetime(1, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US
_LAST = (1 << 64) - 1

# Origin codes of the AS series: 0 unrouted, 1 any AS_SET, ASN + 1 for one ASN.
_UNROUTED_CODE = 0
_SET_CODE = 1
_CODE_SHIFT = 129  # above a v6 key's bit 128


def _datetime(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=us)


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


class PartialAggregate:
    """Mergeable per-shard aggregation state (sets and min/max maps only).

    An address is one int, the record's ``key`` (``netaddr.ip_key``):
    ``int(ip)``, with bit 128 set for IPv6, so that ``10.0.0.1`` and
    ``::ffff:10.0.0.1`` stay two addresses. Text is built only for output.
    Each set is stored under the bin its table groups by. The bin maps are
    ``defaultdict(set)``, so readers iterate them and never index a bin that
    may be missing: that would insert an empty bin.

    Bins are int keys of the record's UTC date, in time order; tables turn
    them into text with ``week_label`` and ``month_label``.

    - week: UTC days since 0001-01-01 ``// 7``; 0001-01-01 is a Monday, so
      each key is one ISO week.
    - month: ``year * 12 + month - 1``.
    - ``month_48s``: one set per month of the top 48 bits of each v6 address.
    - ``weekly_as_ips``: one set per week of ``origin code << 129 | v6 key``,
      where the code is 0 for unrouted, 1 for any AS_SET and ASN + 1 for one
      ASN, so a week pays for one set however many origins it has.
    - ``first_last``: address key -> ``first << 64 | last``, each a UTC
      microsecond count since 0001-01-01 (years 1 to 9999 fit in 64 bits).

    Record timestamps must be timezone-aware (``parse_timestamp`` returns
    UTC; ``add`` raises ``ValueError`` on a naive one).
    """

    def __init__(self):
        self.site_ips: defaultdict[str, set[int]] = defaultdict(set)
        self.weekly_ips: defaultdict[int, set[int]] = defaultdict(set)
        self.weekly_as_ips: defaultdict[int, set[int]] = defaultdict(set)
        self.first_last: dict[int, int] = {}
        self.month_48s: defaultdict[int, set[int]] = defaultdict(set)

    def add(self, record: Union[EditRecord, AttributedRecord]) -> None:
        try:
            us = (record.timestamp - _EPOCH) // _US
        except TypeError:
            raise ValueError(f"record timestamp is not timezone-aware: {record.timestamp!r}") from None
        day = us // _DAY_US
        week = day // 7
        key = record.key
        self.site_ips[record.site.code].add(key)
        self.weekly_ips[week].add(key)
        seen = self.first_last.get(key)
        if seen is None:
            self.first_last[key] = us << 64 | us
        elif us > seen & _LAST:
            self.first_last[key] = seen >> 64 << 64 | us
        elif us < seen >> 64:
            self.first_last[key] = us << 64 | seen & _LAST
        if key >> 128:
            self.month_48s[_month(date.fromordinal(day + 1))].add((key ^ _V6) >> 80)
            origin = getattr(record, "origin", None)
            if origin is not None:
                self.weekly_as_ips[week].add(_origin_code(origin) << _CODE_SHIFT | key)


def aggregate(records: Iterable[Union[EditRecord, AttributedRecord]]) -> PartialAggregate:
    agg = PartialAggregate()
    for record in records:
        agg.add(record)
    return agg


def _union(a: dict, b: dict) -> defaultdict:
    """Bin-wise union into fresh sets; neither input is aliased or changed."""
    out = defaultdict(set)
    for bins in (a, b):
        for bin_key, keys in bins.items():
            out[bin_key] |= keys
    return out


def merge(a: PartialAggregate, b: PartialAggregate) -> PartialAggregate:
    """Combine two shard aggregates; commutative, associative, idempotent."""
    out = PartialAggregate()
    out.site_ips = _union(a.site_ips, b.site_ips)
    out.weekly_ips = _union(a.weekly_ips, b.weekly_ips)
    out.weekly_as_ips = _union(a.weekly_as_ips, b.weekly_as_ips)
    out.first_last = dict(a.first_last)
    for key, span in b.first_last.items():
        seen = out.first_last.get(key)
        if seen is None:
            out.first_last[key] = span
        else:
            out.first_last[key] = min(seen >> 64, span >> 64) << 64 | max(seen & _LAST, span & _LAST)
    out.month_48s = _union(a.month_48s, b.month_48s)
    return out


def table_weekly_by_version(agg: PartialAggregate) -> ReportTable:
    rows = []
    for week, keys in sorted(agg.weekly_ips.items()):
        n_v6 = sum(key >> 128 for key in keys)
        label = week_label(week)
        for version, n in ((V4, len(keys) - n_v6), (V6, n_v6)):
            if n:
                rows.append((label, version, n))
    return ReportTable("weekly_by_version", ("week", "version", "distinct_ips"), ("s", "s", "d"), rows)


def table_site_fraction(agg: PartialAggregate) -> ReportTable:
    rows = []
    for site, keys in sorted(agg.site_ips.items()):
        n_v6 = sum(key >> 128 for key in keys)
        frac = n_v6 / len(keys)
        rows.append((site, len(keys) - n_v6, n_v6, frac, frac))
    return ReportTable(
        "site_fraction",
        ("site", "n_v4", "n_v6", "frac_v6", "frac_v6_raw"),
        ("s", "d", "d", "f2", "g"),
        rows,
    )


Cumulative = tuple[list[int], dict[int, list[int]]]


def cumulative_by_week(agg: PartialAggregate, lengths: tuple[int, ...] = PREFIX_LENGTHS) -> Cumulative:
    """Per prefix length, the running distinct count at each observed v6 week.

    A prefix is born in the week of the earliest first sighting, read from
    ``first_last``, among its v6 keys; each series is a running sum of births.
    """
    weeks = sorted(week for week, keys in agg.weekly_ips.items() if any(key >> 128 for key in keys))
    # In first-sighting order, the keys first seen in one week are one run.
    v6 = sorted(filter(_V6.__le__, agg.first_last), key=agg.first_last.__getitem__)
    ends = [bisect_left(v6, (week + 1) * _WEEK_US << 64, key=agg.first_last.__getitem__) for week in weeks]
    born = list(chain.from_iterable(repeat(week, end - start) for week, start, end in zip(weeks, [0, *ends], ends)))
    series = {}
    for length in lengths:
        # Latest first, so each prefix's earliest birth week is written last.
        births = Counter(dict(zip(map((128 - length).__rrshift__, reversed(v6)), reversed(born))).values())
        series[length] = list(accumulate(births[week] for week in weeks))
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
    weeks, series = cumulative() if cumulative else cumulative_by_week(agg, (48, 56, 64))
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
        first, last = span >> 64, span & _LAST
        yield LifetimeStat(key_text(key), _datetime(first), _datetime(last), (last - first) // _DAY_US)


def table_lifetimes(agg: PartialAggregate) -> tuple[ReportTable, Iterator[LifetimeStat]]:
    """The lifetime histogram, and a lazy per-address stat stream in address order."""
    histogram: dict[tuple[str, int], int] = {}
    for key, span in agg.first_last.items():
        bucket = (_version(key), ((span & _LAST) - (span >> 64)) // _DAY_US)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    rows = [(version, days, n) for (version, days), n in sorted(histogram.items())]
    table = ReportTable("lifetimes", ("version", "lifetime_days", "count"), ("s", "d", "d"), rows)
    return table, _lifetime_stats(agg.first_last)


def table_weekly_by_as(agg: PartialAggregate, top_k: int) -> ReportTable:
    all_time = Counter(member >> _CODE_SHIFT for member in set().union(*agg.weekly_as_ips.values()))
    asns = sorted((code for code in all_time if code > _SET_CODE), key=lambda code: (-all_time[code], code))
    shown = {_UNROUTED_CODE, _SET_CODE, *asns[:top_k]}

    rows = []
    for week, members in sorted(agg.weekly_as_ips.items()):
        counts = Counter(member >> _CODE_SHIFT for member in members)
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
    for week, keys in sorted(agg.weekly_ips.items()):
        v6 = [key for key in keys if key >> 128]
        if not v6:
            continue
        series: dict[str, int] = {}
        for key in v6:
            hit = vendors.get(key)
            if hit is not None:
                vendor = hit[1] if hit[1] == UNLISTED or hit[1] in top else "other"
                series[vendor] = series.get(vendor, 0) + 1
        label = week_label(week)
        vendor_rows.extend((label, vendor, n) for vendor, n in sorted(series.items()))
        frac = sum(series.values()) / len(v6)
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


class HitlistEntry(NamedTuple):
    month: int  # _month of the row's date, in UTC when it has an offset
    prefix_int: int
    length: int


def parse_hitlist_line(line: str) -> Optional[HitlistEntry]:
    """Parse one ``date<TAB>address-or-prefix`` hitlist row (IPv6 only).

    A timestamp with an offset is binned by its UTC month, as records are; a
    plain date or naive timestamp by its own month.
    """
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise BadHitlistRow(line)
    date_text, target = parts
    try:
        when = datetime.fromisoformat(date_text)
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
    return HitlistEntry(_month(when), value, length)


def read_hitlist(lines: Iterable[str]) -> tuple[list[HitlistEntry], int]:
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

    `hitlist` holds ``HitlistEntry`` rows or plain ``(month, prefix_int, length)`` tuples.
    """
    # Per month and shift, the listed prefixes' tops: a /48 is in a /L entry
    # (L <= 48) iff its top >> (48 - L) is; /48 and longer entries are shift 0.
    listed: dict[int, dict[int, set[int]]] = {}
    for month, prefix_int, length in hitlist:
        shift = 48 - min(length, 48)
        listed.setdefault(month, {}).setdefault(shift, set()).add(prefix_int >> (80 + shift))

    rows = []
    for month, tops in sorted(agg.month_48s.items()):
        shifts = list(listed.get(month, {}).items())
        overlap = 0
        for top in tops:
            for shift, listed_tops in shifts:
                if top >> shift in listed_tops:
                    overlap += 1
                    break
        rows.append((month_label(month), len(tops), overlap))
    return ReportTable(
        "hitlist_overlap", ("month", "wikimedia_48s", "overlap_48s"), ("s", "d", "d"), rows
    )
