"""Aggregate anonymous-edit records into the longitudinal report tables.

All metrics reduce to distinct-key sets and first/last-seen maps, so partial
aggregates built per input shard merge losslessly (union / min / max) and any
merge order yields byte-identical tables. Distinct counting is exact; the
corpus sizes involved fit comfortably in memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from ipaddress import IPv4Address, IPv6Address, ip_network
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Union

from .ingest import EditRecord
from .netaddr import OuiDatabase, UNLISTED, extract_mac, is_eui64, parse_ip, resolve_vendor
from .ribstore import AttributedRecord

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


class WeekBin(NamedTuple):
    iso_year: int
    iso_week: int

    @classmethod
    def from_timestamp(cls, ts: datetime) -> "WeekBin":
        iso = ts.isocalendar()
        return cls(iso[0], iso[1])

    def __str__(self) -> str:
        return f"{self.iso_year:04d}-W{self.iso_week:02d}"


class MonthBin(NamedTuple):
    year: int
    month: int

    @classmethod
    def from_timestamp(cls, ts: datetime) -> "MonthBin":
        return cls(ts.year, ts.month)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


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


_V6 = 1 << 128


def _version(key: int) -> str:
    return V6 if key >> 128 else V4


def _ip_text(key: int) -> str:
    return str(IPv6Address(key ^ _V6) if key >> 128 else IPv4Address(key))


class PartialAggregate:
    """Mergeable per-shard aggregation state (sets and min/max maps only).

    An address is one int: ``int(ip)``, with bit 128 set for IPv6, so that
    ``10.0.0.1`` and ``::ffff:10.0.0.1`` stay two addresses. Text is built
    only for output.
    """

    def __init__(self):
        self.site_ips: set[tuple[str, int]] = set()
        self.weekly_ips: set[tuple[WeekBin, int]] = set()
        self.weekly_as_ips: set[tuple[WeekBin, str, int]] = set()  # (week, series label, v6 address)
        self.first_last: dict[int, tuple[datetime, datetime]] = {}
        self.month_48s: set[tuple[MonthBin, int]] = set()

    def add(self, record: Union[EditRecord, AttributedRecord]) -> None:
        ts = record.timestamp
        value = int(record.ip)
        is_v6 = record.ip.version == 6
        key = value | _V6 if is_v6 else value
        week = WeekBin.from_timestamp(ts)
        self.site_ips.add((record.site.code, key))
        self.weekly_ips.add((week, key))
        seen = self.first_last.get(key)
        if seen is None:
            self.first_last[key] = (ts, ts)
        else:
            self.first_last[key] = (min(seen[0], ts), max(seen[1], ts))
        if is_v6:
            self.month_48s.add((MonthBin.from_timestamp(ts), (value >> 80) << 80))
            origin = getattr(record, "origin", None)
            if origin is not None:
                label = origin.text if origin.kind == "asn" else origin.kind
                self.weekly_as_ips.add((week, label, key))


def aggregate(records: Iterable[Union[EditRecord, AttributedRecord]]) -> PartialAggregate:
    agg = PartialAggregate()
    for record in records:
        agg.add(record)
    return agg


def merge(a: PartialAggregate, b: PartialAggregate) -> PartialAggregate:
    """Combine two shard aggregates; commutative, associative, idempotent."""
    out = PartialAggregate()
    out.site_ips = a.site_ips | b.site_ips
    out.weekly_ips = a.weekly_ips | b.weekly_ips
    out.weekly_as_ips = a.weekly_as_ips | b.weekly_as_ips
    out.first_last = dict(a.first_last)
    for key, (first, last) in b.first_last.items():
        seen = out.first_last.get(key)
        if seen is None:
            out.first_last[key] = (first, last)
        else:
            out.first_last[key] = (min(seen[0], first), max(seen[1], last))
    out.month_48s = a.month_48s | b.month_48s
    return out


def table_weekly_by_version(agg: PartialAggregate) -> ReportTable:
    counts: dict[tuple[WeekBin, str], int] = {}
    for week, key in agg.weekly_ips:
        pair = (week, _version(key))
        counts[pair] = counts.get(pair, 0) + 1
    rows = [(str(week), version, n) for (week, version), n in sorted(counts.items())]
    return ReportTable("weekly_by_version", ("week", "version", "distinct_ips"), ("s", "s", "d"), rows)


def table_site_fraction(agg: PartialAggregate) -> ReportTable:
    counts: dict[str, list[int]] = {}
    for site, key in agg.site_ips:
        counts.setdefault(site, [0, 0])[key >> 128] += 1
    rows = []
    for site in sorted(counts):
        n_v4, n_v6 = counts[site]
        frac = n_v6 / (n_v4 + n_v6)
        rows.append((site, n_v4, n_v6, frac, frac))
    return ReportTable(
        "site_fraction",
        ("site", "n_v4", "n_v6", "frac_v6", "frac_v6_raw"),
        ("s", "d", "d", "f2", "g"),
        rows,
    )


def _cumulative_by_week(agg: PartialAggregate) -> tuple[list[WeekBin], dict[int, list[int]]]:
    """Per prefix length, the running distinct count at each observed v6 week.

    A prefix is born in the earliest week of any v6 address inside it.
    """
    first_week: dict[int, WeekBin] = {}
    v6_weeks: set[WeekBin] = set()
    for week, key in agg.weekly_ips:
        if key >> 128:
            v6_weeks.add(week)
            prev = first_week.get(key)
            if prev is None or week < prev:
                first_week[key] = week
    weeks = sorted(v6_weeks)
    week_pos = {week: i for i, week in enumerate(weeks)}
    series: dict[int, list[int]] = {}
    for length in PREFIX_LENGTHS:
        shift = 128 - length
        born: dict[int, WeekBin] = {}
        for key, week in first_week.items():
            prefix = key >> shift
            prev = born.get(prefix)
            if prev is None or week < prev:
                born[prefix] = week
        births = [0] * len(weeks)
        for week in born.values():
            births[week_pos[week]] += 1
        series[length] = list(accumulate(births))
    return weeks, series


def table_cumulative_prefixes(agg: PartialAggregate) -> ReportTable:
    weeks, series = _cumulative_by_week(agg)
    rows = []
    for i, week in enumerate(weeks):
        for length in PREFIX_LENGTHS:
            rows.append((str(week), length, series[length][i]))
    return ReportTable(
        "cumulative_prefixes",
        ("week", "length", "cumulative_distinct"),
        ("s", "d", "d"),
        rows,
    )


def table_ratio_per_48(agg: PartialAggregate) -> ReportTable:
    weeks, series = _cumulative_by_week(agg)
    rows = []
    for i, week in enumerate(weeks):
        base = series[48][i]
        if base == 0:
            continue
        rows.append((str(week), series[56][i] / base, series[64][i] / base))
    return ReportTable("ratio_per_48", ("week", "ratio_56", "ratio_64"), ("s", "g", "g"), rows)


def table_lifetimes(agg: PartialAggregate) -> tuple[ReportTable, list[LifetimeStat]]:
    histogram: dict[tuple[str, int], int] = {}
    stats = []
    for key in sorted(agg.first_last):
        first, last = agg.first_last[key]
        days = (last - first).days
        stats.append(LifetimeStat(_ip_text(key), first, last, days))
        bucket = (_version(key), days)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    rows = [(version, days, n) for (version, days), n in sorted(histogram.items())]
    table = ReportTable("lifetimes", ("version", "lifetime_days", "count"), ("s", "d", "d"), rows)
    return table, stats


def _as_series_sort_key(label: str) -> tuple[int, int, str]:
    if label.isdigit():
        return (0, int(label), "")
    return (1, 0, label)


def table_weekly_by_as(agg: PartialAggregate, top_k: int) -> ReportTable:
    all_time: dict[str, set[int]] = {}
    for _week, label, key in agg.weekly_as_ips:
        if label.isdigit():
            all_time.setdefault(label, set()).add(key)
    ranked = sorted(all_time.items(), key=lambda kv: (-len(kv[1]), int(kv[0])))
    top = {label for label, _ in ranked[:top_k]}

    counts: dict[tuple[WeekBin, str], int] = {}
    for week, label, _key in agg.weekly_as_ips:
        if label.isdigit() and label not in top:
            continue
        counts[(week, label)] = counts.get((week, label), 0) + 1
    rows = [
        (str(week), label, n)
        for (week, label), n in sorted(counts.items(), key=lambda kv: (kv[0][0], _as_series_sort_key(kv[0][1])))
    ]
    return ReportTable("weekly_by_as", ("week", "asn", "distinct_v6"), ("s", "s", "d"), rows)


def _eui64_vendors(agg: PartialAggregate, db: OuiDatabase) -> dict[int, tuple[bytes, str]]:
    """(MAC octets, resolved vendor) for each distinct EUI-64 address."""
    vendors = {}
    for key in agg.first_last:
        if key >> 128:
            ip = IPv6Address(key ^ _V6)
            if is_eui64(ip):
                mac = extract_mac(ip)
                vendors[key] = (mac.octets, resolve_vendor(mac, db))
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

    weekly_v6: dict[WeekBin, int] = {}
    weekly_eui: dict[WeekBin, int] = {}
    series: dict[tuple[WeekBin, str], int] = {}
    for week, key in agg.weekly_ips:
        if not key >> 128:
            continue
        weekly_v6[week] = weekly_v6.get(week, 0) + 1
        hit = vendors.get(key)
        if hit is None:
            continue
        weekly_eui[week] = weekly_eui.get(week, 0) + 1
        vendor = hit[1]
        if vendor != UNLISTED and vendor not in top:
            vendor = "other"
        series[(week, vendor)] = series.get((week, vendor), 0) + 1
    vendor_rows = [(str(week), vendor, n) for (week, vendor), n in sorted(series.items())]
    vendor_table = ReportTable(
        "eui64_weekly", ("week", "vendor", "distinct_v6"), ("s", "s", "d"), vendor_rows
    )

    fraction_rows = []
    for week in sorted(weekly_v6):
        frac = weekly_eui.get(week, 0) / weekly_v6[week]
        fraction_rows.append((str(week), frac, frac))
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


@dataclass(frozen=True)
class HitlistEntry:
    month: MonthBin
    prefix_int: int
    length: int


def parse_hitlist_line(line: str) -> Optional[HitlistEntry]:
    """Parse one ``date<TAB>address-or-prefix`` hitlist row (IPv6 only)."""
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise BadHitlistRow(line)
    date_text, target = parts
    try:
        when = datetime.fromisoformat(date_text)
    except ValueError as exc:
        raise BadHitlistRow(line) from exc
    month = MonthBin(when.year, when.month)
    try:
        if "/" in target:
            net = ip_network(target, strict=False)
            if net.version != 6:
                raise BadHitlistRow(line)
            return HitlistEntry(month, int(net.network_address), net.prefixlen)
        addr = parse_ip(target)
        if addr.version != 6:
            raise BadHitlistRow(line)
        return HitlistEntry(month, int(addr), 128)
    except BadHitlistRow:
        raise
    except ValueError as exc:
        raise BadHitlistRow(line) from exc


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


def table_hitlist_overlap(agg: PartialAggregate, hitlist: Iterable[HitlistEntry]) -> ReportTable:
    exact: dict[MonthBin, set[int]] = {}
    shorter: dict[MonthBin, dict[int, set[int]]] = {}
    for entry in hitlist:
        if entry.length >= 48:
            exact.setdefault(entry.month, set()).add((entry.prefix_int >> 80) << 80)
        else:
            tops = shorter.setdefault(entry.month, {}).setdefault(entry.length, set())
            tops.add(entry.prefix_int >> (128 - entry.length))

    corpus: dict[MonthBin, set[int]] = {}
    for month, p48 in agg.month_48s:
        corpus.setdefault(month, set()).add(p48)

    rows = []
    for month in sorted(corpus):
        p48s = corpus[month]
        month_exact = exact.get(month, set())
        month_shorter = shorter.get(month, {})
        overlap = 0
        for p48 in p48s:
            if p48 in month_exact or any(
                (p48 >> (128 - length)) in tops for length, tops in month_shorter.items()
            ):
                overlap += 1
        rows.append((str(month), len(p48s), overlap))
    return ReportTable(
        "hitlist_overlap", ("month", "wikimedia_48s", "overlap_48s"), ("s", "d", "d"), rows
    )
