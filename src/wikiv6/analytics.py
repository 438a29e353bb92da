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
from ipaddress import IPv6Address, ip_network
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


def _ip_key(record: Union[EditRecord, AttributedRecord]) -> tuple[str, bool, int]:
    text = str(record.ip)
    return text, record.ip.version == 6, int(record.ip)


class PartialAggregate:
    """Mergeable per-shard aggregation state (sets and min/max maps only)."""

    def __init__(self):
        self.site_ips: set[tuple[str, str]] = set()
        self.weekly_ips: set[tuple[WeekBin, str]] = set()
        self.weekly_as_ips: set[tuple[WeekBin, str, str]] = set()
        self.first_last: dict[str, tuple[datetime, datetime]] = {}
        self.prefix_first_week: dict[tuple[int, int], WeekBin] = {}
        self.month_48s: set[tuple[MonthBin, int]] = set()

    def add(self, record: Union[EditRecord, AttributedRecord]) -> None:
        ip_text, is_v6, ip_int = _ip_key(record)
        week = WeekBin.from_timestamp(record.timestamp)
        self.site_ips.add((record.site.code, ip_text))
        self.weekly_ips.add((week, ip_text))
        seen = self.first_last.get(ip_text)
        if seen is None:
            self.first_last[ip_text] = (record.timestamp, record.timestamp)
        else:
            self.first_last[ip_text] = (min(seen[0], record.timestamp), max(seen[1], record.timestamp))
        if is_v6:
            for length in PREFIX_LENGTHS:
                masked = (ip_int >> (128 - length)) << (128 - length)
                key = (length, masked)
                prev = self.prefix_first_week.get(key)
                if prev is None or week < prev:
                    self.prefix_first_week[key] = week
            month = MonthBin.from_timestamp(record.timestamp)
            self.month_48s.add((month, (ip_int >> 80) << 80))
            origin = getattr(record, "origin", None)
            if origin is not None:
                self.weekly_as_ips.add((week, origin.text, ip_text))


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
    for ip_text, (first, last) in b.first_last.items():
        seen = out.first_last.get(ip_text)
        if seen is None:
            out.first_last[ip_text] = (first, last)
        else:
            out.first_last[ip_text] = (min(seen[0], first), max(seen[1], last))
    out.prefix_first_week = dict(a.prefix_first_week)
    for key, week in b.prefix_first_week.items():
        prev = out.prefix_first_week.get(key)
        if prev is None or week < prev:
            out.prefix_first_week[key] = week
    out.month_48s = a.month_48s | b.month_48s
    return out


def _version_of(ip_text: str) -> str:
    return V6 if ":" in ip_text else V4


def table_weekly_by_version(agg: PartialAggregate) -> ReportTable:
    counts: dict[tuple[WeekBin, str], int] = {}
    for week, ip_text in agg.weekly_ips:
        key = (week, _version_of(ip_text))
        counts[key] = counts.get(key, 0) + 1
    rows = [(str(week), version, n) for (week, version), n in sorted(counts.items())]
    return ReportTable("weekly_by_version", ("week", "version", "distinct_ips"), ("s", "s", "d"), rows)


def table_site_fraction(agg: PartialAggregate) -> ReportTable:
    counts: dict[str, list[int]] = {}
    for site, ip_text in agg.site_ips:
        pair = counts.setdefault(site, [0, 0])
        pair[1 if ":" in ip_text else 0] += 1
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


def _v6_weeks(agg: PartialAggregate) -> list[WeekBin]:
    return sorted({week for week, ip_text in agg.weekly_ips if ":" in ip_text})


def _cumulative_by_week(agg: PartialAggregate) -> tuple[list[WeekBin], dict[int, list[int]]]:
    """Per prefix length, the running distinct count at each observed v6 week."""
    weeks = _v6_weeks(agg)
    series: dict[int, list[int]] = {}
    week_pos = {week: i for i, week in enumerate(weeks)}
    for length in PREFIX_LENGTHS:
        births = [0] * (len(weeks) + 1)
        for (plen, _masked), first_week in agg.prefix_first_week.items():
            if plen == length:
                births[week_pos[first_week]] += 1
        running = 0
        cumulative = []
        for i in range(len(weeks)):
            running += births[i]
            cumulative.append(running)
        series[length] = cumulative
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
    for ip_text in sorted(agg.first_last, key=lambda t: (_version_of(t), t)):
        first, last = agg.first_last[ip_text]
        days = (last - first).days
        stats.append(LifetimeStat(ip_text, first, last, days))
        key = (_version_of(ip_text), days)
        histogram[key] = histogram.get(key, 0) + 1
    rows = [(version, days, n) for (version, days), n in sorted(histogram.items())]
    table = ReportTable("lifetimes", ("version", "lifetime_days", "count"), ("s", "d", "d"), rows)
    return table, stats


def _as_series_label(origin_text: str) -> str:
    if origin_text == "unrouted":
        return "unrouted"
    if origin_text.startswith("set:"):
        return "set"
    return origin_text


def _as_series_sort_key(label: str) -> tuple[int, int, str]:
    if label.isdigit():
        return (0, int(label), "")
    return (1, 0, label)


def table_weekly_by_as(agg: PartialAggregate, top_k: int) -> ReportTable:
    all_time: dict[str, set[str]] = {}
    for week, origin_text, ip_text in agg.weekly_as_ips:
        label = _as_series_label(origin_text)
        if label.isdigit():
            all_time.setdefault(label, set()).add(ip_text)
    ranked = sorted(all_time.items(), key=lambda kv: (-len(kv[1]), int(kv[0])))
    top = {label for label, _ in ranked[:top_k]}

    counts: dict[tuple[WeekBin, str], int] = {}
    seen: set[tuple[WeekBin, str, str]] = set()
    for week, origin_text, ip_text in agg.weekly_as_ips:
        label = _as_series_label(origin_text)
        if label.isdigit() and label not in top:
            continue
        key = (week, label, ip_text)
        if key in seen:
            continue
        seen.add(key)
        counts[(week, label)] = counts.get((week, label), 0) + 1
    rows = [
        (str(week), label, n)
        for (week, label), n in sorted(counts.items(), key=lambda kv: (kv[0][0], _as_series_sort_key(kv[0][1])))
    ]
    return ReportTable("weekly_by_as", ("week", "asn", "distinct_v6"), ("s", "s", "d"), rows)


_UNCACHED = object()


def _eui64_vendor(ip_text: str, db: OuiDatabase, cache: dict) -> Optional[tuple[bytes, str]]:
    """(MAC octets, resolved vendor) for an EUI-64 address, None for non-EUI-64 v6."""
    hit = cache.get(ip_text, _UNCACHED)
    if hit is _UNCACHED:
        ip = IPv6Address(ip_text)
        if is_eui64(ip):
            mac = extract_mac(ip)
            hit = (mac.octets, resolve_vendor(mac, db))
        else:
            hit = None
        cache[ip_text] = hit
    return hit


def table_eui64_weekly(
    agg: PartialAggregate, db: OuiDatabase, top_vendors: int
) -> tuple[ReportTable, ReportTable]:
    cache: dict[str, Optional[tuple[bytes, str]]] = {}
    weekly_v6: dict[WeekBin, int] = {}
    weekly_eui: dict[WeekBin, int] = {}
    by_vendor_week: dict[tuple[WeekBin, str], set[str]] = {}
    all_time: dict[str, set[str]] = {}
    for week, ip_text in agg.weekly_ips:
        if ":" not in ip_text:
            continue
        weekly_v6[week] = weekly_v6.get(week, 0) + 1
        hit = _eui64_vendor(ip_text, db, cache)
        if hit is None:
            continue
        vendor = hit[1]
        weekly_eui[week] = weekly_eui.get(week, 0) + 1
        by_vendor_week.setdefault((week, vendor), set()).add(ip_text)
        all_time.setdefault(vendor, set()).add(ip_text)

    ranked = sorted(
        ((vendor, ips) for vendor, ips in all_time.items() if vendor != UNLISTED),
        key=lambda kv: (-len(kv[1]), kv[0]),
    )
    top = {vendor for vendor, _ in ranked[:top_vendors]}

    series: dict[tuple[WeekBin, str], set[str]] = {}
    for (week, vendor), ips in by_vendor_week.items():
        if vendor != UNLISTED and vendor not in top:
            vendor = "other"
        series.setdefault((week, vendor), set()).update(ips)
    vendor_rows = [(str(week), vendor, len(ips)) for (week, vendor), ips in sorted(series.items())]
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
    cache: dict[str, Optional[tuple[bytes, str]]] = {}
    macs_by_vendor: dict[str, set[bytes]] = {}
    addrs_by_vendor: dict[str, set[str]] = {}
    all_macs: set[bytes] = set()
    all_addrs: set[str] = set()
    for ip_text in {t for _, t in agg.weekly_ips if ":" in t}:
        hit = _eui64_vendor(ip_text, db, cache)
        if hit is None:
            continue
        mac, vendor = hit
        macs_by_vendor.setdefault(vendor, set()).add(mac)
        addrs_by_vendor.setdefault(vendor, set()).add(ip_text)
        all_macs.add(mac)
        all_addrs.add(ip_text)
    rows = [
        (vendor, len(macs_by_vendor[vendor]), len(addrs_by_vendor[vendor]))
        for vendor in sorted(macs_by_vendor)
    ]
    rows.append(("total", len(all_macs), len(all_addrs)))
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
