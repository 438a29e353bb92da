#!/usr/bin/env python3
"""Stream synthetic attributed records into ``aggregate``; report its size and peak RSS.

Records are generated one at a time and never held, as ``report`` reads
them from the attributed TSV, so the process holds the aggregate and little
else. They are time-sorted, spread evenly over 2004-2024, and take the sites
in turn: eight by default, with fixed codes (eight real wiki codes, then
``site8wiki``, ``site9wiki`` and so on).
About a third of records repeat one of the last 4,096 addresses; the rest are
new addresses, seven in ten IPv6 (random /48 in 2001::/16, random /56 and
interface identifier, one in twenty EUI-64) and the rest IPv4. Each /48 has a
fixed origin drawn from its bits: one of 20,000 ASNs, or unrouted or an
AS_SET for a few.

After the aggregate is built, every report table is built once, as
``report all`` does, so the last peak RSS covers the largest table transient.
One JSON line reports the arguments, the distinct addresses, the aggregate's
bytes per distinct address and per record, the peak RSS before and after each
step, and per table (``table_s``, ``table_maxrss_kb``) its seconds and the
peak RSS after it. ``sealed_bytes`` is the exact payload of the sealed bins:
per bin map, the summed length of its packed bins, and
``per_distinct_address``, their total over the distinct addresses.
The aggregate's bytes are the growth of the resident set (``/proc/self/statm``)
while it is built, so they include the allocator's overhead; ``tracemalloc``
would add its own per-block records to the RSS and slow the run several times.
Linux counts a parent's peak RSS in a child it starts, so the peaks are only
meaningful when the harness is run from a shell.

usage: aggharness.py [records [seed [sites]]]   (default 10000000 1 8)
"""

import functools
import json
import random
import resource
import sys
import time
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv6Address

from wikiv6 import analytics
from wikiv6.ingest import SiteId
from wikiv6.netaddr import EMPTY_OUI_DATABASE
from wikiv6.ribstore import UNROUTED, AttributedRecord, OriginAs

START = datetime(2004, 1, 1, tzinfo=timezone.utc)
SPAN_S = 20 * 365 * 86400
SITE_CODES = ("enwiki", "dewiki", "jawiki", "frwiki", "eswiki", "ruwiki", "enwiktionary", "zhwiki")
RECENT = 4096
ASNS = 20_000
SEALED_MAPS = ("weekly_v4", "weekly_v6", "weekly_as_ips", "month_48s")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _origin_of(p48: int, origins: dict) -> OriginAs:
    h = (p48 * 0x9E3779B97F4A7C15) >> 64 & 0xFFFF
    if h < 3000:
        return UNROUTED
    if h < 3600:
        key = ("set", h % 50)
        if key not in origins:
            origins[key] = OriginAs.ambiguous((1 + h % 50, 2 + h % 50))
        return origins[key]
    asn = 1 + h * 7919 % ASNS
    if asn not in origins:
        origins[asn] = OriginAs.from_asn(asn)
    return origins[asn]


def site_ids(n: int) -> list[SiteId]:
    """`n` sites with fixed codes."""
    codes = SITE_CODES + tuple(f"site{i}wiki" for i in range(len(SITE_CODES), n))
    return [SiteId.from_code(code) for code in codes[:n]]


def records(n: int, seed: int, sites: int = 8):
    """`n` time-sorted AttributedRecords on `sites` sites, built as they are pulled."""
    rng = random.Random(seed)
    site_list = site_ids(sites)
    origins: dict = {}
    recent: list = []
    step = timedelta(seconds=SPAN_S / max(n, 1))
    for i in range(n):
        if recent and rng.random() < 0.35:
            ip, origin = recent[rng.randrange(len(recent))]
        elif rng.random() < 0.7:
            p48 = 0x2001 << 32 | rng.getrandbits(32)
            if rng.random() < 0.05:
                iid = (rng.getrandbits(24) ^ 0x020000) << 40 | 0xFFFE << 24 | rng.getrandbits(24)
            else:
                iid = rng.getrandbits(64)
            ip = IPv6Address(p48 << 80 | rng.getrandbits(16) << 64 | iid)
            origin = _origin_of(p48, origins)
        else:
            ip, origin = IPv4Address(rng.getrandbits(32)), OriginAs.from_asn(1 + rng.randrange(ASNS))
        if len(recent) < RECENT:
            recent.append((ip, origin))
        else:
            recent[i % RECENT] = (ip, origin)
        yield AttributedRecord(START + step * i, site_list[i % sites], ip, origin, 0)


def _builders(agg: analytics.PartialAggregate) -> dict:
    """One call per builder, as ``report all`` makes them: eui64_weekly builds both
    EUI-64 tables, and the two cumulative tables share one cached series."""
    cumulative = functools.cache(lambda: analytics.cumulative_by_week(agg))
    return {
        "weekly_by_version": lambda: analytics.table_weekly_by_version(agg),
        "site_fraction": lambda: analytics.table_site_fraction(agg),
        "cumulative_prefixes": lambda: analytics.table_cumulative_prefixes(agg, cumulative),
        "ratio_per_48": lambda: analytics.table_ratio_per_48(agg, cumulative),
        "lifetimes": lambda: analytics.table_lifetimes(agg)[0],
        "weekly_by_as": lambda: analytics.table_weekly_by_as(agg, 5),
        "eui64_weekly": lambda: analytics.table_eui64_weekly(agg, EMPTY_OUI_DATABASE, 8),
        "vendor_counts": lambda: analytics.table_vendor_counts(agg, EMPTY_OUI_DATABASE),
        "hitlist_overlap": lambda: analytics.table_hitlist_overlap(agg, []),
    }


def _sealed_bytes(agg: analytics.PartialAggregate, distinct: int) -> dict:
    """Per bin map, the bytes of its packed bins, and their total per distinct address."""
    sizes = {name: sum(map(len, getattr(agg, name).values())) for name in SEALED_MAPS}
    return {**sizes, "per_distinct_address": round(sum(sizes.values()) / max(distinct, 1), 1)}


def _tables(agg: analytics.PartialAggregate) -> tuple[dict, dict]:
    """Seconds per table, and the peak RSS after each."""
    seconds, maxrss = {}, {}
    for name, build in _builders(agg).items():
        t0 = time.perf_counter()
        build()
        seconds[name] = round(time.perf_counter() - t0, 3)
        maxrss[name] = _maxrss_kb()
    return seconds, maxrss


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    sites = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    rss_before, maxrss_before = _rss_bytes(), _maxrss_kb()
    t0 = time.perf_counter()
    agg = analytics.aggregate(records(n, seed, sites))
    aggregate_s = time.perf_counter() - t0
    agg_bytes = _rss_bytes() - rss_before
    maxrss_aggregate = _maxrss_kb()
    distinct = len(agg.first_last)
    distinct_v6 = sum(key >> 128 for key in agg.first_last)
    t0 = time.perf_counter()
    table_s, table_maxrss_kb = _tables(agg)
    tables_s = time.perf_counter() - t0
    print(
        json.dumps(
            {
                "records": n,
                "seed": seed,
                "sites": sites,
                "distinct_addresses": distinct,
                "distinct_v6": distinct_v6,
                "aggregate_rss_bytes": agg_bytes,
                "bytes_per_distinct_address": round(agg_bytes / max(distinct, 1), 1),
                "bytes_per_record": round(agg_bytes / max(n, 1), 1),
                "sealed_bytes": _sealed_bytes(agg, distinct),
                "aggregate_s": round(aggregate_s, 3),
                "tables_s": round(tables_s, 3),
                "table_s": table_s,
                "table_maxrss_kb": table_maxrss_kb,
                "maxrss_kb_before": maxrss_before,
                "maxrss_kb_after_aggregate": maxrss_aggregate,
                "maxrss_kb": _maxrss_kb(),
            }
        )
    )


if __name__ == "__main__":
    main()
