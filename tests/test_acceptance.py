"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines live.
"""

import io
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from ipaddress import IPv6Address, IPv6Network, ip_network
from pathlib import Path

import numpy as np
import pytest

import mrt_synth as synth
import oracles
from corpus import single_obs_corpus, synth_corpus, synth_hitlist
from wikiv6.analytics import (
    aggregate,
    merge,
    round_fraction,
    round_percent,
    table_cumulative_prefixes,
    table_eui64_weekly,
    table_hitlist_overlap,
    table_lifetimes,
    table_ratio_per_48,
    table_site_fraction,
    table_vendor_counts,
    table_weekly_by_as,
    table_weekly_by_version,
    read_hitlist,
)
from wikiv6.ingest import ParseStats, SiteId, parse_dump_stream, write_records
from wikiv6.netaddr import Mac48, embed_mac, extract_mac, is_eui64, load_oui_database
from wikiv6.ribstore import (
    OriginAs,
    RibSnapshot,
    RibTimeline,
    TruncatedRecord,
    UNROUTED,
    attribute,
    build_lpm,
    parse_mrt_rib,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL (runtime {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded budget: {elapsed:.2f}s > {budget_s}s")
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_01_rounding_reproduces_published_figures():
    # corpus-scale counts and the derived figures they are known to round to
    with criterion(1, "display rounding on corpus-scale counts", budget_s=1.0):
        assert round_fraction(19_292_487 / 107_371_338) == 0.18
        assert round_fraction(8_259 / 267_377) == 0.03
        assert round_fraction(168_703 / 297_741) == 0.57
        assert round_percent(100 * 167_417 / 19_292_487) == 0.87
        assert 145_832 <= 167_417  # distinct MACs cannot exceed EUI-64 addresses
        # the same rules drive table rendering
        assert f"{round_fraction(8_259 / 267_377):.2f}" == "0.03"
        assert f"{round_fraction(168_703 / 297_741):.2f}" == "0.57"


def test_02_eui64_roundtrip_property():
    with criterion(2, "EUI-64 roundtrip over 10k random MACs", budget_s=5.0):
        rng = random.Random(20240)
        failures = 0
        for _ in range(10_000):
            mac = Mac48(rng.getrandbits(48).to_bytes(6, "big"))
            prefix = IPv6Network((rng.getrandbits(64) << 64, 64))
            ip = embed_mac(mac, prefix)
            if not is_eui64(ip) or extract_mac(ip) != mac:
                failures += 1
        assert failures == 0


def _numpy_linear_scan(entries):
    """Vectorized longest-match linear scan (checks every entry per query)."""
    n = len(entries)
    hi = np.empty(n, dtype=np.uint64)
    lo = np.empty(n, dtype=np.uint64)
    mask_hi = np.empty(n, dtype=np.uint64)
    mask_lo = np.empty(n, dtype=np.uint64)
    plens = np.empty(n, dtype=np.int64)
    mask64 = (1 << 64) - 1
    for i, (prefix, _origin) in enumerate(entries):
        bits = int(prefix.network_address)
        plen = prefix.prefixlen
        full = ((1 << plen) - 1) << (128 - plen) if plen else 0
        hi[i] = (bits >> 64) & mask64
        lo[i] = bits & mask64
        mask_hi[i] = (full >> 64) & mask64
        mask_lo[i] = full & mask64
        plens[i] = plen

    def lookup(ip):
        q = int(ip)
        qh = np.uint64((q >> 64) & mask64)
        ql = np.uint64(q & mask64)
        matched = ((qh & mask_hi) == hi) & ((ql & mask_lo) == lo)
        if not matched.any():
            return UNROUTED
        idx = np.where(matched, plens, -1).argmax()
        return entries[int(idx)][1]

    return lookup


def test_03_lpm_oracle_equivalence():
    with criterion(3, "LPM equals linear-scan oracle (20x1000, 10k lookups)", budget_s=30.0):
        rng = random.Random(333)
        for table_i in range(20):
            seen = set()
            entries = []
            while len(entries) < 1000:
                plen = rng.randrange(8, 129)
                bits = rng.getrandbits(plen) << (128 - plen) if plen else 0
                prefix = ip_network((bits.to_bytes(16, "big"), plen))
                if prefix in seen:
                    continue
                seen.add(prefix)
                entries.append((prefix, OriginAs.from_asn(rng.randrange(1, 1 << 31))))
            index = build_lpm(RibSnapshot(datetime(2020, 1, 1, tzinfo=timezone.utc), entries))
            oracle = _numpy_linear_scan(entries)
            mismatches = 0
            for _ in range(10_000):
                if rng.random() < 0.6:
                    prefix, _ = entries[rng.randrange(len(entries))]
                    host = rng.getrandbits(128 - prefix.prefixlen) if prefix.prefixlen < 128 else 0
                    ip = IPv6Address(int(prefix.network_address) | host)
                else:
                    ip = IPv6Address(rng.getrandbits(128))
                if index.lookup(ip) != oracle(ip):
                    mismatches += 1
            assert mismatches == 0, f"table {table_i}: {mismatches} mismatches"


def test_04_mrt_bit_exactness():
    with criterion(4, "MRT TABLE_DUMP_V2 bit-exact parse and truncation offsets"):
        data, offsets, expected = synth.acceptance_file()
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.captured_at == datetime(2016, 9, 10, 0, 0, tzinfo=timezone.utc)
        assert [(str(p), o.text) for p, o in oracles.snapshot_pairs(snapshot)] == expected
        # single-byte truncation: the final record is reported at its offset
        with pytest.raises(TruncatedRecord) as err:
            parse_mrt_rib(io.BytesIO(data[:-1]))
        assert err.value.offset == offsets[-1]
        # and every interior cut reports the offset of the record it breaks
        boundaries = set(offsets) | {len(data)}
        for cut in range(1, len(data)):
            if cut in boundaries:
                continue
            with pytest.raises(TruncatedRecord) as err:
                parse_mrt_rib(io.BytesIO(data[:cut]))
            assert err.value.offset == max(o for o in offsets if o < cut)


def test_05_ingest_fixture_and_streaming_memory():
    with criterion(5, "ingest golden fixture + 1 GB parse under 256 MB"):
        site = SiteId.from_code("fixturewiki")
        stats = ParseStats()
        sink = io.BytesIO()
        with open(DATA / "fixturewiki-20241201-pages-meta-history1.xml", "rb") as fh:
            count = write_records(parse_dump_stream(fh, site, stats=stats), sink)
        assert count == 37
        assert sink.getvalue() == (DATA / "golden_records.tsv").read_bytes()
        assert stats.as_dict() == json.loads((DATA / "golden_stats.json").read_text())

        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "memharness.py"), str(1 << 30)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["target_bytes"] == 1 << 30
        assert report["records"] > 100_000
        assert report["maxrss_kb"] <= 256 * 1024, f"peak RSS {report['maxrss_kb']} KB"


def test_06_analytics_oracle_equivalence():
    with criterion(6, "all report tables equal naive oracle on 1e5 records", budget_s=60.0):
        records = synth_corpus(100_000, seed=62)
        hitlist_lines = synth_hitlist(records)
        with open(DATA / "oui_fixture.csv", "rb") as fh:
            db = load_oui_database(fh)

        from wikiv6.ribstore import write_attributed

        tsv = io.StringIO()
        write_attributed(sorted(records, key=lambda r: (r.timestamp, r.site.code, str(r.ip))), tsv)
        rows = oracles.parse_records_tsv(tsv.getvalue())
        expected = oracles.oracle_all_tables(
            tsv.getvalue(),
            (DATA / "oui_fixture.csv").read_text(),
            hitlist_lines,
            top_k=5,
            top_vendors=8,
        )

        agg = aggregate(records)
        entries, _bad = read_hitlist(hitlist_lines)
        eui_week, eui_frac = table_eui64_weekly(agg, db, 8)
        got = {
            "weekly_by_version": table_weekly_by_version(agg).to_csv(),
            "site_fraction": table_site_fraction(agg).to_csv(),
            "cumulative_prefixes": table_cumulative_prefixes(agg).to_csv(),
            "ratio_per_48": table_ratio_per_48(agg).to_csv(),
            "lifetimes": table_lifetimes(agg)[0].to_csv(),
            "weekly_by_as": table_weekly_by_as(agg, 5).to_csv(),
            "eui64_weekly": eui_week.to_csv(),
            "eui64_fraction": eui_frac.to_csv(),
            "vendor_counts": table_vendor_counts(agg, db).to_csv(),
            "hitlist_overlap": table_hitlist_overlap(agg, entries).to_csv(),
        }
        assert set(got) == set(expected)
        for name in expected:
            assert got[name] == expected[name], f"table {name} diverges from naive oracle"
        assert len(rows) == 100_000


def test_07_prefix_monotonicity_property():
    with criterion(7, "cumulative prefix series monotone and ordered"):
        for seed in range(8):
            records = synth_corpus(2_000, seed=700 + seed)
            table = table_cumulative_prefixes(aggregate(records))
            per_week = {}
            for week, length, count in table.rows:
                per_week.setdefault(week, {})[length] = count
            last = {48: 0, 56: 0, 64: 0, 128: 0}
            violations = 0
            for week in sorted(per_week):
                counts = per_week[week]
                if not (counts[48] <= counts[56] <= counts[64] <= counts[128]):
                    violations += 1
                for length, value in counts.items():
                    if value < last[length]:
                        violations += 1
                    last[length] = value
            assert violations == 0


def test_08_lifetime_semantics():
    with criterion(8, "single-observation lifetime is 0; 0.64 fraction exact"):
        records, n_single = single_obs_corpus(n_v6=10_000, zero_fraction=0.64)
        table, stats = table_lifetimes(aggregate(records))
        by_ip = {s.ip: s for s in stats}
        seen_once = {}
        for record in records:
            seen_once[str(record.ip)] = seen_once.get(str(record.ip), 0) + 1
        for ip_text, n in seen_once.items():
            if n == 1:
                assert by_ip[ip_text].lifetime_days == 0
        zero_count = sum(n for version, days, n in table.rows if version == "v6" and days == 0)
        total = sum(n for version, days, n in table.rows if version == "v6")
        assert total == 10_000
        assert zero_count == n_single == 6_400
        assert zero_count / total == 0.64


def test_09_merge_equivalence():
    with criterion(9, "sharded merge trees equal single pass byte-for-byte"):
        records = synth_corpus(20_000, seed=900)
        with open(DATA / "oui_fixture.csv", "rb") as fh:
            db = load_oui_database(fh)
        hitlist_lines = synth_hitlist(records)
        entries, _ = read_hitlist(hitlist_lines)

        def all_bytes(agg):
            eui_week, eui_frac = table_eui64_weekly(agg, db, 8)
            tables = [
                table_weekly_by_version(agg),
                table_site_fraction(agg),
                table_cumulative_prefixes(agg),
                table_ratio_per_48(agg),
                table_lifetimes(agg)[0],
                table_weekly_by_as(agg, 5),
                eui_week,
                eui_frac,
                table_vendor_counts(agg, db),
                table_hitlist_overlap(agg, entries),
            ]
            return "".join(t.to_csv() + t.to_json() for t in tables)

        single = all_bytes(aggregate(records))
        shards = [aggregate(records[i::8]) for i in range(8)]
        rng = random.Random(9)
        for _ in range(3):
            order = shards[:]
            rng.shuffle(order)
            merged = order.pop()
            while order:
                merged = merge(merged, order.pop(rng.randrange(len(order) + 1) - 1))
            assert all_bytes(merged) == single


def test_10_time_nearest_attribution():
    with criterion(10, "2-hourly snapshots keep |delta| within an hour"):
        start = datetime(2021, 5, 1, tzinfo=timezone.utc)
        horizon_s = 2 * 86400
        snapshots = []
        captured = start
        while captured <= start + timedelta(seconds=horizon_s):
            snapshots.append(
                RibSnapshot(captured, [(ip_network("2001:db8::/32"), OriginAs.from_asn(64500))])
            )
            captured += timedelta(hours=2)
        timeline = RibTimeline.from_snapshots(snapshots)

        rng = random.Random(1010)
        site = SiteId.from_code("enwiki")
        from wikiv6.ingest import EditRecord

        times = sorted(start + timedelta(seconds=rng.randrange(horizon_s)) for _ in range(10_000))
        records = [
            EditRecord(t, site, IPv6Address((0x20010DB8 << 96) | i)) for i, t in enumerate(times)
        ]
        max_abs = 0
        for out in attribute(records, timeline):
            max_abs = max(max_abs, abs(out.snapshot_delta_s))
            assert out.origin == OriginAs.from_asn(64500)
        assert max_abs <= 3600
