import copy
import io
import json
import marshal
import math
import random
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv6Address, ip_address, ip_network
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA
from corpus import synth_corpus, synth_hitlist
from wikiv6.analytics import (
    TABLE_NAMES,
    BadHitlistRow,
    PartialAggregate,
    ReportTable,
    aggregate,
    merge,
    month_label,
    parse_hitlist_line,
    read_hitlist,
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
    week_label,
)
from wikiv6.ingest import EditRecord, SiteId, parse_timestamp
from wikiv6.netaddr import load_oui_database
from wikiv6.ribstore import AttributedRecord, OriginAs, UnsortedInput, write_attributed

SITE = SiteId.from_code("enwiki")


def rec(ts_text, ip_text, site=SITE):
    return EditRecord(parse_timestamp(ts_text), site, ip_address(ip_text))


def arec(ts_text, ip_text, origin_text, site=SITE):
    return AttributedRecord(
        parse_timestamp(ts_text), site, ip_address(ip_text), OriginAs.parse(origin_text), 0
    )


def _bins_of(ts):
    """(week label, month label) of the one record `aggregate` bins at `ts`."""
    agg = aggregate([EditRecord(ts, SITE, ip_address("2001:db8::1"))])
    (week,) = agg.weekly_v6
    (month,) = agg.month_48s
    return week_label(week), month_label(month)


class TestBins:
    def test_week_bin(self):
        assert _bins_of(parse_timestamp("2015-06-01T12:00:00Z"))[0] == "2015-W23"
        # ISO week years differ from calendar years at the boundary
        assert _bins_of(parse_timestamp("2016-01-01T00:00:00Z"))[0] == "2015-W53"
        assert week_label((date(2015, 1, 12).toordinal() - 1) // 7) == "2015-W03"
        assert week_label(0) == "0001-W01"
        assert week_label((date(9999, 12, 31).toordinal() - 1) // 7) == "9999-W52"

    def test_month_bin(self):
        assert _bins_of(parse_timestamp("2015-06-01T12:00:00Z"))[1] == "2015-06"
        assert month_label(2015 * 12 + 5) == "2015-06"

    @settings(max_examples=300, deadline=None)
    @given(day=st.dates(date(1, 1, 1), date(9999, 12, 31)))
    @example(day=date(2016, 1, 1))
    @example(day=date(1, 1, 1))
    @example(day=date(9999, 12, 31))
    def test_int_keys_label_as_iso_week_and_calendar_month(self, day):
        iso = day.isocalendar()
        expected = (f"{iso[0]:04d}-W{iso[1]:02d}", f"{day.year:04d}-{day.month:02d}")
        assert (week_label((day.toordinal() - 1) // 7), month_label(day.year * 12 + day.month - 1)) == expected
        for moment in (datetime.min.time(), datetime.max.time()):
            assert _bins_of(datetime.combine(day, moment, timezone.utc)) == expected


class TestRounding:
    def test_fraction_two_decimals(self):
        assert round_fraction(8259 / 267377) == 0.03
        assert round_fraction(168703 / 297741) == 0.57
        assert round_fraction(19292487 / 107371338) == 0.18

    def test_percent_two_significant_figures(self):
        assert round_percent(100 * 167417 / 19292487) == 0.87
        assert round_percent(15.21) == 15
        assert round_percent(0.0) == 0.0


def _reference_json(table):
    """The encoding ``to_json`` must reproduce: per-row dicts through ``json.dumps``."""
    rows = []
    for row in table.rows:
        obj = {}
        for col, value, fmt in zip(table.columns, row, table.formats):
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


_floats = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
_JSON_VALUES = {
    "s": st.text(),
    "d": st.integers() | st.integers(-(2**200), 2**200),
    "f2": _floats | st.integers(-(2**70), 2**70),
    "g": _floats | st.integers(-(2**70), 2**70),
}


@st.composite
def _json_tables(draw):
    formats = draw(st.lists(st.sampled_from(sorted(_JSON_VALUES)), min_size=1, max_size=5))
    columns = draw(st.lists(st.text(max_size=6), min_size=len(formats), max_size=len(formats), unique=True))
    rows = draw(st.lists(st.tuples(*(_JSON_VALUES[fmt] for fmt in formats)), max_size=5))
    return ReportTable("t", tuple(columns), tuple(formats), rows)


class TestReportTable:
    def test_csv_quoting_and_formats(self):
        table = ReportTable(
            "demo", ("name", "n", "frac", "raw"), ("s", "d", "f2", "g"),
            [('VMware, Inc.', 3, 0.5, 0.5), ('say "hi"', 1, 0.333333, 1 / 3)],
        )
        lines = table.to_csv().splitlines()
        assert lines[0] == "name,n,frac,raw"
        assert lines[1] == '"VMware, Inc.",3,0.50,0.5'
        assert lines[2] == '"say ""hi""",1,0.33,' + repr(1 / 3)

    def test_json_values(self):
        table = ReportTable("demo", ("name", "n", "frac"), ("s", "d", "f2"), [("x", 2, 0.666666)])
        rows = json.loads(table.to_json())
        assert rows == [{"name": "x", "n": 2, "frac": 0.67}]

    @settings(max_examples=300, deadline=None)
    @given(table=_json_tables())
    @example(table=ReportTable("t", ("a",), ("s",), []))
    @example(
        table=ReportTable(
            "t",
            ("s", "d", "f2", "g", 'k"\\\u00e9'),
            ("s", "d", "f2", "g", "g"),
            [
                ('caf\u00e9 "q" \\ \n\t\x00\x1f\u2028\U0001f600', 2**100, -0.0, math.nan, math.inf),
                ("", -(2**70), math.inf, -math.inf, -0.0),
                ("x", 0, 1, 0.125, 1e300),
            ],
        )
    )
    def test_json_equals_indented_json_dumps(self, table):
        assert table.to_json() == _reference_json(table)


class TestWeeklyByVersion:
    def test_distinctness_within_week(self):
        records = [rec("2015-06-01T10:00:00Z", "2001:db8::1")] * 3
        table = table_weekly_by_version(aggregate(records))
        assert table.rows == [("2015-W23", "v6", 1)]

    def test_same_address_two_weeks(self):
        records = [rec("2015-06-01T10:00:00Z", "2001:db8::1"), rec("2015-06-08T10:00:00Z", "2001:db8::1")]
        table = table_weekly_by_version(aggregate(records))
        assert table.rows == [("2015-W23", "v6", 1), ("2015-W24", "v6", 1)]

    def test_matches_naive_oracle(self):
        records = synth_corpus(1000, seed=11)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        table = table_weekly_by_version(aggregate(records))
        assert table.to_csv() == oracles.oracle_weekly_by_version(rows)


class TestSiteFraction:
    def test_v4_only_site(self):
        table = table_site_fraction(aggregate([rec("2015-06-01T10:00:00Z", "10.0.0.1")]))
        assert table.rows == [("enwiki", 1, 0, 0.0, 0.0)]

    def test_fraction_rule_matches_published_rounding(self):
        # the display rule is what turns 8259/267377 into 0.03
        assert f"{round_fraction(8259 / 267377):.2f}" == "0.03"
        records = [rec("2015-06-01T10:00:00Z", "10.0.0.1"), rec("2015-06-01T11:00:00Z", "2001:db8::1")]
        table = table_site_fraction(aggregate(records))
        assert table.rows == [("enwiki", 1, 1, 0.5, 0.5)]

    def test_sites_without_records_omitted(self):
        table = table_site_fraction(aggregate([rec("2015-06-01T10:00:00Z", "10.0.0.1")]))
        assert [row[0] for row in table.rows] == ["enwiki"]


class TestCumulativePrefixes:
    def test_same_64_two_addresses(self):
        records = [
            rec("2015-06-01T10:00:00Z", "2001:db8:1:2::a"),
            rec("2015-06-02T10:00:00Z", "2001:db8:1:2::b"),
        ]
        table = table_cumulative_prefixes(aggregate(records))
        by_len = {row[1]: row[2] for row in table.rows}
        assert by_len[64] == 1
        assert by_len[128] == 2

    def test_monotone_nondecreasing(self):
        records = synth_corpus(2000, seed=21)
        table = table_cumulative_prefixes(aggregate([r for r in records]))
        last = {}
        for _week, length, count in table.rows:
            assert count >= last.get(length, 0)
            last[length] = count

    def test_matches_naive_running_set_oracle(self):
        records = synth_corpus(1000, seed=31)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        table = table_cumulative_prefixes(aggregate(records))
        assert table.to_csv() == oracles.oracle_cumulative_prefixes(rows)


class TestRatioPer48:
    def test_single_address(self):
        table = table_ratio_per_48(aggregate([rec("2015-06-01T10:00:00Z", "2001:db8::1")]))
        assert table.rows == [("2015-W23", 1.0, 1.0)]

    def test_two_64s_same_56(self):
        records = [
            rec("2015-06-01T10:00:00Z", "2001:db8:1:2::a"),
            rec("2015-06-02T10:00:00Z", "2001:db8:1:3::b"),
        ]
        table = table_ratio_per_48(aggregate(records))
        assert table.rows == [("2015-W23", 1.0, 2.0)]

    def test_matches_naive_oracle(self):
        records = synth_corpus(1500, seed=41)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        assert table_ratio_per_48(aggregate(records)).to_csv() == oracles.oracle_ratio_per_48(rows)


class TestLifetimes:
    def test_single_observation_is_zero(self):
        table, stats = table_lifetimes(aggregate([rec("2015-06-01T10:00:00Z", "2001:db8::1")]))
        assert table.rows == [("v6", 0, 1)]
        assert list(stats)[0].lifetime_days == 0

    def test_seven_days(self):
        records = [rec("2003-01-01T00:00:00Z", "10.0.0.1"), rec("2003-01-08T00:00:00Z", "10.0.0.1")]
        table, stats = table_lifetimes(aggregate(records))
        assert table.rows == [("v4", 7, 1)]
        assert list(stats)[0].lifetime_days == 7

    def test_pooled_across_sites(self):
        records = [
            rec("2015-06-01T10:00:00Z", "2001:db8::1", SiteId.from_code("enwiki")),
            rec("2015-06-04T10:00:00Z", "2001:db8::1", SiteId.from_code("dewiki")),
        ]
        table, stats = table_lifetimes(aggregate(records))
        stats = list(stats)
        assert len(stats) == 1
        assert stats[0].lifetime_days == 3

    def test_matches_naive_oracle(self):
        records = synth_corpus(2000, seed=51)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        table, _stats = table_lifetimes(aggregate(records))
        assert table.to_csv() == oracles.oracle_lifetimes(rows)


class TestWeeklyByAs:
    def test_single_asn_single_series(self):
        records = [arec("2015-06-01T10:00:00Z", "2001:db8::1", "64500")]
        table = table_weekly_by_as(aggregate(records), top_k=5)
        assert table.rows == [("2015-W23", "64500", 1)]

    def test_top_k_zero_keeps_only_special_series(self):
        records = [
            arec("2015-06-01T10:00:00Z", "2001:db8::1", "64500"),
            arec("2015-06-01T11:00:00Z", "2001:db8::2", "unrouted"),
            arec("2015-06-01T12:00:00Z", "2001:db8::3", "set:1,2"),
        ]
        table = table_weekly_by_as(aggregate(records), top_k=0)
        assert table.rows == [("2015-W23", "set", 1), ("2015-W23", "unrouted", 1)]

    def test_v4_excluded(self):
        records = [arec("2015-06-01T10:00:00Z", "10.0.0.1", "64500")]
        assert table_weekly_by_as(aggregate(records), top_k=5).rows == []

    def test_matches_naive_group_by_oracle(self):
        records = synth_corpus(3000, seed=61)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        assert table_weekly_by_as(aggregate(records), 3).to_csv() == oracles.oracle_weekly_by_as(rows, 3)


class TestEui64Weekly:
    def test_fraction(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        records = [rec("2015-06-01T10:00:00Z", f"2001:db8::{i:x}") for i in range(1, 98)]
        records += [
            rec("2015-06-01T11:00:00Z", "2001:db8:0:1:250:56ff:fe8a:1"),
            rec("2015-06-01T12:00:00Z", "2001:db8:0:2:250:56ff:fe8a:2"),
            rec("2015-06-01T13:00:00Z", "2001:db8:0:3:7e11:22ff:fe33:4455"),
        ]
        weekly, fraction = table_eui64_weekly(aggregate(records), db, top_vendors=8)
        assert fraction.rows == [("2015-W23", 0.03, 0.03)]
        assert ("2015-W23", "VMware, Inc.", 2) in weekly.rows
        assert ("2015-W23", "Unlisted", 1) in weekly.rows

    def test_all_unresolvable_is_single_unlisted_series(self):
        from wikiv6.netaddr import OuiDatabase

        records = [
            rec("2015-06-01T10:00:00Z", "2001:db8::5074:f2ff:feb1:a87f"),
            rec("2015-06-08T10:00:00Z", "2001:db8::7e11:22ff:fe33:4455"),
        ]
        weekly, _fraction = table_eui64_weekly(aggregate(records), OuiDatabase({}), top_vendors=8)
        assert {row[1] for row in weekly.rows} == {"Unlisted"}

    def test_matches_naive_oracle(self, oui_csv):
        records = synth_corpus(3000, seed=71)
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        expected_weekly, expected_frac = oracles.oracle_eui64_pair(
            rows, oracles.load_oui_rows(oui_csv.read_text()), 4
        )
        weekly, fraction = table_eui64_weekly(aggregate(records), db, top_vendors=4)
        assert weekly.to_csv() == expected_weekly
        assert fraction.to_csv() == expected_frac


class TestVendorCounts:
    def test_same_mac_two_prefixes_counted_once(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        records = [
            rec("2015-06-01T10:00:00Z", "2001:db8:0:1:250:56ff:fe8a:1"),
            rec("2016-06-01T10:00:00Z", "2001:db8:0:2:250:56ff:fe8a:1"),
        ]
        table = table_vendor_counts(aggregate(records), db)
        assert table.rows == [("VMware, Inc.", 1, 2), ("total", 1, 2)]

    def test_hand_computed_golden(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        vm = ["00:50:56:00:00:01"] * 2 + ["00:50:56:00:00:02", "00:50:56:00:00:03", "00:50:56:00:00:04"]
        hp = ["f4:ce:46:00:00:05"] * 2 + ["f4:ce:46:00:00:06"] * 2 + ["f4:ce:46:00:00:07"]
        records = []
        from wikiv6.netaddr import Mac48, embed_mac
        from ipaddress import ip_network

        for i, mac_text in enumerate(vm + hp):
            prefix = ip_network((0x20010DB8 << 96 | i << 64, 64))
            ip = embed_mac(Mac48.parse(mac_text), prefix)
            records.append(EditRecord(parse_timestamp(f"2015-06-{i + 1:02d}T10:00:00Z"), SITE, ip))
        table = table_vendor_counts(aggregate(records), db)
        assert table.to_csv() == (
            "vendor,distinct_macs,eui64_addresses\n"
            "Hewlett Packard,3,5\n"
            '"VMware, Inc.",4,5\n'
            "total,7,10\n"
        )

    def test_matches_naive_oracle(self, oui_csv):
        records = synth_corpus(3000, seed=81)
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        expected = oracles.oracle_vendor_counts(rows, oracles.load_oui_rows(oui_csv.read_text()))
        assert table_vendor_counts(aggregate(records), db).to_csv() == expected


class TestHitlistOverlap:
    def test_same_month_match(self):
        records = [rec("2021-09-03T10:00:00Z", "2001:db8:77::1")]
        entries, bad = read_hitlist(["2021-09-20\t2001:db8:77::/48\n"])
        assert bad == 0
        table = table_hitlist_overlap(aggregate(records), entries)
        assert table.rows == [("2021-09", 1, 1)]

    def test_different_month_no_match(self):
        records = [rec("2021-09-03T10:00:00Z", "2001:db8:77::1")]
        entries, _ = read_hitlist(["2021-10-20\t2001:db8:77::/48\n"])
        table = table_hitlist_overlap(aggregate(records), entries)
        assert table.rows == [("2021-09", 1, 0)]

    def test_short_prefix_contains(self):
        records = [
            rec("2021-09-03T10:00:00Z", "2409:4042:1::1"),
            rec("2021-09-04T10:00:00Z", "2409:4042:2::1"),
            rec("2021-09-05T10:00:00Z", "2a02:810::1"),
        ]
        entries, _ = read_hitlist(["2021-09-01\t2409:4042::/32\n"])
        table = table_hitlist_overlap(aggregate(records), entries)
        assert table.rows == [("2021-09", 3, 2)]

    def test_row_with_an_offset_is_binned_by_its_utc_month(self):
        # 2015-06-30T23:00:00-02:00 is 2015-07-01T01:00:00Z, the record's instant.
        records = [rec("2015-07-01T01:00:00Z", "2001:db8:77::1")]
        entries, bad = read_hitlist(["2015-06-30T23:00:00-02:00\t2001:db8:77::/48\n"])
        assert bad == 0
        assert table_hitlist_overlap(aggregate(records), entries).rows == [("2015-07", 1, 1)]

    def test_z_suffix_is_utc(self):
        for suffix in ("Z", "z"):
            for when in ("2016-01-01T00:00:00", "2015-12-31T23:30:00"):
                line = f"{when}{suffix}\t2001:db8::/32\n"
                assert parse_hitlist_line(line) == parse_hitlist_line(f"{when}+00:00\t2001:db8::/32\n"), line
        assert read_hitlist(["2016-01-01T00:00:00z\t2001:db8::/32\n"]) == ([(2016 * 12, 0x20010DB8 << 96, 32)], 0)

    def test_rows_survive_marshal(self):
        # A forked report child sends the rows back through marshal.
        rows, _bad = read_hitlist(["2021-09-01\t2001:db8:77::/48\n", "2021-09-02T10:00:00Z\t2001:db8::1\n"])
        assert len(rows) == 2 and marshal.loads(marshal.dumps(rows, 2)) == rows

    def test_offset_out_of_range_in_utc_is_a_bad_row(self):
        entries, bad = read_hitlist(["0001-01-01T00:00:00+01:00\t2001:db8::/48\n"])
        assert (entries, bad) == ([], 1)

    def test_48_listed_exactly_and_under_a_32_counts_once(self):
        records = [rec("2021-09-03T10:00:00Z", "2001:db8:77::1")]
        entries, _ = read_hitlist(["2021-09-01\t2001:db8:77::/48\n", "2021-09-02\t2001:db8::/32\n"])
        assert table_hitlist_overlap(aggregate(records), entries).rows == [("2021-09", 1, 1)]

    def test_bad_rows_counted(self):
        entries, bad = read_hitlist(
            ["2021-09-01\t2001:db8::/48\n", "junk\n", "2021-09-01\t10.0.0.0/8\n", "x\ty\tz\n"]
        )
        assert len(entries) == 1
        assert bad == 3

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(),
                st.builds(
                    lambda day, target, end: f"{day}\t{target}{end}",
                    st.sampled_from([
                        "2015-06-01", "2015-06-01T12:00:00+14:00", "2015-06-01T23:59:59-12:00",
                        "2015-06-01T00:00:00Z", "0001-01-01", "9999-12-31T23:59:59+14:00",
                        "2015-13-01", "2015-06-01T12:00:00+25:00", "", "2015-06-01\udcff",
                    ]) | st.text(),
                    st.sampled_from([
                        "2001:db8::/48", "2001:db8::/200", "2001:db8::/-1", "10.0.0.0/8", "10.0.0.1",
                        "fe80::1%eth0", "fe80::%eth0/64", "2001:db8::1", "::ffff:10.0.0.1", "::/0",
                        "2001:db8::\udcff", "\udc80/48", "junk", "",
                    ]) | st.text(),
                    st.sampled_from(["\n", "", "\t", "\tx\n", "\r\n"]),
                ),
            ),
            max_size=8,
        )
    )
    def test_any_lines_give_entries_and_a_bad_count(self, lines):
        entries, bad = read_hitlist(lines)
        assert len(entries) + bad <= len(lines)
        for month, prefix_int, length in entries:
            assert 0 <= length <= 128 and 0 <= prefix_int < 1 << 128
            assert len(month_label(month)) == 7

    # Spellings the address-key codec must read as ip_network(strict=False) does, or hand to it.
    PREFIX_SPELLINGS = [
        "2001:db8::/32", "2001:db8::1/32", "2001:db8:77:1::/48", "2001:DB8::/32", "2001:Db8::1/64",
        "2001:0db8:0000:0000:0000:0000:0000:0000/32", "2001:db8:0:0:0:0:0:1/128", "::/0", "::1/0", "::/128",
        "::ffff:1.2.3.4/96", "::1.2.3.4/120", "::ffff:102:304/96", "10.0.0.0/8", "10.1.2.3/8", "0.0.0.0/0",
        "2001:db8::/129", "2001:db8::/200", "10.0.0.0/33", "2001:db8::/048", "2001:db8::/0048", "2001:db8::/+48",
        "2001:db8::/-1", "2001:db8::/ 48", "2001:db8::/48 ", " 2001:db8::/48", "2001:db8::/4 8", "2001:db8::/",
        "/48", "2001:db8::/48/48", "2001:db8::/0x30", "2001:db8::/\u0664\u0668", "fe80::1%eth0/64",
        "fe80::%eth0/10", "fe80::1%/64", "1.2.3.4/255.0.0.0", "2001:db8::/ffff::", "2001:db8:::/48",
        "02001:db8::/48", "2001:db8::\udcff/48", "\udc80/48",
    ]

    @staticmethod
    def _reference(target):
        """(prefix int, length) as ip_network(strict=False) reads `target`, or BadHitlistRow."""
        try:
            net = ip_network(target, strict=False)
        except ValueError:
            return BadHitlistRow
        return (int(net.network_address), net.prefixlen) if net.version == 6 else BadHitlistRow

    @staticmethod
    def _parsed(target):
        try:
            _month, prefix_int, length = parse_hitlist_line(f"2015-06-01\t{target}\n")
        except BadHitlistRow:
            return BadHitlistRow
        return prefix_int, length

    @pytest.mark.parametrize("target", PREFIX_SPELLINGS)
    def test_prefix_rows_match_ip_network(self, target):
        assert self._parsed(target) == self._reference(target)

    def test_random_prefix_rows_match_ip_network(self):
        rng = random.Random(48)
        for _ in range(2000):
            v6 = rng.random() < 0.8
            address = IPv6Address(rng.getrandbits(128) >> rng.choice([0, 16, 64, 100])) if v6 else IPv4Address(rng.getrandbits(32))
            text = str(address) if rng.random() < 0.7 else address.exploded.upper()
            target = f"{text}/{rng.randrange(0, 134 if v6 else 36)}"
            assert self._parsed(target) == self._reference(target), target

    def test_matches_naive_oracle(self):
        records = synth_corpus(2000, seed=91)
        hitlist_lines = synth_hitlist(records)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        rows = oracles.parse_records_tsv(sink.getvalue())
        entries, _bad = read_hitlist(hitlist_lines)
        got = table_hitlist_overlap(aggregate(records), entries).to_csv()
        assert got == oracles.oracle_hitlist_overlap(rows, hitlist_lines)


class TestAddressKeys:
    def test_v4_and_v4_mapped_are_two_addresses(self):
        records = [rec("2015-06-01T10:00:00Z", "10.0.0.1"), rec("2015-06-02T10:00:00Z", "::ffff:10.0.0.1")]
        table = table_weekly_by_version(aggregate(records))
        assert table.rows == [("2015-W23", "v4", 1), ("2015-W23", "v6", 1)]

    def test_same_int_value_two_versions_stay_separate(self):
        records = [rec("2015-06-01T10:00:00Z", "0.0.0.1"), rec("2015-06-08T10:00:00Z", "::1")]
        table, stats = table_lifetimes(aggregate(records))
        assert table.rows == [("v4", 0, 1), ("v6", 0, 1)]
        assert sorted(stat.ip for stat in stats) == ["0.0.0.1", "::1"]

    def test_two_as_sets_count_once_in_set_series(self):
        records = [
            arec("2015-06-01T10:00:00Z", "2001:db8::1", "set:1,2"),
            arec("2015-06-02T10:00:00Z", "2001:db8::1", "set:3,4"),
        ]
        single = aggregate(records)
        merged = merge(aggregate(records[:1]), aggregate(records[1:]))
        for agg in (single, merged):
            assert table_weekly_by_as(agg, top_k=5).rows == [("2015-W23", "set", 1)]


# Generated corpora for the property test: edge addresses, addresses sharing
# /48, /56 and /64 prefixes, EUI-64 addresses with listed and unlisted OUIs,
# and timestamps within three days of ISO-year and calendar-year boundaries.
_EDGE_IPS = [
    "::", "::1", "0.0.0.0", "0.0.0.1", "255.255.255.255", "10.0.0.1", "::ffff:10.0.0.1",
    "::ffff:254.0.0.1", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "fe80::250:56ff:fe00:1",
]
_P48S = [0x20010DB80001, 0x20010DB80002, 0x2A0208100000]
_OUIS = [0x005056, 0xF4CE46, 0x286FB9, 0x001B63, 0x001A11, 0x7E1122]  # the last is unlisted
_BOUNDARIES = [datetime(y, 1, 1, tzinfo=timezone.utc) for y in (2009, 2016, 2021, 2024)]
_OUI_TEXT = (DATA / "oui_fixture.csv").read_text(encoding="utf-8")


def _v6(p48, subnet, iid):
    return IPv6Address(p48 << 80 | subnet << 64 | iid)


def _eui64(p48, subnet, oui, nic):
    iid = (oui ^ 0x020000) << 40 | 0xFFFE << 24 | nic
    return _v6(p48, subnet, iid)


_ips = st.one_of(
    st.sampled_from(_EDGE_IPS).map(ip_address),
    st.integers(0, 2**32 - 1).map(IPv4Address),
    st.integers(0, 2**128 - 1).map(IPv6Address),
    st.builds(_v6, st.sampled_from(_P48S), st.integers(0, 0x1FF), st.integers(0, 3) | st.integers(0, 2**64 - 1)),
    st.builds(_eui64, st.sampled_from(_P48S), st.integers(0, 3), st.sampled_from(_OUIS), st.integers(0, 2)),
)
_times = st.builds(
    lambda base, offset: base + timedelta(seconds=offset),
    st.sampled_from(_BOUNDARIES),
    st.integers(-3 * 86400, 3 * 86400),
)
_origins = st.one_of(st.integers(1, 6).map(str), st.sampled_from(["unrouted", "set:1,2", "set:3,4"]))
_records = st.lists(
    st.builds(
        lambda ts, site, ip, origin: AttributedRecord(ts, SiteId.from_code(site), ip, OriginAs.parse(origin), 0),
        _times, st.sampled_from(["enwiki", "dewiki"]), _ips, _origins,
    ),
    max_size=40,
)
_hitlist = st.lists(
    st.builds(
        lambda day, target: f"{day:%Y-%m-%d}\t{target}\n",
        _times,
        st.sampled_from(["2001:db8:1::/48", "2001:db8::/32", "2a02:810::/29", "2001:db8:2::1", "10.0.0.0/8", "junk"]),
    ),
    max_size=6,
)


def _all_tables(agg, db, entries, top_k, top_vendors):
    eui_weekly, eui_fraction = table_eui64_weekly(agg, db, top_vendors)
    return {
        "weekly_by_version": table_weekly_by_version(agg),
        "site_fraction": table_site_fraction(agg),
        "cumulative_prefixes": table_cumulative_prefixes(agg),
        "ratio_per_48": table_ratio_per_48(agg),
        "lifetimes": table_lifetimes(agg)[0],
        "weekly_by_as": table_weekly_by_as(agg, top_k),
        "eui64_weekly": eui_weekly,
        "eui64_fraction": eui_fraction,
        "vendor_counts": table_vendor_counts(agg, db),
        "hitlist_overlap": table_hitlist_overlap(agg, entries),
    }


class TestGeneratedCorpora:
    @settings(max_examples=150, deadline=None)
    @given(
        records=_records,
        hitlist_lines=_hitlist,
        top_k=st.integers(0, 3),
        top_vendors=st.integers(0, 3),
        shard_of=st.lists(st.integers(0, 3), min_size=40, max_size=40),
        merge_rng=st.randoms(use_true_random=False),
    )
    def test_tables_equal_oracle_and_merge_order_is_invisible(
        self, records, hitlist_lines, top_k, top_vendors, shard_of, merge_rng
    ):
        db = load_oui_database(io.StringIO(_OUI_TEXT))
        entries, _bad = read_hitlist(hitlist_lines)
        sink = io.StringIO()
        write_attributed(sorted(records, key=lambda r: r.timestamp), sink)
        expected = oracles.oracle_all_tables(sink.getvalue(), _OUI_TEXT, hitlist_lines, top_k, top_vendors)
        single = _all_tables(aggregate(records), db, entries, top_k, top_vendors)
        assert {name: table.to_csv() for name, table in single.items()} == expected

        shards = [aggregate(r for r, shard in zip(records, shard_of) if shard == s) for s in range(4)]
        while len(shards) > 1:
            a = shards.pop(merge_rng.randrange(len(shards)))
            b = shards.pop(merge_rng.randrange(len(shards)))
            shards.append(merge(a, b))
        merged = _all_tables(shards[0], db, entries, top_k, top_vendors)
        for name, table in single.items():
            assert merged[name].to_csv() == table.to_csv()
            assert merged[name].to_json() == table.to_json()


# Records for the packed aggregate layout: every origin kind, the largest ASN,
# and timestamps with microseconds, down to 0001-01-01 and up to the last
# microsecond of 9999-12-31, the range parse_timestamp returns.
_FIRST = datetime(1, 1, 1, tzinfo=timezone.utc)
_LAST = datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc)
_precise_times = st.one_of(
    st.sampled_from([_FIRST, _LAST]),
    st.integers(0, 10**12).map(lambda us: _FIRST + timedelta(microseconds=us)),
    st.integers(0, 10**12).map(lambda us: _LAST - timedelta(microseconds=us)),
    st.builds(
        lambda base, us: base + timedelta(microseconds=us),
        st.sampled_from(_BOUNDARIES),
        st.integers(-3 * 86400 * 10**6, 3 * 86400 * 10**6),
    ),
)
_packed_origins = st.sampled_from(
    ["unrouted", "set:1,2", "set:7,4294967295", "4294967295", "4294967294", "1", "2"]
)
_packed_records = st.lists(
    st.builds(
        lambda ts, site, ip, origin: AttributedRecord(ts, SiteId.from_code(site), ip, OriginAs.parse(origin), 0),
        _precise_times, st.sampled_from(["enwiki", "dewiki"]), _ips, _packed_origins,
    ),
    max_size=40,
)


def _sharded(records, shard_of, merge_rng):
    """Aggregate records in four shards, then merge the shards in a random order."""
    shards = [aggregate(r for r, shard in zip(records, shard_of) if shard == s) for s in range(4)]
    while len(shards) > 1:
        a = shards.pop(merge_rng.randrange(len(shards)))
        b = shards.pop(merge_rng.randrange(len(shards)))
        shards.append(merge(a, b))
    return shards[0]


class TestPackedLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        records=_packed_records,
        hitlist_lines=_hitlist,
        top_k=st.integers(0, 3),
        shard_of=st.lists(st.integers(0, 3), min_size=40, max_size=40),
        merge_rng=st.randoms(use_true_random=False),
    )
    def test_shards_merged_in_any_order_equal_one_aggregate(self, records, hitlist_lines, top_k, shard_of, merge_rng):
        db = load_oui_database(io.StringIO(_OUI_TEXT))
        entries, _bad = read_hitlist(hitlist_lines)
        single = _all_tables(aggregate(records), db, entries, top_k, 2)
        sharded = _sharded(records, shard_of, merge_rng)
        merged = _all_tables(sharded, db, entries, top_k, 2)
        # Time-sorted records stream through add; shuffled ones are sorted from the first late one on.
        in_order = sorted(records, key=lambda r: r.timestamp)
        sealed = _all_tables(aggregate(in_order), db, entries, top_k, 2)
        sealed_shards = _all_tables(_sharded(in_order, shard_of, merge_rng), db, entries, top_k, 2)
        for name, table in single.items():
            expected = (table.to_csv(), table.to_json())
            for other in (merged, sealed, sealed_shards):
                assert (other[name].to_csv(), other[name].to_json()) == expected

        rows = [(r.timestamp, r.site.code, r.ip, r.origin.text) for r in records]
        assert single["weekly_by_as"].to_csv() == oracles.oracle_weekly_by_as(rows, top_k)
        spans = {}
        for r in records:
            first, last = spans.get(r.ip, (r.timestamp, r.timestamp))
            spans[r.ip] = (min(first, r.timestamp), max(last, r.timestamp))
        expected = sorted((str(ip), first, last, (last - first).days) for ip, (first, last) in spans.items())
        stats = list(table_lifetimes(sharded)[1])
        assert sorted((s.ip, s.first_seen, s.last_seen, s.lifetime_days) for s in stats) == expected
        assert all(s.first_seen.tzinfo is timezone.utc and s.last_seen.tzinfo is timezone.utc for s in stats)

    def test_aware_timestamps_are_binned_by_utc_date(self):
        # Sunday 23:30 at UTC-2 is Monday 01:30 UTC, the first day of a new week.
        local = datetime(2016, 1, 31, 23, 30, tzinfo=timezone(timedelta(hours=-2)))
        ip = ip_address("2001:db8::1")
        as_local = aggregate([EditRecord(local, SITE, ip)])
        as_utc = aggregate([EditRecord(local.astimezone(timezone.utc), SITE, ip)])
        assert table_weekly_by_version(as_local).to_csv() == table_weekly_by_version(as_utc).to_csv()
        assert week_label(next(iter(as_local.weekly_v6))) == "2016-W05"

    def test_naive_timestamp_is_rejected(self):
        record = EditRecord(datetime(2016, 2, 1, 1, 30), SITE, ip_address("2001:db8::1"))
        with pytest.raises(ValueError, match="not timezone-aware"):
            aggregate([record])


class TestSealedBins:
    def test_sealed_fields_survive_marshal(self):
        agg = aggregate(sorted(synth_corpus(1000, seed=191), key=lambda r: r.timestamp))
        for name in ("sites", "weekly_v4", "weekly_v6", "weekly_as_ips", "month_48s", "first_last"):
            field = getattr(agg, name)
            assert field and marshal.loads(marshal.dumps(field, 2)) == field, name

    def test_a_week_has_a_bin_only_in_the_maps_of_its_versions(self):
        v4 = [rec("2015-06-01T10:00:00Z", "10.0.0.2"), rec("2015-06-02T10:00:00Z", "10.0.0.1")]
        v6 = [rec("2015-06-08T10:00:00Z", "2001:db8::2"), rec("2015-06-09T10:00:00Z", "2001:db8:1::1")]
        agg = aggregate(v4 + v6)
        assert {week_label(week): bin for week, bin in agg.weekly_v4.items()} == {
            "2015-W23": bytes([10, 0, 0, 1, 10, 0, 0, 2])
        }
        assert {week_label(week): bin for week, bin in agg.weekly_v6.items()} == {
            "2015-W24": IPv6Address("2001:db8::2").packed + IPv6Address("2001:db8:1::1").packed
        }
        assert {month_label(month): bin for month, bin in agg.month_48s.items()} == {
            "2015-06": bytes.fromhex("20010db80000" "20010db80001")
        }
        assert agg.weekly_as_ips == {}  # plain records have no origin
        rows = [(r.timestamp, r.site.code, r.ip, None) for r in v4 + v6]
        assert table_weekly_by_version(agg).to_csv() == oracles.oracle_weekly_by_version(rows)
        assert table_weekly_by_version(agg).rows == [("2015-W23", "v4", 2), ("2015-W24", "v6", 2)]

    def test_merge_refuses_an_aggregate_with_an_open_bin(self):
        for ip, version in (("10.0.0.1", "v4"), ("2001:db8::1", "v6")):
            agg = PartialAggregate()
            agg.add(rec("2015-06-01T10:00:00Z", ip))
            for pair in ((agg, PartialAggregate()), (PartialAggregate(), agg)):
                with pytest.raises(ValueError, match="seal"):
                    merge(*pair)
            agg.seal()
            assert table_weekly_by_version(merge(agg, PartialAggregate())).rows == [("2015-W23", version, 1)]


class TestTimeOrder:
    def test_add_refuses_a_record_of_an_earlier_week(self):
        agg = PartialAggregate()
        agg.add(rec("2015-06-08T10:00:00Z", "10.0.0.1"))
        before = copy.deepcopy(vars(agg))
        with pytest.raises(UnsortedInput, match="2015-W23"):
            agg.add(rec("2015-06-01T10:00:00Z", "10.0.0.2"))
        assert vars(agg) == before

    def test_add_refuses_a_v6_record_of_an_earlier_month_in_the_same_week(self):
        # 2016-01-01 and 2015-12-31 both fall in week 2015-W53.
        records = [rec("2016-01-01T10:00:00Z", "2001:db8:1::1"), rec("2015-12-31T10:00:00Z", "2001:db8:2::1")]
        agg = PartialAggregate()
        agg.add(records[0])
        agg.add(rec("2015-12-31T09:00:00Z", "10.0.0.1"))  # a v4 record has no month bin
        before = copy.deepcopy(vars(agg))
        with pytest.raises(UnsortedInput, match="2015-12"):
            agg.add(records[1])
        assert vars(agg) == before

        rows = [(r.timestamp, r.site.code, r.ip, None) for r in records]
        hitlist = ["2015-12-01\t2001:db8:2::/48\n", "2016-01-04\t2001:db8::/32\n"]
        entries, _bad = read_hitlist(hitlist)
        unsorted = aggregate(records)
        assert table_weekly_by_version(unsorted).to_csv() == oracles.oracle_weekly_by_version(rows)
        assert table_hitlist_overlap(unsorted, entries).to_csv() == oracles.oracle_hitlist_overlap(rows, hitlist)
        assert table_hitlist_overlap(unsorted, entries).rows == [("2015-12", 1, 1), ("2016-01", 1, 1)]

    def test_a_sealed_aggregate_refuses_any_record(self):
        agg = aggregate([rec("2015-06-01T10:00:00Z", "2001:db8::1")])
        with pytest.raises(UnsortedInput):
            agg.add(rec("2015-06-08T10:00:00Z", "2001:db8::2"))
        assert table_weekly_by_version(agg).rows == [("2015-W23", "v6", 1)]


class TestMerge:
    def test_identity(self):
        records = synth_corpus(500, seed=101)
        full = aggregate(records)
        empty = PartialAggregate()
        merged = merge(full, empty)
        assert table_weekly_by_version(merged).to_csv() == table_weekly_by_version(full).to_csv()

    def test_commutative_on_random_partials(self):
        records = synth_corpus(1000, seed=111)
        a = aggregate(records[:500])
        b = aggregate(records[500:])
        ab = merge(a, b)
        ba = merge(b, a)
        for emit in (table_weekly_by_version, table_site_fraction, table_cumulative_prefixes):
            assert emit(ab).to_csv() == emit(ba).to_csv()

    def test_idempotent_on_identical_inputs(self):
        records = synth_corpus(300, seed=121)
        a = aggregate(records)
        b = aggregate(records)
        merged = merge(a, b)
        assert table_weekly_by_version(merged).to_csv() == table_weekly_by_version(a).to_csv()
        table, _ = table_lifetimes(merged)
        expected, _ = table_lifetimes(a)
        assert table.to_csv() == expected.to_csv()

    def test_inputs_unchanged(self, oui_csv, hitlist_tsv):
        records = synth_corpus(2000, seed=171)
        a = aggregate(records[::2])
        b = aggregate(records[1::2])
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        entries, _ = read_hitlist(hitlist_tsv.read_text().splitlines())

        def render(agg):
            return {name: t.to_csv() for name, t in _all_tables(agg, db, entries, 5, 8).items()}

        before = (render(a), render(b))
        merge(a, b)
        assert (render(a), render(b)) == before

    def test_sealed_and_shuffled_shards_merge_and_stay_unchanged(self, oui_csv, hitlist_tsv):
        records = sorted(synth_corpus(2000, seed=181), key=lambda r: r.timestamp)
        shuffled = records[1::2]
        random.Random(5).shuffle(shuffled)
        sealed, unsorted = aggregate(records[::2]), aggregate(shuffled)
        for agg in (sealed, unsorted):
            for bins in (agg.weekly_v4, agg.weekly_v6, agg.weekly_as_ips, agg.month_48s):
                assert bins and type(bins) is dict and all(type(bin) is bytes for bin in bins.values())
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        entries, _ = read_hitlist(hitlist_tsv.read_text().splitlines())

        def render(agg):
            return {name: (t.to_csv(), t.to_json()) for name, t in _all_tables(agg, db, entries, 5, 8).items()}

        state = (copy.deepcopy(vars(sealed)), copy.deepcopy(vars(unsorted)))
        before = (render(sealed), render(unsorted))
        expected = render(aggregate(records))
        assert render(merge(sealed, unsorted)) == render(merge(unsorted, sealed)) == expected
        assert (vars(sealed), vars(unsorted)) == state
        assert (render(sealed), render(unsorted)) == before

    def test_sites_seen_in_opposite_orders(self):
        sites = [SiteId.from_code(f"site{i}wiki") for i in range(300)]
        rng = random.Random(12)
        pool = [IPv4Address(rng.getrandbits(32)) for _ in range(150)]
        pool += [IPv6Address(0x2001 << 112 | rng.getrandbits(64)) for _ in range(250)]
        start = datetime(2015, 6, 1, tzinfo=timezone.utc)

        def shard(order):
            return [
                AttributedRecord(start + timedelta(hours=n), sites[i], rng.choice(pool), OriginAs.parse("64500"), 0)
                for n, i in enumerate(list(order) * 3)
            ]

        up, down = shard(range(300)), shard(reversed(range(300)))
        a, b = aggregate(up), aggregate(down)
        assert list(a.sites) == [site.code for site in sites] == list(reversed(b.sites))
        records = sorted(up + down, key=lambda r: r.timestamp)
        expected = oracles.oracle_site_fraction([(r.timestamp, r.site.code, r.ip, r.origin.text) for r in records])
        assert table_site_fraction(aggregate(records)).to_csv() == expected
        for merged in (merge(a, b), merge(b, a)):
            assert table_site_fraction(merged).to_csv() == expected

    def test_keys_only_b_has_share_b_spans_when_sites_line_up(self):
        sites = [SiteId.from_code(code) for code in ("enwiki", "dewiki", "frwiki")]
        rng = random.Random(31)
        pool = [IPv6Address(0x2001 << 112 | rng.getrandbits(64)) for _ in range(500)]
        start = datetime(2015, 6, 1, tzinfo=timezone.utc)

        def shard(ips, hour):
            # Each address is seen twice, at two different sites, so that spans hold site combinations.
            return [
                AttributedRecord(start + timedelta(hours=hour + n), sites[n % 3], ip, OriginAs.parse("64500"), 0)
                for n, ip in enumerate(ips * 2)
            ]

        a, b = aggregate(shard(pool[:300], 0)), aggregate(shard(pool[200:], 1000))
        assert list(a.sites) == list(b.sites)
        out = merge(a, b)
        only_b = b.first_last.keys() - a.first_last.keys()
        assert len(only_b) == 200
        assert all(out.first_last[key] is b.first_last[key] for key in only_b)

    def test_sharded_equals_single_pass(self, oui_csv, hitlist_tsv):
        records = synth_corpus(4000, seed=131)
        single = aggregate(records)
        shards = [aggregate(records[i::8]) for i in range(8)]
        rng = random.Random(4)
        for _ in range(3):
            order = shards[:]
            rng.shuffle(order)
            merged = order[0]
            rest = order[1:]
            while rest:
                take = rng.randrange(len(rest))
                merged = merge(merged, rest.pop(take))
            with open(oui_csv, "rb") as fh:
                db = load_oui_database(fh)
            entries, _ = read_hitlist(hitlist_tsv.read_text().splitlines())
            for left, right in [
                (table_weekly_by_version(merged), table_weekly_by_version(single)),
                (table_site_fraction(merged), table_site_fraction(single)),
                (table_cumulative_prefixes(merged), table_cumulative_prefixes(single)),
                (table_ratio_per_48(merged), table_ratio_per_48(single)),
                (table_lifetimes(merged)[0], table_lifetimes(single)[0]),
                (table_weekly_by_as(merged, 5), table_weekly_by_as(single, 5)),
                (table_eui64_weekly(merged, db, 8)[0], table_eui64_weekly(single, db, 8)[0]),
                (table_eui64_weekly(merged, db, 8)[1], table_eui64_weekly(single, db, 8)[1]),
                (table_vendor_counts(merged, db), table_vendor_counts(single, db)),
                (table_hitlist_overlap(merged, entries), table_hitlist_overlap(single, entries)),
            ]:
                assert left.to_csv() == right.to_csv()
                assert left.to_json() == right.to_json()


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self):
        records = synth_corpus(1000, seed=141)
        a = table_weekly_by_version(aggregate(records))
        b = table_weekly_by_version(aggregate(list(records)))
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_invariants_counts_bounded(self):
        records = synth_corpus(1000, seed=151)
        table = table_weekly_by_version(aggregate(records))
        by_week = {}
        for r in records:
            by_week.setdefault(oracles.week_str(oracles.week_of(r.timestamp)), []).append(r)
        for week_text, _version, count in table.rows:
            assert count <= len(by_week[week_text])

    def test_fractions_bounded(self, oui_csv):
        records = synth_corpus(1000, seed=161)
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        agg = aggregate(records)
        for row in table_site_fraction(agg).rows:
            assert 0.0 <= row[4] <= 1.0
        for row in table_eui64_weekly(agg, db, 8)[1].rows:
            assert 0.0 <= row[2] <= 1.0


class TestScaleHarness:
    def test_smoke(self):
        harness = str(Path(__file__).parent / "aggharness.py")
        proc = subprocess.run([sys.executable, harness, "20000", "3", "300"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["records"], report["seed"], report["sites"]) == (20000, 3, 300)
        assert 0 < report["distinct_v6"] < report["distinct_addresses"] < 20000
        assert report["bytes_per_distinct_address"] > 0 and report["aggregate_s"] > 0
        sealed = report["sealed_bytes"]
        maps = ("weekly_v4", "weekly_v6", "weekly_as_ips", "month_48s")
        assert list(sealed) == [*maps, "per_distinct_address"]
        for name, width in zip(maps, (4, 16, 21, 6)):
            assert sealed[name] > 0 and sealed[name] % width == 0, name
        total = sum(sealed[name] for name in maps)
        assert sealed["per_distinct_address"] == round(total / report["distinct_addresses"], 1)
        assert report["maxrss_kb"] >= report["maxrss_kb_after_aggregate"] >= report["maxrss_kb_before"] > 0
        builders = [name for name in TABLE_NAMES if name != "eui64_fraction"]  # eui64_weekly builds both
        assert list(report["table_s"]) == list(report["table_maxrss_kb"]) == builders
        assert max(report["table_maxrss_kb"].values()) == report["maxrss_kb"]
