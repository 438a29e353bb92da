import io
import json
import os
import random
import struct
import subprocess
import sys
from bisect import bisect_left
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_network
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrt_synth as synth
import oracles
from wikiv6 import cli, forkjobs, netaddr, ribstore, slices
from wikiv6.ingest import EditRecord, SiteId, parse_timestamp
from wikiv6.ribstore import (
    BadPrefixTable,
    EmptyTimeline,
    MissingPeerIndex,
    OriginAs,
    RibSnapshot,
    RibTimeline,
    TimelineEntry,
    TruncatedRecord,
    UNROUTED,
    UnsortedInput,
    attribute,
    build_lpm,
    load_prefix_table,
    parse_mrt_rib,
    read_attributed,
    write_attributed,
    write_prefix_table,
)


class TestOriginAs:
    def test_text_forms(self):
        assert OriginAs.from_asn(64501).text == "64501"
        assert OriginAs.ambiguous([64502, 64501]).text == "set:64501,64502"
        assert UNROUTED.text == "unrouted"

    def test_parse_round_trip(self):
        for text in ("64501", "set:64501,64502", "unrouted"):
            assert OriginAs.parse(text).text == text

    def test_singleton_set_collapses(self):
        assert OriginAs.ambiguous([5, 5]) == OriginAs.from_asn(5)

    def test_asn_positive(self):
        with pytest.raises(ValueError):
            OriginAs.from_asn(0)


class TestParseMrt:
    def test_acceptance_fixture_exact(self):
        data, offsets, expected = synth.acceptance_file()
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.captured_at == datetime(2016, 9, 10, 0, 0, tzinfo=timezone.utc)
        assert snapshot.peer_count == 3
        got = [(str(p), o.text) for p, o in oracles.snapshot_pairs(snapshot)]
        assert got == expected
        assert snapshot.malformed_attributes == 0
        assert snapshot.skipped_types == 0

    def test_plurality_two_to_one(self):
        body = synth.rib_unicast_body(
            1,
            bytes.fromhex("20010db8"),
            32,
            [
                synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [1, 64501])])),
                synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [2, 64501])])),
                synth.rib_entry(2, 0, synth.as_path([(synth.AS_SEQUENCE, [3, 64502])])),
            ],
        )
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body()) + synth.mrt_record(10, 13, 4, body)
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.entries[0][1] == OriginAs.from_asn(64501)

    def test_tie_goes_to_lowest_asn(self):
        body = synth.rib_unicast_body(
            1,
            bytes.fromhex("20010db8"),
            32,
            [
                synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [1, 64502])])),
                synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [2, 64501])])),
            ],
        )
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body()) + synth.mrt_record(10, 13, 4, body)
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.entries[0][1] == OriginAs.from_asn(64501)

    def test_winning_set_is_ambiguous(self):
        data, _offsets, _expected = synth.acceptance_file()
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.entries[2][1] == OriginAs.ambiguous([64501, 64502])

    def test_single_peer_vote_is_that_origin(self):
        body = synth.rib_unicast_body(
            9,
            bytes.fromhex("2a020810"),
            32,
            [synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [64500, 64510])]))],
        )
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body()) + synth.mrt_record(10, 13, 4, body)
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert oracles.snapshot_pairs(snapshot) == [(ip_network("2a02:810::/32"), OriginAs.from_asn(64510))]

    def test_unknown_types_and_subtypes_skipped(self):
        data = (
            synth.mrt_record(10, 13, 1, synth.peer_index_body())
            + synth.mrt_record(10, 12, 1, b"\x00" * 8)  # TABLE_DUMP (v1)
            + synth.mrt_record(10, 13, 6, b"\x00" * 8)  # RIB_GENERIC
        )
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.skipped_types == 1
        assert snapshot.skipped_subtypes == 1
        assert snapshot.entries == []

    def test_every_interior_truncation_reports_record_start(self):
        data, offsets, _ = synth.acceptance_file()
        boundaries = set(offsets) | {len(data)}
        for cut in range(1, len(data)):
            if cut in boundaries:
                continue
            with pytest.raises(TruncatedRecord) as err:
                parse_mrt_rib(io.BytesIO(data[:cut]))
            expected_offset = max(o for o in offsets if o < cut)
            assert err.value.offset == expected_offset, f"cut at {cut}"

    def test_single_byte_truncation(self):
        data, offsets, _ = synth.acceptance_file()
        with pytest.raises(TruncatedRecord) as err:
            parse_mrt_rib(io.BytesIO(data[:-1]))
        assert err.value.offset == offsets[-1]

    # A PEER_INDEX_TABLE with no peers (20 bytes), then a RIB header whose length,
    # 0xFFFFFFF0, runs past the end of the file.
    OVERLONG = synth.mrt_record(10, 13, 1, synth.peer_index_body(peers=0)) + struct.pack(">IHHI", 10, 13, 4, 0xFFFFFFF0)

    class _Reads:
        """A seekable binary stream that logs each read(n), and fails one asking
        for more than the bytes left where `strict`."""

        def __init__(self, data: bytes, strict: bool):
            self._buf, self._size, self._strict, self.log = io.BytesIO(data), len(data), strict, []

        def read(self, n: int) -> bytes:
            left = self._size - self._buf.tell()
            assert not (self._strict and n > left), f"read({n}) with {left} bytes left"
            self.log.append(n)
            return self._buf.read(n)

        def tell(self) -> int:
            return self._buf.tell()

        def seek(self, *args) -> int:
            return self._buf.seek(*args)

    def test_overlong_record_is_truncated_without_reading_its_length(self):
        with pytest.raises(TruncatedRecord) as err:
            parse_mrt_rib(self._Reads(self.OVERLONG, strict=True))
        assert err.value.offset == 20 == len(self.OVERLONG) - 12

    def test_each_record_costs_one_read_of_its_body(self):
        data, offsets, _ = synth.acceptance_file()
        stream = self._Reads(data, strict=False)
        parse_mrt_rib(stream)
        bodies = [struct.unpack_from(">I", data, o + 8)[0] for o in offsets]
        assert stream.log == [n for body in bodies for n in (12, body)] + [12]

    def test_rib_before_peer_index_aborts(self):
        body = synth.rib_unicast_body(
            1, bytes.fromhex("20010db8"), 32,
            [synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [64501])]))],
        )
        with pytest.raises(MissingPeerIndex):
            parse_mrt_rib(io.BytesIO(synth.mrt_record(10, 13, 4, body)))

    def test_empty_stream_aborts(self):
        with pytest.raises(MissingPeerIndex):
            parse_mrt_rib(io.BytesIO(b""))

    def test_bits_past_prefix_length_are_dropped_and_votes_merge(self):
        # 10.0.1/23 has a bit set past its length (RFC 4271 4.3: irrelevant), so
        # it is 10.0.0.0/23 and its votes join the second record's. Alone, the
        # records would vote 64502 and 64501 (ties go low); together 64503 wins.
        first = [
            synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [1, 64502])])),
            synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [2, 64503])])),
        ]
        second = [
            synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [3, 64503])])),
            synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [4, 64501])])),
        ]
        data = (
            synth.mrt_record(10, 13, 1, synth.peer_index_body())
            + synth.mrt_record(10, 13, 2, synth.rib_unicast_body(1, bytes([10, 0, 1]), 23, first))
            + synth.mrt_record(10, 13, 2, synth.rib_unicast_body(2, bytes([10, 0, 0]), 23, second))
        )
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert oracles.snapshot_pairs(snapshot) == [(ip_network("10.0.0.0/23"), OriginAs.from_asn(64503))]
        assert snapshot.malformed_records == 0

    def test_entry_without_as_path_counts_malformed(self):
        body = synth.rib_unicast_body(
            1, bytes.fromhex("20010db8"), 32,
            [synth.rib_entry(0, 0, synth.origin_igp_attr())],
        )
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body()) + synth.mrt_record(10, 13, 4, body)
        snapshot = parse_mrt_rib(io.BytesIO(data))
        assert snapshot.malformed_attributes == 1
        assert snapshot.entries == []


class TestPrefixTable:
    def test_one_entry(self):
        text = "# captured_at=2016-09-10T00:00:00Z\n2001:db8::/32\t64501\n"
        snapshot = load_prefix_table(io.StringIO(text))
        assert snapshot.captured_at == parse_timestamp("2016-09-10T00:00:00Z")
        assert oracles.snapshot_pairs(snapshot) == [(ip_network("2001:db8::/32"), OriginAs.from_asn(64501))]

    def test_empty_body_usable(self):
        snapshot = load_prefix_table(io.StringIO("# captured_at=2016-09-10T00:00:00Z\n"))
        assert snapshot.entries == []
        index = build_lpm(snapshot)
        assert index.lookup(IPv6Address("2001:db8::1")) == UNROUTED

    def test_bad_rows_skipped_and_counted(self):
        text = (
            "# captured_at=2016-09-10T00:00:00Z\n"
            "2001:db8::/32\t64501\n"
            "notaprefix\t1\n"
            "2001:db8::1/64\t7\n"  # host bits set
            "2001:db8::/48\tnotanasn\n"
            "missing-tab\n"
        )
        snapshot = load_prefix_table(io.StringIO(text))
        assert len(snapshot.entries) == 1
        assert snapshot.bad_rows == 4

    @pytest.mark.parametrize(
        "tied, winner",
        [
            (["64502", "set:64501,64502", "64501"], "64501"),
            (["set:64501,64503", "set:64501,64502"], "set:64501,64502"),
            (["unrouted", "set:64501,64502"], "set:64501,64502"),
        ],
    )
    def test_tie_goes_to_lowest_first_differing_asn(self, tied, winner):
        text = "# captured_at=2016-09-10T00:00:00Z\n" + "".join(f"10.0.0.0/8\t{origin}\n" for origin in tied)
        assert load_prefix_table(io.StringIO(text)).entries[0][1].text == winner

    def test_missing_header_fails(self):
        with pytest.raises(BadPrefixTable):
            load_prefix_table(io.StringIO("2001:db8::/32\t64501\n"))

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(),
                st.sampled_from([
                    "# captured_at=2016-09-10T00:00:00Z", "# captured_at=junk", "# captured_at=2016-09-10",
                    "# captured_at=0001-01-01T00:00:00+01:00", "#", "",
                ]),
                st.builds(
                    "{}\t{}".format,
                    st.sampled_from(["2001:db8::/32", "10.0.0.0/8", "10.0.0.1/8", "::/0", "2001:db8::/129", "\udcff/8"])
                    | st.text(),
                    st.sampled_from(["64501", "set:64501,64502", "unrouted", "0", "set:", "AS1", "64501\t1"]) | st.text(),
                ),
            ).map(lambda line: line + "\n"),
            max_size=8,
        )
    )
    def test_any_lines_give_a_snapshot_or_a_typed_error(self, lines):
        try:
            snapshot = load_prefix_table(lines)
        except BadPrefixTable:
            assert not any(line.startswith("# captured_at=") for line in lines)
            return
        except ValueError:  # only the first header's timestamp can fail to parse
            assert any(line.startswith("# captured_at=") for line in lines)
            return
        assert len(snapshot.entries) + snapshot.bad_rows <= len(lines) - 1

    def test_rows_are_written_as_ip_network_writes_them(self):
        rng = random.Random(5952)
        texts = ["0.0.0.0/0", "::/0", "::1/128", "::ffff:0:0/96", "64:ff9b::/96"]
        prefixes = {ip_network(text) for text in texts}
        for _ in range(2000):
            width = rng.choice([32, 128, 128])
            plen = rng.randrange(width + 1)
            # Low v6 networks too: key_text formats those with the first 80 bits zero through ipaddress.
            value = rng.getrandbits(width) >> (rng.choice([0, 0, 80, 96, 120]) if width == 128 else 0)
            value = value >> (width - plen) << (width - plen)
            prefixes.add(ip_network((value.to_bytes(width // 8, "big"), plen)))
        pairs = [(prefix, OriginAs.from_asn(rng.randrange(1, 1 << 32))) for prefix in prefixes]
        sink = io.StringIO()
        write_prefix_table(RibSnapshot(parse_timestamp("2020-01-01T00:00:00Z"), pairs), sink)
        rows = sink.getvalue().splitlines()[1:]
        pairs.sort(key=lambda e: (e[0].version, int(e[0].network_address), e[0].prefixlen))
        assert rows == [f"{prefix}\t{origin.text}" for prefix, origin in pairs]
        assert set(texts) <= {row.partition("\t")[0] for row in rows}

    def test_round_trip_random_table(self):
        rng = random.Random(31337)
        entries = []
        seen = set()
        for _ in range(1000):
            plen = rng.choice([16, 24, 32, 40, 48, 56, 64])
            bits = (rng.getrandbits(plen) << (128 - plen)) if plen else 0
            prefix = ip_network((bits.to_bytes(16, "big"), plen))
            if prefix in seen:
                continue
            seen.add(prefix)
            origin = (
                OriginAs.from_asn(rng.randrange(1, 1 << 16))
                if rng.random() < 0.9
                else OriginAs.ambiguous(rng.sample(range(1, 99999), 2))
            )
            entries.append((prefix, origin))
        snapshot = RibSnapshot(parse_timestamp("2020-01-01T00:00:00Z"), entries)
        sink = io.StringIO()
        rows = write_prefix_table(snapshot, sink)
        assert rows == len(entries)
        again = load_prefix_table(io.StringIO(sink.getvalue()))
        assert again.captured_at == snapshot.captured_at
        assert oracles.snapshot_pairs(again) == sorted(
            entries, key=lambda e: (e[0].version, int(e[0].network_address), e[0].prefixlen)
        )
        twice = io.StringIO()
        write_prefix_table(again, twice)
        assert twice.getvalue() == sink.getvalue()


def _route_key_via_ip_network(text, strict=True):
    try:
        prefix = ip_network(text, strict)
        return (prefix.version, int(prefix.network_address), prefix.prefixlen)
    except ValueError:
        return None


def _route_key_or_none(text, strict=True):
    try:
        return netaddr.prefix_key(text, strict)
    except ValueError:
        return None


def _spell_prefix(value: int, v6: bool, plen: int, spelling: str) -> str:
    width = 128 if v6 else 32
    plen = min(plen, width)
    value &= (1 << width) - 1
    network = value >> (width - plen) << (width - plen)
    address = (IPv6Address if v6 else IPv4Address)(network)
    if spelling == "host_bits":
        address = (IPv6Address if v6 else IPv4Address)(value)
    text = netaddr.canonical_text(address)
    if spelling == "zero_padded_length":
        return f"{text}/0{plen}"
    if spelling == "netmask" and not v6:
        return f"{text}/{IPv4Address(((1 << plen) - 1) << (32 - plen))}"
    if spelling == "bare":
        return text
    if spelling == "too_long":
        return f"{text}/{width + 1}"
    if spelling == "padded":
        return f" {text}/{plen}"
    if spelling == "upper":
        return f"{text.upper()}/{plen}"
    if spelling == "exploded":
        return f"{address.exploded}/{plen}"
    return f"{text}/{plen}"


class TestRouteKey:
    """load_prefix_table's prefix decoder, ``netaddr.prefix_key``, gives ip_network's key, or
    fails where ip_network does; without `strict` too, as the hitlist reader calls it."""

    @settings(max_examples=500, deadline=None)
    @given(
        value=st.integers(0, 2**128 - 1) | st.integers(0, 2**48 - 1) | st.integers(0, 2**32 - 1),
        v6=st.booleans(),
        plen=st.integers(0, 128),
        spelling=st.sampled_from([
            "canonical", "canonical", "host_bits", "zero_padded_length", "netmask", "bare", "too_long",
            "padded", "upper", "exploded",
        ]),
    )
    def test_matches_ip_network(self, value, v6, plen, spelling):
        text = _spell_prefix(value, v6, plen, spelling)
        assert _route_key_or_none(text) == _route_key_via_ip_network(text)
        assert _route_key_or_none(text, strict=False) == _route_key_via_ip_network(text, strict=False)

    @pytest.mark.parametrize("text", [
        "10.0.0.0/8", "10.0.0.0/08", "10.0.0.0/255.0.0.0", "10.0.0.0/0.255.255.255", "10.0.0.1", "2001:db8::1",
        "10.0.0.1/8", "2001:db8::1/32", "10.0.0.0/33", "2001:db8::/129", "::ffff:1.2.3.0/120",
        "::ffff:102:300/120", "::/0", "0.0.0.0/0", " 10.0.0.0/8", "10.0.0.0/8 ", "2001:DB8::/32",
        "2001:0db8::/32", "fe80::%eth0/64", "10.0.0.0/+8", "10.0.0.0/٨", "10.0.0.0/", "/8", "",
    ])
    def test_spellings(self, text):
        assert _route_key_or_none(text) == _route_key_via_ip_network(text)
        assert _route_key_or_none(text, strict=False) == _route_key_via_ip_network(text, strict=False)

    def test_bad_rows_count_as_before(self):
        rows = ["10.0.0.0/08\t1", "10.0.0.0/255.0.0.0\t2", "10.0.0.1\t3", "10.0.0.1/8\t4", "10.0.0.0/33\t5",
                "::ffff:1.2.3.0/120\t6", " 10.0.0.0/8\t7"]
        snapshot = load_prefix_table(["# captured_at=2016-09-10T00:00:00Z\n", *(row + "\n" for row in rows)])
        assert snapshot.bad_rows == 3
        assert [(str(prefix), origin.text) for prefix, origin in oracles.snapshot_pairs(snapshot)] == [
            ("10.0.0.0/8", "1"), ("10.0.0.1/32", "3"), ("::ffff:102:300/120", "6"),
        ]


def _linear_scan_lookup(entries, ip):
    best = None
    best_len = -1
    for prefix, origin in entries:
        if prefix.version != ip.version:
            continue
        if ip in prefix and prefix.prefixlen > best_len:
            best, best_len = origin, prefix.prefixlen
    return best if best is not None else UNROUTED


def _edge_probes(entries):
    """Addresses at, just inside and just outside every prefix, plus both ends of each space."""
    probes = {IPv4Address(0), IPv4Address(2**32 - 1), IPv6Address(0), IPv6Address(2**128 - 1)}
    for prefix, _origin in entries:
        first, last = int(prefix.network_address), int(prefix.broadcast_address)
        make = type(prefix.network_address)
        for value in (first - 1, first, (first + last) // 2, last, last + 1):
            if 0 <= value < 2 ** prefix.max_prefixlen:
                probes.add(make(value))
    return sorted(probes, key=lambda ip: (ip.version, int(ip)))


LPM_EDGE_CASES = {
    "v6-default": [("::/0", 1), ("2001:db8::/32", 2)],
    "v4-default": [("0.0.0.0/0", 1), ("10.0.0.0/8", 2)],
    "touching-siblings": [
        ("10.0.0.0/9", 1), ("10.128.0.0/9", 2), ("11.0.0.0/8", 3),
        ("2001:db8::/33", 4), ("2001:db8:8000::/33", 5),
    ],
    "child-ends-with-parent": [
        ("10.0.0.0/8", 1), ("10.255.0.0/16", 2), ("10.255.255.0/24", 3),
        ("2001:db8::/32", 4), ("2001:db8:ffff::/48", 5),
    ],
    "top-of-space": [
        ("ffff::/16", 1), ("ffff:ffff::/32", 2), ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 3),
        ("255.0.0.0/8", 4), ("255.255.255.255/32", 5),
    ],
    "hosts": [("192.0.2.0/24", 1), ("192.0.2.1/32", 2), ("0.0.0.0/32", 3), ("2001:db8::/64", 4), ("2001:db8::1/128", 5)],
    "one-start-many-lengths": [
        ("10.0.0.0/8", 1), ("10.0.0.0/16", 2), ("10.0.0.0/24", 3), ("10.0.0.0/32", 4),
        ("2001:db8::/32", 5), ("2001:db8::/48", 6), ("2001:db8::/128", 7),
    ],
    "v4-and-v6": [("::/0", 1), ("0.0.0.0/0", 2), ("::ffff:0:0/96", 3), ("10.0.0.0/8", 4), ("::a00:0/104", 5)],
}


class TestLpm:
    def test_longer_match_wins(self):
        snapshot = RibSnapshot(
            parse_timestamp("2020-01-01T00:00:00Z"),
            [
                (ip_network("::/0"), OriginAs.from_asn(1)),
                (ip_network("2001:db8::/32"), OriginAs.from_asn(2)),
            ],
        )
        index = build_lpm(snapshot)
        assert index.lookup(IPv6Address("2001:db8::1")) == OriginAs.from_asn(2)
        assert index.lookup(IPv6Address("2600::1")) == OriginAs.from_asn(1)

    def test_no_default_route_is_unrouted(self):
        index = build_lpm(_synth_snapshot("2020-01-01T00:00:00Z", [("2001:db8::/32", "2")]))
        assert index.lookup(IPv6Address("2600::1")) == UNROUTED
        assert index.lookup(IPv4Address("10.0.0.1")) == UNROUTED

    def test_full_length_prefix(self):
        index = build_lpm(_synth_snapshot("2020-01-01T00:00:00Z", [("2001:db8::1/128", "9")]))
        assert index.lookup(IPv6Address("2001:db8::1")) == OriginAs.from_asn(9)
        assert index.lookup(IPv6Address("2001:db8::2")) == UNROUTED

    def test_duplicate_prefixes_collapse_by_vote(self):
        snapshot = RibSnapshot(
            parse_timestamp("2020-01-01T00:00:00Z"),
            [
                (ip_network("2001:db8::/32"), OriginAs.from_asn(5)),
                (ip_network("2001:db8::/32"), OriginAs.from_asn(7)),
                (ip_network("2001:db8::/32"), OriginAs.from_asn(7)),
            ],
        )
        index = build_lpm(snapshot)
        assert index.lookup(IPv6Address("2001:db8::1")) == OriginAs.from_asn(7)

    def test_random_tables_match_linear_scan(self):
        rng = random.Random(777)
        for _ in range(3):
            entries = []
            for _ in range(300):
                plen = rng.randrange(8, 65)
                bits = rng.getrandbits(plen) << (128 - plen)
                entries.append(
                    (ip_network((bits.to_bytes(16, "big"), plen)), OriginAs.from_asn(rng.randrange(1, 70000)))
                )
            dedup = {}
            for prefix, origin in entries:
                dedup[prefix] = origin  # last one wins in both paths below
            entries = list(dedup.items())
            index = build_lpm(RibSnapshot(parse_timestamp("2020-01-01T00:00:00Z"), entries))
            for _ in range(500):
                if rng.random() < 0.7:
                    prefix, _origin = entries[rng.randrange(len(entries))]
                    ip = IPv6Address(int(prefix.network_address) | rng.getrandbits(128 - prefix.prefixlen))
                else:
                    ip = IPv6Address(rng.getrandbits(128))
                assert index.lookup(ip) == _linear_scan_lookup(entries, ip)

    @pytest.mark.parametrize("rows", LPM_EDGE_CASES.values(), ids=LPM_EDGE_CASES.keys())
    def test_matches_linear_scan(self, rows):
        entries = [(ip_network(p), OriginAs.from_asn(asn)) for p, asn in rows]
        built = build_lpm(RibSnapshot(parse_timestamp("2020-01-01T00:00:00Z"), entries))
        for ip in _edge_probes(entries):
            expected = _linear_scan_lookup(entries, ip)
            assert built.lookup(ip) == expected, ip


def _mk_timeline(times):
    snapshots = [RibSnapshot(t, []) for t in times]
    return RibTimeline.from_snapshots(snapshots)


class TestNearestSnapshot:
    def test_before_midpoint(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        t1 = parse_timestamp("2020-01-01T02:00:00Z")
        timeline = _mk_timeline([t0, t1])
        assert timeline.nearest_position(parse_timestamp("2020-01-01T00:59:00Z")) == 0

    def test_tie_prefers_earlier(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        t1 = parse_timestamp("2020-01-01T02:00:00Z")
        timeline = _mk_timeline([t0, t1])
        assert timeline.nearest_position(parse_timestamp("2020-01-01T01:00:00Z")) == 0

    def test_empty_timeline(self):
        with pytest.raises(EmptyTimeline):
            RibTimeline([]).nearest_position(parse_timestamp("2020-01-01T00:00:00Z"))

    def test_random_matches_exhaustive_scan(self):
        rng = random.Random(5)
        base = parse_timestamp("2019-06-01T00:00:00Z")
        times = sorted({base + timedelta(seconds=rng.randrange(0, 10_000_000)) for _ in range(100)})
        timeline = _mk_timeline(times)
        for _ in range(1000):
            t = base + timedelta(seconds=rng.randrange(-100_000, 10_100_000))
            got = times[timeline.nearest_position(t)]
            best = min(times, key=lambda s: (abs((s - t).total_seconds()), s))
            assert got == best

    def test_strictly_increasing_enforced(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        with pytest.raises(ValueError):
            _mk_timeline([t0, t0])


def _synth_snapshot(ts_text, rows):
    return RibSnapshot(
        parse_timestamp(ts_text),
        [(ip_network(p), OriginAs.parse(o)) for p, o in rows],
    )


def _reference_nearest(times, t):
    """The nearest snapshot position by subtraction: the earlier one on a tie."""
    i = bisect_left(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return i - 1
    return i - 1 if t - times[i - 1] <= times[i] - t else i


_ZONES = st.sampled_from(
    [
        timezone.utc,
        timezone(timedelta(hours=5, minutes=30)),
        timezone(timedelta(hours=-8)),
        timezone(-timedelta(microseconds=1)),
    ]
)
# Gaps in microseconds; odd ones put the exact midpoint between two microseconds.
_GAPS = st.one_of(st.integers(0, 10**6).map(lambda g: 2 * g + 1), st.integers(1, 10**12))


class TestHandovers:
    @settings(max_examples=300, deadline=None)
    @given(
        start=st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 1, 1)),
        gaps=st.lists(_GAPS, max_size=8),
        zones=st.lists(_ZONES, min_size=9, max_size=9),
    )
    def test_matches_the_subtraction_rule(self, start, gaps, zones):
        offsets = [0]
        for gap in gaps:
            offsets.append(offsets[-1] + gap)
        utc = start.replace(tzinfo=timezone.utc)
        times = [(utc + timedelta(microseconds=o)).astimezone(z) for o, z in zip(offsets, zones)]
        timeline = _mk_timeline(times)
        probes = [times[0] - timedelta(days=1), times[-1] + timedelta(days=1), *times]
        for a, b in zip(times, times[1:]):
            middle = a + (b - a) // 2
            probes += [middle + timedelta(microseconds=d) for d in (-1, 0, 1, 2)]
        for t in probes:
            for probe in (t, t.astimezone(timezone.utc)):
                assert timeline.nearest_position(probe) == _reference_nearest(times, probe), probe


class TestAttributeHandovers:
    US = timedelta(microseconds=1)

    def _timeline(self, times, loads):
        def loader(i):
            def load():
                loads[i] += 1
                return RibSnapshot(times[i], [(ip_network("::/0"), OriginAs.from_asn(100 + i))])
            return load

        return RibTimeline([TimelineEntry(t, loader(i)) for i, t in enumerate(times)])

    def test_hand_overs_and_skipped_snapshots(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        hours = [0, 2, 4, 6, 8, 10]
        times = [t0 + timedelta(hours=h) for h in hours]
        times[1] += self.US  # an odd gap: the midpoint of 0 and 1 falls between two microseconds
        times[2] += self.US  # an even gap: the midpoint of 1 and 2 is a tie
        loads = [0] * len(times)
        timeline = self._timeline(times, loads)
        h01 = t0 + timedelta(hours=1)  # the last microsecond snapshot 0 serves
        h12 = times[1] + timedelta(hours=1)  # as near to snapshot 2 as to 1
        h34 = times[3] + timedelta(hours=1)
        stamps = [
            h01 - self.US, h01, h01 + self.US,
            h12 - self.US, h12,
            h34 + self.US, h34 + self.US,  # skips snapshots 2 and 3
            times[5] + timedelta(days=30),  # past the last snapshot
        ]
        site = SiteId.from_code("enwiki")
        records = [EditRecord(t, site, IPv6Address("2001:db8::1")) for t in stamps]
        out = list(attribute(records, timeline))
        served = [r.origin.asns[0] - 100 for r in out]
        assert served == [0, 0, 1, 1, 1, 4, 4, 5]
        assert served == [_reference_nearest(times, t) for t in stamps]
        assert [r.snapshot_delta_s for r in out] == [
            int((t - times[i]).total_seconds()) for t, i in zip(stamps, served)
        ]
        assert loads == [1, 1, 0, 0, 1, 1]

    def test_first_record_after_the_first_snapshots(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        times = [t0 + timedelta(days=d) for d in range(4)]
        loads = [0] * len(times)
        timeline = self._timeline(times, loads)
        record = EditRecord(times[2] + self.US, SiteId.from_code("enwiki"), IPv6Address("2001:db8::1"))
        assert [r.origin for r in attribute([record], timeline)] == [OriginAs.from_asn(102)]
        assert loads == [0, 0, 1, 0]
        assert list(attribute([], timeline)) == []

    def test_regression_after_a_hand_over_raises(self):
        t0 = parse_timestamp("2020-01-01T00:00:00Z")
        timeline = self._timeline([t0, t0 + timedelta(hours=2)], [0, 0])
        site = SiteId.from_code("enwiki")
        stamps = [t0 + timedelta(hours=1, microseconds=1), t0 + timedelta(hours=1)]
        records = [EditRecord(t, site, IPv6Address("2001:db8::1")) for t in stamps]
        with pytest.raises(UnsortedInput):
            list(attribute(records, timeline))


class TestAttribute:
    def _records(self, specs):
        site = SiteId.from_code("enwiki")
        from ipaddress import ip_address

        return [EditRecord(parse_timestamp(ts), site, ip_address(ip)) for ts, ip in specs]

    def test_single_candidate_prefix(self):
        timeline = RibTimeline.from_snapshots(
            [
                _synth_snapshot("2016-08-01T00:00:00Z", []),
                _synth_snapshot("2016-09-01T00:00:00Z", [("2409:4042::/32", "55836")]),
            ]
        )
        records = self._records([("2016-09-10T00:00:00Z", "2409:4042:1::5")])
        out = list(attribute(records, timeline))
        assert out[0].origin == OriginAs.from_asn(55836)
        assert out[0].snapshot_delta_s == 9 * 86400

    def test_uncovered_ip_is_unrouted(self):
        timeline = RibTimeline.from_snapshots([_synth_snapshot("2016-09-01T00:00:00Z", [])])
        out = list(attribute(self._records([("2016-09-10T00:00:00Z", "2001:db8::1")]), timeline))
        assert out[0].origin == UNROUTED

    def test_unsorted_input_raises(self):
        timeline = RibTimeline.from_snapshots([_synth_snapshot("2016-09-01T00:00:00Z", [])])
        records = self._records(
            [("2016-09-10T00:00:00Z", "2001:db8::1"), ("2016-09-09T00:00:00Z", "2001:db8::2")]
        )
        with pytest.raises(UnsortedInput):
            list(attribute(records, timeline))

    def test_monotone_snapshot_assignment(self):
        times = [f"2016-09-0{d}T00:00:00Z" for d in range(1, 8)]
        timeline = RibTimeline.from_snapshots([_synth_snapshot(t, []) for t in times])
        records = self._records(
            [(f"2016-09-0{d}T{h:02d}:00:00Z", "2001:db8::1") for d in range(1, 7) for h in (1, 13)]
        )
        out = list(attribute(records, timeline))
        assigned = [r.timestamp - timedelta(seconds=r.snapshot_delta_s) for r in out]
        assert assigned == sorted(assigned)

    def test_matches_nested_loop_oracle(self):
        rng = random.Random(2024)
        snapshots = [
            _synth_snapshot(
                "2016-09-01T00:00:00Z",
                [("2001:db8::/32", "64500"), ("2001:db8:1::/48", "64501"), ("10.0.0.0/8", "65001")],
            ),
            _synth_snapshot(
                "2016-09-15T00:00:00Z",
                [("2001:db8::/32", "64500"), ("2409:4042::/32", "55836"), ("::/0", "64999")],
            ),
            _synth_snapshot(
                "2016-10-01T00:00:00Z",
                [("2409:4042::/32", "55836"), ("2001:db8:1::/48", "set:64501,64502")],
            ),
        ]
        timeline = RibTimeline.from_snapshots(snapshots)
        pool = ["2001:db8::5", "2001:db8:1::5", "2409:4042::9", "10.1.2.3", "8.8.8.8", "2a02:810::1"]
        base = parse_timestamp("2016-08-25T00:00:00Z")
        specs = sorted(
            (base + timedelta(seconds=rng.randrange(0, 45 * 86400)) for _ in range(500)),
        )
        site = SiteId.from_code("enwiki")
        from ipaddress import ip_address

        records = [EditRecord(t, site, ip_address(rng.choice(pool))) for t in specs]
        got = list(attribute(records, timeline))

        for record, out in zip(records, got):
            best = min(
                snapshots,
                key=lambda s: (abs((s.captured_at - record.timestamp).total_seconds()), s.captured_at),
            )
            origin = _linear_scan_lookup(oracles.snapshot_pairs(best), record.ip)
            assert out.origin == origin
            assert out.snapshot_delta_s == int((record.timestamp - best.captured_at).total_seconds())

    def test_deterministic_output(self):
        timeline1 = RibTimeline.from_snapshots(
            [_synth_snapshot("2016-09-01T00:00:00Z", [("2001:db8::/32", "64500")])]
        )
        timeline2 = RibTimeline.from_snapshots(
            [_synth_snapshot("2016-09-01T00:00:00Z", [("2001:db8::/32", "64500")])]
        )
        records = self._records(
            [("2016-09-10T00:00:00Z", "2001:db8::1"), ("2016-09-11T00:00:00Z", "10.0.0.1")]
        )
        a = io.StringIO()
        b = io.StringIO()
        write_attributed(attribute(records, timeline1), a)
        write_attributed(attribute(records, timeline2), b)
        assert a.getvalue() == b.getvalue()

    def test_attributed_tsv_round_trip(self):
        timeline = RibTimeline.from_snapshots(
            [_synth_snapshot("2016-09-01T00:00:00Z", [("2001:db8::/32", "set:64500,64501")])]
        )
        records = self._records(
            [("2016-09-10T00:00:00Z", "2001:db8::1"), ("2016-09-11T00:00:00Z", "10.0.0.1")]
        )
        out = list(attribute(records, timeline))
        sink = io.StringIO()
        write_attributed(out, sink)
        assert list(read_attributed(io.StringIO(sink.getvalue()))) == out


def _mixed_rib_files(tmp_path):
    """An MRT file captured 2016-09-10 and a prefix table captured 2016-09-12."""
    mrt_data, _, _ = synth.acceptance_file()
    mrt_path = tmp_path / "rib.mrt"
    mrt_path.write_bytes(mrt_data)
    table_path = tmp_path / "prefixes.tsv"
    table_path.write_text(
        "# captured_at=2016-09-12T00:00:00Z\n2620:119::/32\t36692\n", encoding="utf-8"
    )
    return [str(table_path), str(mrt_path)]


class TestTimelineFiles:
    def test_from_files_mixed_sources(self, tmp_path):
        timeline = RibTimeline.from_files(_mixed_rib_files(tmp_path))
        assert [e.captured_at.day for e in timeline.entries] == [10, 12]
        assert timeline.nearest_position(parse_timestamp("2016-09-11T22:00:00Z")) == 1
        assert timeline.entries[1].index().lookup(IPv6Address("2620:119::35")) == OriginAs.from_asn(36692)

    def test_each_file_opened_once_to_sniff_and_once_to_load(self, tmp_path, monkeypatch):
        paths = _mixed_rib_files(tmp_path)
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(ribstore, "open", counting_open, raising=False)
        timeline = RibTimeline.from_files(paths)
        assert sorted(opened) == sorted(paths)
        for entry in timeline.entries:
            entry.index()
        assert sorted(opened) == sorted(paths * 2)


def _decoded(data):
    """parse_mrt_rib's result in the reference decoder's terms, or the error it raised."""
    try:
        snapshot = parse_mrt_rib(io.BytesIO(data))
    except TruncatedRecord as exc:
        return ("truncated", exc.offset)
    except MissingPeerIndex:
        return ("no-peer-index",)
    return {
        "captured_at": int(snapshot.captured_at.timestamp()),
        "peer_count": snapshot.peer_count,
        "skipped_types": snapshot.skipped_types,
        "skipped_subtypes": snapshot.skipped_subtypes,
        "malformed_records": snapshot.malformed_records,
        "malformed_attributes": snapshot.malformed_attributes,
        "entries": [(str(p), o.text) for p, o in oracles.snapshot_pairs(snapshot)],
    }


def _reference(data):
    try:
        return oracles.oracle_mrt_rib(data)
    except oracles.OracleTruncated as exc:
        return ("truncated", exc.offset)
    except oracles.OracleNoPeerIndex:
        return ("no-peer-index",)


# A few ASNs, so peers agree, disagree and tie; 0 and 2**32 - 1 are the edges.
_ASNS = st.sampled_from([0, 1, 2, 64500, 64501, 64502, 2**32 - 1])


@st.composite
def _as_path_attr(draw):
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from([synth.AS_SET, synth.AS_SEQUENCE, synth.AS_SEQUENCE, 3]),  # 3: AS_CONFED_SEQUENCE
                st.lists(_ASNS, min_size=0 if draw(st.integers(0, 9)) == 0 else 1, max_size=4),
            ),
            min_size=0 if draw(st.integers(0, 9)) == 0 else 1,
            max_size=3,
        )
    )
    return synth.as_path(segments, extended=draw(st.booleans()))


@st.composite
def _peer_entry(draw, peer):
    attrs = b""
    if draw(st.booleans()):
        attrs += synth.origin_igp_attr()
    if draw(st.integers(0, 9)):  # one entry in ten has no AS_PATH
        attrs += draw(_as_path_attr())
    if draw(st.booleans()):
        attrs += synth.med_attr(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 7)) == 0:  # a blob cut short, its length field kept true to the cut
        attrs = attrs[: draw(st.integers(0, max(0, len(attrs) - 1)))]
    return synth.rib_entry(peer, 0, attrs)


@st.composite
def _rib_record(draw, ts, peers):
    v6 = draw(st.booleans())
    width = 128 if v6 else 32
    # Few distinct prefixes, so records often share one once host bits are dropped.
    plen = draw(st.sampled_from([0, 1, 7, 8, 9, 23, 24, 25, 32] + ([48, 63, 64, 127, 128] if v6 else [])))
    top = draw(st.sampled_from([0, 0x20010DB8, 0x0A000000, 0xFFFFFFFF]))
    bits = (top << (width - 32)) | draw(st.integers(0, 2**8 - 1))  # low bits set past most lengths
    entries = [draw(_peer_entry(i)) for i in range(draw(st.integers(1, peers)))]
    body = synth.rib_unicast_body(draw(st.integers(0, 99)), bits.to_bytes(width // 8, "big"), plen, entries)
    if draw(st.integers(0, 9)) == 0:  # an entry count that runs past the body
        at = 5 + (plen + 7) // 8
        body = body[:at] + struct.pack(">H", len(entries) + draw(st.integers(1, 3))) + body[at + 2 :]
    return synth.mrt_record(ts, synth.TABLE_DUMP_V2, synth.RIB_IPV6_UNICAST if v6 else synth.RIB_IPV4_UNICAST, body)


@st.composite
def _mrt_files(draw):
    ts = draw(st.integers(0, 2**32 - 1))
    peers = draw(st.integers(1, 6))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:  # TABLE_DUMP (v1) or another MRT type
            records.append(synth.mrt_record(ts, draw(st.sampled_from([11, 12, 16])), 1, b"\x00" * 8))
        elif kind == 1:  # RIB_IPV4_MULTICAST, RIB_GENERIC, ...
            records.append(synth.mrt_record(ts, synth.TABLE_DUMP_V2, draw(st.sampled_from([3, 5, 6, 9])), b"\x00" * 8))
        else:
            records.append(draw(_rib_record(ts, peers)))
    if draw(st.integers(0, 19)):  # one file in twenty has no PEER_INDEX_TABLE, and one in ten has it late
        at = 0 if draw(st.integers(0, 9)) else draw(st.integers(0, len(records)))
        records.insert(at, synth.mrt_record(ts, synth.TABLE_DUMP_V2, synth.PEER_INDEX_TABLE, synth.peer_index_body(peers=peers)))
    return b"".join(records)


class TestMrtReference:
    """parse_mrt_rib against the field-by-field reference decoder in tests/oracles.py."""

    def test_acceptance_file(self):
        data, _offsets, expected = synth.acceptance_file()
        assert _reference(data)["entries"] == expected
        assert _decoded(data) == _reference(data)

    def test_tie_between_an_asn_and_a_set_that_starts_with_it(self):
        entries = [
            synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [1, 64501])])),
            synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [2]), (synth.AS_SET, [64502, 64501])])),
        ]
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body()) + synth.mrt_record(
            10, 13, 4, synth.rib_unicast_body(1, bytes.fromhex("20010db8"), 32, entries)
        )
        decoded = _decoded(data)
        assert decoded == _reference(data)
        assert decoded["entries"] == [("2001:db8::/32", "64501")]

    def test_asn_zero_in_an_as_set_is_malformed(self):
        # RFC 7607: AS 0 in an origin AS_SET is malformed, like a final AS_SEQUENCE ending in 0.
        entries = [
            synth.rib_entry(0, 0, synth.as_path([(synth.AS_SEQUENCE, [64500]), (synth.AS_SET, [0, 64501])])),
            synth.rib_entry(1, 0, synth.as_path([(synth.AS_SEQUENCE, [64500, 0])])),
            synth.rib_entry(2, 0, synth.as_path([(synth.AS_SEQUENCE, [64500, 64502])])),
        ]
        data = synth.mrt_record(10, 13, 1, synth.peer_index_body(peers=3)) + synth.mrt_record(
            10, 13, 4, synth.rib_unicast_body(1, bytes.fromhex("20010db8"), 32, entries)
        )
        decoded = _decoded(data)
        assert decoded == _reference(data)
        assert decoded["malformed_attributes"] == 2
        assert decoded["entries"] == [("2001:db8::/32", "64502")]

    @settings(max_examples=250, deadline=None)
    @given(data=_mrt_files())
    def test_matches_reference(self, data):
        assert _decoded(data) == _reference(data)


class TestMrtFuzz:
    """Any cut or flipped byte ends in a snapshot, TruncatedRecord or MissingPeerIndex."""

    def test_every_truncation(self):
        data, _offsets, _expected = synth.acceptance_file()
        for cut in range(len(data) + 1):
            assert _decoded(data[:cut]) == _reference(data[:cut]), cut

    def test_every_single_byte_flip(self):
        data, _offsets, _expected = synth.acceptance_file()
        for at in range(len(data)):
            for mask in (0x01, 0x10, 0x80, 0xFF):
                flipped = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
                assert _decoded(flipped) == _reference(flipped), (at, mask)

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4),
           cut=st.integers(0, 10**6))
    def test_random_flips_and_cuts(self, edits, cut):
        data, _offsets, _expected = synth.acceptance_file()
        mutable = bytearray(data)
        for at, mask in edits:
            mutable[at % len(data)] ^= mask
        mutated = bytes(mutable[: cut % (len(data) + 1)])
        assert _decoded(mutated) == _reference(mutated)


def _file_with_one_cut_blob(ts=1433160000):
    """One v6 prefix, three peers; the second peer's AS_PATH is cut two bytes short."""
    good = synth.as_path([(synth.AS_SEQUENCE, [64500, 64501])])
    body = synth.rib_unicast_body(
        1,
        bytes.fromhex("20010db8"),
        32,
        [synth.rib_entry(0, 0, good), synth.rib_entry(1, 0, good[:-2]), synth.rib_entry(2, 0, good)],
    )
    return synth.mrt_record(ts, 13, 1, synth.peer_index_body(peers=3)) + synth.mrt_record(ts, 13, 4, body)


class TestSnapshotRoutes:
    def test_entries_are_the_sorted_int_keyed_routes(self):
        rows = [(ip_network("2001:db8::/32"), OriginAs.from_asn(2)), (ip_network("10.0.0.0/8"), OriginAs.from_asn(1))]
        snapshot = RibSnapshot(parse_timestamp("2020-01-01T00:00:00Z"), rows)
        assert type(snapshot.entries) is list
        assert snapshot.entries == [((4, 10 << 24, 8), OriginAs.from_asn(1)), ((6, 0x20010DB8 << 96, 32), OriginAs.from_asn(2))]

    def test_decode_index_and_write_build_no_network(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("ip_network built")

        monkeypatch.setattr(IPv4Network, "__init__", refuse)
        monkeypatch.setattr(IPv6Network, "__init__", refuse)
        snapshot = parse_mrt_rib(io.BytesIO(synth.acceptance_file()[0]))
        assert len(snapshot.entries) == 3
        build_lpm(snapshot)
        assert write_prefix_table(snapshot, io.StringIO()) == 3

    def test_constructor_votes_duplicate_prefixes(self):
        net = ip_network("2001:db8::/32")
        snapshot = RibSnapshot(
            parse_timestamp("2020-01-01T00:00:00Z"),
            [(net, OriginAs.from_asn(7)), (net, OriginAs.from_asn(5)), (net, OriginAs.from_asn(5))],
        )
        assert oracles.snapshot_pairs(snapshot) == [(net, OriginAs.from_asn(5))]

    def test_prefix_table_duplicates_vote_like_mrt_peers(self):
        text = (
            "# captured_at=2016-09-10T00:00:00Z\n"
            "10.0.0.0/8\t64502\n10.0.0.0/8\t64501\n10.0.0.0/8\tset:64501,64502\n10.0.0.0/8\t64501\n"
            "2001:db8::/32\t64503\n2001:db8::/32\t64502\n"
        )
        snapshot = load_prefix_table(io.StringIO(text))
        assert [(str(p), o.text) for p, o in oracles.snapshot_pairs(snapshot)] == [("10.0.0.0/8", "64501"), ("2001:db8::/32", "64502")]


class TestSnapshotCounters:
    def test_timeline_entry_keeps_its_snapshots_counters(self):
        data = _file_with_one_cut_blob()
        entry = TimelineEntry(parse_timestamp("2015-06-01T12:00:00Z"), lambda: parse_mrt_rib(io.BytesIO(data)))
        assert entry.counters is None
        entry.index()
        entry.evict()
        assert entry.counters == {
            "captured_at": "2015-06-01T12:00:00Z",
            "routes": 1,
            "peer_count": 3,
            "malformed_records": 0,
            "malformed_attributes": 1,
            "skipped_types": 0,
            "skipped_subtypes": 0,
            "bad_rows": 0,
        }

    def test_prefix_table_counts_bad_rows(self):
        text = "# captured_at=2016-09-10T00:00:00Z\n10.0.0.0/8\t1\nbad\n"
        entry = TimelineEntry(parse_timestamp("2016-09-10T00:00:00Z"), lambda: load_prefix_table(io.StringIO(text)))
        entry.index()
        assert (entry.counters["routes"], entry.counters["bad_rows"], entry.counters["peer_count"]) == (1, 1, 0)


def _no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spelled(ts: datetime, rng: random.Random) -> str:
    """`ts` as the record TSV may spell it: canonical, with a fraction, an offset or a lower-case z."""
    if not ts.microsecond and rng.random() < 0.5:
        return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
    kind = rng.randrange(3)
    if kind == 0:
        return ts.astimezone(timezone(timedelta(hours=rng.randrange(-12, 13)))).isoformat()
    return ts.isoformat()[:-6] + ("Z" if kind == 1 else "z")


def _linear_slices(data: bytes, ends: list) -> list:
    """What ``slices.record_slices`` finds, by a linear scan of every line."""
    rows = []  # (offset, time) of each non-blank line after the first
    pos = data.find(b"\n") + 1 if b"\n" in data else len(data)
    while pos < len(data):
        stop = data.find(b"\n", pos) + 1 or len(data)
        text = data[pos:stop].rstrip(b"\n").rstrip(b"\r")
        if text:
            rows.append((pos, parse_timestamp(text.split(b"\t")[0].decode())))
        pos = stop
    starts = [0]
    for end in ends[:-1]:
        offset = next((o for o, ts in rows if ts >= end), len(data))
        if rows and rows[0][0] < offset < len(data) and offset > starts[-1]:
            starts.append(offset)
    return list(zip(starts, starts[1:] + [len(data)]))


class TestChildSlices:
    """The slices of the record TSV that attribute's forked children run, and what
    a child sends back, seen through the ribstore API."""

    T0 = 1433160000

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_bisected_offsets_match_a_linear_scan(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        base = datetime.fromtimestamp(self.T0, timezone.utc)
        # Capture times two seconds or more apart, so that some hand-overs fall on whole seconds.
        captured, span = [], 0
        for _ in range(rng.randrange(1, 7)):
            span += rng.choice((2, 3, 10, 3600))
            captured.append(base + timedelta(seconds=span))
        timeline = RibTimeline([TimelineEntry(c, None) for c in captured])
        for when in [c - timedelta(seconds=1) for c in captured] + timeline.ends[:-1]:
            assert timeline.nearest_position(when) == bisect_left(timeline.ends, when + timedelta(microseconds=1))
        # Sorted times, some equal to a boundary or just before it, some repeated.
        times = [base + timedelta(seconds=rng.uniform(0, span + 5)) for _ in range(rng.randrange(0, 40))]
        for end in timeline.ends[:-1]:
            times += [end] * rng.randrange(3) + [end - timedelta(microseconds=1)] * rng.randrange(2)
        lines = [b"timestamp\tsite\tip"] if rng.random() < 0.8 else []
        for ts in sorted(times):
            lines.append(f"{_spelled(ts, rng)}\tenwiki\t10.0.0.1".encode())
            if rng.random() < 0.2:
                lines.append(b"")
        data = b"".join(line + rng.choice((b"\n", b"\r\n")) for line in lines)
        if data and rng.random() < 0.3:
            data = data.rstrip(b"\r\n")  # no newline at the end
        path = tmp_path_factory.mktemp("slices") / "records.tsv"
        path.write_bytes(data)

        ranges = slices.record_slices(str(path), timeline.ends)
        assert ranges == _linear_slices(data, timeline.ends)
        # Read slice by slice, the lines are those of one text-mode read of the whole file.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            whole = list(fh)
        pieces = []
        for start, stop in ranges:
            assert slices.count_lines(str(path), start) == len(pieces)
            with slices.slice_lines(str(path), start, stop) as text:
                pieces += list(text)
        assert pieces == whole

    def test_a_bare_carriage_return_or_an_unreadable_time_is_not_sliced(self, tmp_path):
        timeline = RibTimeline([TimelineEntry(datetime.fromtimestamp(self.T0 + i * 86_400, timezone.utc), None) for i in range(2)])
        rows = [f"{datetime.fromtimestamp(self.T0 + i * 3600, timezone.utc):%Y-%m-%dT%H:%M:%SZ}\tenwiki\t10.0.0.1\n" for i in range(24)]
        path = tmp_path / "records.tsv"
        path.write_text("timestamp\tsite\tip\n" + "".join(rows), encoding="utf-8", newline="")
        assert len(slices.record_slices(str(path), timeline.ends)) == 2
        for bad in ("\r", "x"):
            # Every row falls to the first snapshot, so the bisect probes the last one.
            path.write_text("timestamp\tsite\tip\n" + "".join(rows[:5]) + bad + rows[5], encoding="utf-8", newline="")
            assert slices.record_slices(str(path), timeline.ends) is None


class TestChildDecodes:
    """The snapshot each slice's forked child decodes for itself, and what the child
    sends back, seen through the ribstore API."""

    T0 = 1433160000

    def _files(self, tmp_path, count, cut=None):
        """`count` daily MRT snapshots; snapshot `cut` loses its last 3 bytes. Returns
        (paths, the byte offset of the cut snapshot's last record)."""
        paths, offset = [], None
        for i in range(count):
            data = synth.nested_table(self.T0 + i * 86_400, random.Random(i))
            if i == cut:
                pos = 0
                while pos < len(data):
                    offset = pos
                    pos += 12 + struct.unpack_from(">I", data, pos + 8)[0]
                data = data[:-3]
            path = tmp_path / f"rib{i}.mrt"
            path.write_bytes(data)
            paths.append(str(path))
        return paths, offset

    def _records(self, tmp_path, days):
        path = tmp_path / "records.tsv"
        stamps = [datetime.fromtimestamp(self.T0 + int(d * 86_400), timezone.utc) for d in days]
        path.write_text("timestamp\tsite\tip\n" + "".join(f"{t:%Y-%m-%dT%H:%M:%SZ}\tenwiki\t2001:db8::1\n" for t in stamps))
        return str(path)

    def test_error_keeps_its_type_message_and_offset(self, tmp_path, monkeypatch):
        paths, offset = self._files(tmp_path, 3, cut=1)
        records = self._records(tmp_path, [0, 1])
        timeline = RibTimeline.from_files(paths)
        ranges = slices.record_slices(records, timeline.ends)
        assert len(ranges) == 2
        # In a forked child, and in process.
        part = str(tmp_path / "part")
        jobs = forkjobs.ForkedJobs(lambda k: cli._attribute_range(records, part, *ranges[k], timeline), 1)
        assert jobs.start(1)
        outcomes = [jobs.result(1, keep=False), cli._attribute_range(records, part, *ranges[1], timeline)]
        assert jobs.stats.children_started == 1
        _no_child_process()
        # The line the in-process stage prints: the whole file as one range.
        stage = cli._attribute_range(records, part, 0, None, RibTimeline.from_files(paths))
        with pytest.raises(TruncatedRecord) as info, open(records, encoding="utf-8") as lines:
            list(attribute(cli.read_records(lines), RibTimeline.from_files(paths)))
        line = f"attribute: {paths[1]}: truncated MRT record at byte {offset}"
        assert outcomes == [stage, stage] == [("failed", line)] * 2
        assert (str(info.value), info.value.offset) == (f"{paths[1]}: truncated MRT record at byte {offset}", offset)
        assert offset > 0

    def test_a_slice_leaves_its_snapshots_unloaded(self, tmp_path):
        # A child keeps its heap from one slice to the next, so each slice starts from none loaded.
        paths, _ = self._files(tmp_path, 3)
        records = self._records(tmp_path, [0, 0.2, 1, 2])
        timeline = RibTimeline.from_files(paths)
        ranges = slices.record_slices(records, timeline.ends)
        assert len(ranges) == 3
        outcome = cli._attribute_range(records, str(tmp_path / "part"), *ranges[1], timeline)
        assert outcome[:3] == ("ok", 1, 0) and list(outcome[4]) == [1]
        assert [(e.counters, e._index) for e in timeline.entries] == [(None, None)] * 3

    def test_closing_early_leaves_no_child(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: 2)
        paths, _ = self._files(tmp_path, 4)
        records = self._records(tmp_path, [0, 1, 2, 3])
        timeline = RibTimeline.from_files(paths)
        _no_child_process()  # from_files starts none
        ranges = slices.record_slices(records, timeline.ends)
        run = lambda k: cli._attribute_range(records, parts[k], *ranges[k], timeline)  # noqa: E731
        jobs = forkjobs.ForkedJobs(run, 2)
        # The parts written before the close, and by the killed children, are removed by the run's _Outputs.
        with cli._Outputs(cli.PipelineConfig(), "attribute") as outputs:
            parts = [outputs.part(tmp_path / f"part{k}") for k in range(len(ranges))]
            outcomes = cli._job_outcomes(jobs, len(ranges), run, None)
            assert next(outcomes)[:2] == ("ok", 1)
            assert jobs.stats.children_started == 2
            outcomes.close()
            _no_child_process()
        assert list(tmp_path.glob("part*")) == []

    def test_attribute_alone_starts_no_child(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: 2)
        paths, _ = self._files(tmp_path, 2)
        site = SiteId.from_code("enwiki")
        records = [EditRecord(datetime.fromtimestamp(self.T0 + d * 86_400, timezone.utc), site, IPv6Address("2001:db8::1")) for d in (0, 1)]
        out = attribute(records, RibTimeline.from_files(paths))
        next(out)
        _no_child_process()
        assert len(list(out)) == 1

    def test_hand_built_entries_load_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forkjobs, "_usable_cpus", lambda: 2)
        paths, _ = self._files(tmp_path, 2)
        built = RibTimeline.from_files(paths)
        by_hand = RibTimeline([TimelineEntry(e.captured_at, e._loader) for e in built.entries])
        site = SiteId.from_code("enwiki")
        records = [EditRecord(datetime.fromtimestamp(self.T0 + d * 86_400, timezone.utc), site, IPv6Address("2001:db8::1")) for d in (0, 1)]
        assert [r.origin for r in attribute(records, by_hand)] == [r.origin for r in attribute(records, built)]
        _no_child_process()
        assert all(e.counters is not None for e in by_hand.entries)


class TestScaleHarness:
    def test_smoke(self):
        harness = str(Path(__file__).parent / "ribharness.py")
        proc = subprocess.run(
            [sys.executable, harness, "16000", "4000", "3"], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["v4_prefixes"], report["v6_prefixes"], report["peers"]) == (16000, 4000, 3)
        assert report["routes"] == 20000
        assert report["malformed_attributes"] == 0
        assert report["parse_s"] > 0 and report["build_lpm_s"] > 0 and report["maxrss_kb"] > 0
        assert 0 < report["rss_kb_index"] <= report["maxrss_kb"]

        proc = subprocess.run(
            [sys.executable, harness, "timeline", "3", "8000", "2000", "2"], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["snapshots"], report["records"], report["v4_prefixes"], report["peers"]) == (3, 9, 8000, 2)
        assert report["attribute_children_s"] > 0 and report["attribute_in_process_s"] > 0
        forked = forkjobs._usable_cpus() > 1
        assert report["decode"]["snapshots_adopted"] == (3 if forked else 0)
        assert 0 < report["maxrss_kb_after_children_run"] <= report["maxrss_kb"]
        assert (report["maxrss_kb_children"] > 0) == forked
