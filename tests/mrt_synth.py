"""Byte-level MRT TABLE_DUMP_V2 synthesis for parser tests (RFC 6396 layouts).

Built with struct only, independent of the parser under test.
"""

from __future__ import annotations

import struct

TABLE_DUMP_V2 = 13
PEER_INDEX_TABLE = 1
RIB_IPV4_UNICAST = 2
RIB_IPV6_UNICAST = 4
AS_SET = 1
AS_SEQUENCE = 2


def mrt_record(ts: int, mrt_type: int, subtype: int, body: bytes) -> bytes:
    return struct.pack(">IHHI", ts, mrt_type, subtype, len(body)) + body


def bgp_attr(attr_type: int, data: bytes, extended: bool = False, flags: int = 0x40) -> bytes:
    if extended:
        return bytes([flags | 0x10, attr_type]) + struct.pack(">H", len(data)) + data
    return bytes([flags, attr_type, len(data)]) + data


def as_path(segments, extended: bool = False) -> bytes:
    data = b"".join(
        bytes([seg_type, len(asns)]) + struct.pack(f">{len(asns)}I", *asns)
        for seg_type, asns in segments
    )
    return bgp_attr(2, data, extended=extended)


def origin_igp_attr() -> bytes:
    return bgp_attr(1, b"\x00")


def med_attr(value: int = 0) -> bytes:
    return bgp_attr(4, struct.pack(">I", value), flags=0x80)


def rib_entry(peer_index: int, originated: int, attrs: bytes) -> bytes:
    return struct.pack(">HIH", peer_index, originated, len(attrs)) + attrs


def rib_unicast_body(seq: int, prefix_bits: bytes, prefix_len: int, entries) -> bytes:
    nbytes = (prefix_len + 7) // 8
    body = struct.pack(">IB", seq, prefix_len) + prefix_bits[:nbytes]
    body += struct.pack(">H", len(entries)) + b"".join(entries)
    return body


def peer_index_body(collector: int = 0x0A0A0A0A, view: bytes = b"", peers: int = 3) -> bytes:
    body = struct.pack(">I", collector) + struct.pack(">H", len(view)) + view
    body += struct.pack(">H", peers)
    for i in range(peers):
        # peer type 0x02: IPv4 peer address, 32-bit AS number
        body += bytes([0x02]) + struct.pack(">I", 0x0B0B0B00 + i) + bytes(4)
        body += struct.pack(">I", 65000 + i)
    return body


def acceptance_file(ts: int = 1473465600):
    """PEER_INDEX_TABLE + 3 RIB_IPV6_UNICAST records with known voted origins.

    Returns (file_bytes, record_offsets, expected) where expected is a list of
    (prefix_text, origin_text) in parse order by prefix.
    """
    records = []
    records.append(mrt_record(ts, TABLE_DUMP_V2, PEER_INDEX_TABLE, peer_index_body(peers=3)))
    # 2001:db8::/32, one peer, path 64500 64501 -> origin 64501; noise attrs first
    records.append(
        mrt_record(
            ts,
            TABLE_DUMP_V2,
            RIB_IPV6_UNICAST,
            rib_unicast_body(
                1,
                bytes.fromhex("20010db8"),
                32,
                [
                    rib_entry(
                        0,
                        ts - 3600,
                        origin_igp_attr() + med_attr(7) + as_path([(AS_SEQUENCE, [64500, 64501])]),
                    )
                ],
            ),
        )
    )
    # 2001:db8:1::/48, three peers disagree 2:1 -> 64501 wins the vote
    records.append(
        mrt_record(
            ts,
            TABLE_DUMP_V2,
            RIB_IPV6_UNICAST,
            rib_unicast_body(
                2,
                bytes.fromhex("20010db80001"),
                48,
                [
                    rib_entry(0, ts - 7200, as_path([(AS_SEQUENCE, [64500, 64501])])),
                    rib_entry(
                        1,
                        ts - 7200,
                        origin_igp_attr() + as_path([(AS_SEQUENCE, [64510, 64501])], extended=True),
                    ),
                    rib_entry(2, ts - 7200, as_path([(AS_SEQUENCE, [64500, 64502])])),
                ],
            ),
        )
    )
    # 2001:db8:2::/48, single peer, final segment is an AS_SET -> ambiguous
    records.append(
        mrt_record(
            ts,
            TABLE_DUMP_V2,
            RIB_IPV6_UNICAST,
            rib_unicast_body(
                3,
                bytes.fromhex("20010db80002"),
                48,
                [
                    rib_entry(
                        0,
                        ts - 1800,
                        as_path([(AS_SEQUENCE, [64500]), (AS_SET, [64502, 64501])]),
                    )
                ],
            ),
        )
    )
    offsets = []
    pos = 0
    for record in records:
        offsets.append(pos)
        pos += len(record)
    expected = [
        ("2001:db8::/32", "64501"),
        ("2001:db8:1::/48", "64501"),
        ("2001:db8:2::/48", "set:64501,64502"),
    ]
    return b"".join(records), offsets, expected


def nested_table(ts: int, rng, peers: int = 3) -> bytes:
    """A TABLE_DUMP_V2 file of nested prefixes under 10.0.0.0/8 and 2001:db8::/32.

    Each prefix has one entry per peer; peers disagree at random, and about one
    entry in ten ends its AS_PATH in an AS_SET. Origins come from 64500-64507.
    """
    prefixes = [(RIB_IPV4_UNICAST, bytes([10]), 8), (RIB_IPV6_UNICAST, bytes.fromhex("20010db8"), 32)]
    for _ in range(12):
        prefixes.append((RIB_IPV4_UNICAST, bytes([10, rng.randrange(4), rng.randrange(256)]), rng.choice((16, 24))))
        prefixes.append((RIB_IPV6_UNICAST, bytes.fromhex("20010db8") + bytes([0, rng.randrange(4)]), 48))
    records = [mrt_record(ts, TABLE_DUMP_V2, PEER_INDEX_TABLE, peer_index_body(peers=peers))]
    for seq, (subtype, bits, plen) in enumerate(prefixes):
        entries = []
        for peer in range(peers):
            segments = [(AS_SEQUENCE, [65000 + peer, 64500 + rng.randrange(8)])]
            if rng.random() < 0.1:
                segments.append((AS_SET, [64500 + rng.randrange(8), 64500 + rng.randrange(8)]))
            entries.append(rib_entry(peer, ts - 60, as_path(segments)))
        records.append(mrt_record(ts, TABLE_DUMP_V2, subtype, rib_unicast_body(seq, bits, plen, entries)))
    return b"".join(records)
