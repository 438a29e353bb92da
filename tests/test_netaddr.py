import io
import random
from ipaddress import IPv6Address, IPv6Network, ip_network

import pytest

from wikiv6.netaddr import (
    BadCsv,
    BadLength,
    Mac48,
    NotAnIp,
    NotEui64,
    OuiDatabase,
    UNLISTED,
    canonical_text,
    embed_mac,
    extract_mac,
    is_eui64,
    load_oui_database,
    parse_ip,
    resolve_vendor,
)


class TestParseIp:
    def test_uncompressed_uppercase_v6(self):
        ip = parse_ip("2001:DB8:0:0:0:0:0:1")
        assert ip.version == 6
        assert canonical_text(ip) == "2001:db8::1"

    def test_v4(self):
        ip = parse_ip("192.0.2.7")
        assert ip.version == 4
        assert ip.packed == bytes([192, 0, 2, 7])

    def test_zone_index_rejected(self):
        with pytest.raises(NotAnIp):
            parse_ip("2001:db8::1%eth0")

    @pytest.mark.parametrize("bad", ["192.0.2.7:80", "2001:db8::1/64", "", "wat", "1.2.3.4.5"])
    def test_rejects_non_addresses(self, bad):
        with pytest.raises(NotAnIp):
            parse_ip(bad)


class TestCanonicalText:
    def test_all_zero(self):
        assert canonical_text(parse_ip("0:0:0:0:0:0:0:0")) == "::"

    def test_leftmost_longest_run(self):
        # longest zero run wins; leftmost on ties
        assert canonical_text(parse_ip("2001:0:0:1:0:0:0:1")) == "2001:0:0:1::1"
        assert canonical_text(parse_ip("2001:0:0:0:1:0:0:0")) == "2001::1:0:0:0"

    def test_no_double_colon_for_single_zero(self):
        assert canonical_text(parse_ip("2001:db8:0:1:1:1:1:1")) == "2001:db8:0:1:1:1:1:1"

    def test_roundtrip_random_addresses(self):
        rng = random.Random(4242)
        for _ in range(10_000):
            if rng.random() < 0.5:
                ip = IPv6Address(rng.getrandbits(128))
            else:
                from ipaddress import IPv4Address

                ip = IPv4Address(rng.getrandbits(32))
            assert parse_ip(canonical_text(ip)) == ip


def _mac_oracle(ip: IPv6Address) -> str:
    # independent bit-level derivation from the raw 128-bit integer
    iid = int(ip) & ((1 << 64) - 1)
    hi24 = iid >> 40
    lo24 = iid & 0xFFFFFF
    mac_int = ((hi24 ^ 0x020000) << 24) | lo24
    return ":".join(f"{(mac_int >> s) & 0xFF:02x}" for s in range(40, -8, -8))


class TestEui64:
    def test_detection(self):
        assert is_eui64(parse_ip("2001:db8::0250:56ff:fe8a:0001")) is True
        assert is_eui64(parse_ip("fe80::5074:f2ff:feb1:a87f")) is True
        assert is_eui64(parse_ip("2001:db8::1")) is False
        assert is_eui64(parse_ip("192.0.2.7")) is False

    def test_extract_known_values(self):
        assert str(extract_mac(parse_ip("2001:db8::0250:56ff:fe8a:0001"))) == "00:50:56:8a:00:01"
        assert str(extract_mac(parse_ip("2001:db8::5074:f2ff:feb1:a87f"))) == "52:74:f2:b1:a8:7f"
        assert str(extract_mac(parse_ip("2001:db8::0200:00ff:fe00:0000"))) == "00:00:00:00:00:00"

    def test_extract_matches_bit_oracle(self):
        rng = random.Random(99)
        for _ in range(2000):
            ip = IPv6Address((rng.getrandbits(64) << 64) | (rng.getrandbits(24) << 40) | (0xFFFE << 24) | rng.getrandbits(24))
            assert is_eui64(ip)
            assert str(extract_mac(ip)) == _mac_oracle(ip)

    def test_extract_requires_eui64(self):
        with pytest.raises(NotEui64):
            extract_mac(parse_ip("2001:db8::1"))
        with pytest.raises(NotEui64):
            extract_mac(parse_ip("192.0.2.7"))

    def test_embed_known_values(self):
        mac = Mac48.parse("52:74:f2:b1:a8:7f")
        got = embed_mac(mac, ip_network("2001:db8::/64"))
        assert canonical_text(got) == "2001:db8::5074:f2ff:feb1:a87f"
        zero = embed_mac(Mac48(bytes(6)), ip_network("fe80::/64"))
        assert canonical_text(zero) == "fe80::200:ff:fe00:0"

    def test_embed_requires_64(self):
        with pytest.raises(BadLength):
            embed_mac(Mac48(bytes(6)), ip_network("2001:db8::/48"))

    def test_roundtrip_random(self):
        rng = random.Random(1)
        for _ in range(10_000):
            mac = Mac48(rng.getrandbits(48).to_bytes(6, "big"))
            prefix = IPv6Network((rng.getrandbits(64) << 64, 64))
            ip = embed_mac(mac, prefix)
            assert is_eui64(ip)
            assert extract_mac(ip) == mac


class TestMac48:
    def test_text_form(self):
        assert str(Mac48(bytes.fromhex("f4ce46123456"))) == "f4:ce:46:12:34:56"

    def test_locally_administered_bit(self):
        assert Mac48.parse("52:74:f2:b1:a8:7f").is_locally_administered is True
        assert Mac48.parse("00:50:56:8a:00:01").is_locally_administered is False

    def test_oui(self):
        assert Mac48.parse("00:50:56:8a:00:01").oui == bytes.fromhex("005056")

    def test_length_checked(self):
        with pytest.raises(ValueError):
            Mac48(b"\x00\x11")


OUI_CSV = """Registry,Assignment,Organization Name,Organization Address
MA-L,00 50 56,"VMware, Inc.",whatever
MA-L,286FB9,Nokia,somewhere
MA-L,F4-CE-46,HP,elsewhere
"""


class TestOuiDatabase:
    def test_spec_row(self):
        db = load_oui_database(io.StringIO(OUI_CSV))
        assert len(db) == 3
        assert db.vendor(bytes.fromhex("005056")) == "VMware, Inc."

    def test_empty_file_with_header(self):
        db = load_oui_database(io.StringIO("Registry,Assignment,Organization Name,Organization Address\n"))
        assert len(db) == 0
        assert db.vendor(bytes.fromhex("005056")) == UNLISTED

    def test_three_row_fixture_exact(self):
        db = load_oui_database(io.StringIO(OUI_CSV))
        assert db.vendor(bytes.fromhex("286fb9")) == "Nokia"
        assert db.vendor(bytes.fromhex("f4ce46")) == "HP"
        assert db.vendor(bytes.fromhex("ffffff")) == UNLISTED

    def test_duplicates_keep_first_and_count(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        assert db.vendor(bytes.fromhex("005056")) == "VMware, Inc."
        assert db.duplicate_rows == 1
        assert db.bad_rows == 1

    def test_missing_header_is_file_level(self):
        with pytest.raises(BadCsv):
            load_oui_database(io.StringIO("oops,nope\nMA-L,005056,X,Y\n"))
        with pytest.raises(BadCsv):
            load_oui_database(io.StringIO(""))

    def test_oversized_field_is_file_level(self):
        text = OUI_CSV + 'MA-L,001122,"' + "x" * 131073 + '",there\n'
        with pytest.raises(BadCsv, match=r"^line 5: field larger than field limit"):
            load_oui_database(io.StringIO(text))


class TestResolveVendor:
    def test_resolves(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        assert resolve_vendor(Mac48.parse("00:50:56:8a:00:01"), db) == "VMware, Inc."

    def test_locally_administered_is_unlisted(self, oui_csv):
        # randomized MACs never carry an IEEE-assigned OUI
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        assert resolve_vendor(Mac48.parse("52:74:f2:b1:a8:7f"), db) == UNLISTED

    def test_total_on_empty_db(self):
        db = OuiDatabase({})
        assert resolve_vendor(Mac48.parse("00:50:56:8a:00:01"), db) == UNLISTED
