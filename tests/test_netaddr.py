import _socket
import importlib.util
import io
import random
import sys
from contextlib import contextmanager
from ipaddress import IPv4Address, IPv6Address, IPv6Network, ip_address, ip_network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikiv6 import netaddr
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
    eui64_mac,
    extract_mac,
    is_eui64,
    load_oui_database,
    parse_ip,
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
                ip = IPv4Address(rng.getrandbits(32))
            assert parse_ip(canonical_text(ip)) == ip


# Differential suite: parse_ip and canonical_text against ipaddress.

_WHITESPACE = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
_JUNK_CHARS = (
    ":", ".", "%", "0", "f", "F", "g", "x", "/", " ", "\x00",
    "\uff10", "\uff11",  # fullwidth digits
    "\u0661",  # Arabic-Indic digit one
    "\ud800", "\udfff",  # lone surrogates
)
_JUNK = (
    "01.2.3.4", "1.2.3", "1.2.3.4.", "1.2.3.256", "0x1.2.3.4", "1.2.3.04", "\uff11.2.3.4",
    "02001:db8::1", "2001:db8::1::1", "1::2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8::", ":1::", "1:::2",
    "::01.2.3.4", "::1.2.3", "1:2:3:4:5:6:7:1.2.3.4", "::ffff:1.2.3.4:1", "fe80::1%eth0",
    "2001:db8::1/64", "[2001:db8::1]", "192.0.2.7:80", "\ud800", "", ":", "::::",
)


@st.composite
def _v6_value(draw) -> int:
    kind = draw(st.sampled_from(("random", "low", "mapped", "sparse")))
    if kind == "random":
        return draw(st.integers(0, 2**128 - 1))
    if kind == "low":  # first 80 bits zero: the ipaddress path
        return draw(st.integers(0, 2**48 - 1))
    if kind == "mapped":
        return 0xFFFF << 32 | draw(st.integers(0, 2**32 - 1))
    hextets = draw(st.lists(st.sampled_from((0, 0, 0, 1, 0xFFFF, 0xDB8)), min_size=8, max_size=8))
    return sum(h << (112 - 16 * i) for i, h in enumerate(hextets))


@st.composite
def _v6_spelling(draw) -> str:
    value = draw(_v6_value())
    ip = IPv6Address(value)
    groups = [f"{(value >> (112 - 16 * i)) & 0xFFFF:x}" for i in range(8)]
    style = draw(st.sampled_from(("canonical", "upper", "exploded", "padded", "any_run", "v4_tail", "mapped", "compat")))
    if style == "canonical":
        return str(ip)
    if style == "upper":
        return str(ip).upper()
    if style == "exploded":
        return ip.exploded
    if style == "padded":  # leading zeros, sometimes one digit too many
        return ":".join("0" * draw(st.integers(0, 5 - len(g))) + g for g in groups)
    if style == "any_run":  # :: over any run of groups, zero or not
        start = draw(st.integers(0, 8))
        stop = draw(st.integers(start, 8))
        return ":".join(groups[:start]) + "::" + ":".join(groups[stop:])
    quad = str(IPv4Address(value & 0xFFFFFFFF))
    if style == "v4_tail":
        return ":".join(groups[:6]) + ":" + quad
    return ("::ffff:" if style == "mapped" else "::") + quad


@st.composite
def _v4_spelling(draw) -> str:
    octets = [str(b) for b in draw(st.integers(0, 2**32 - 1)).to_bytes(4, "big")]
    style = draw(st.sampled_from(("plain", "leading_zero", "short", "long")))
    if style == "leading_zero":
        i = draw(st.integers(0, 3))
        octets[i] = "0" + octets[i]
    elif style == "short":
        del octets[draw(st.integers(0, 3))]
    elif style == "long":
        octets.append(str(draw(st.integers(0, 255))))
    return ".".join(octets)


@st.composite
def _mangled(draw, base) -> str:
    """Insert, replace or delete one character of a spelling."""
    text = draw(base)
    i = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(("insert", "replace", "delete")))
    if op == "delete" or not text:
        return text[:i] + text[i + 1 :]
    char = draw(st.sampled_from(_JUNK_CHARS))
    return text[:i] + char + text[i + (op == "replace") :]


_SPELLINGS = st.one_of(_v6_spelling(), _v4_spelling())
_INPUTS = st.builds(
    lambda lead, body, zone, trail: lead + body + zone + trail,
    st.text(st.sampled_from(_WHITESPACE), max_size=2),
    st.one_of(_SPELLINGS, _mangled(_SPELLINGS), st.sampled_from(_JUNK), st.text(st.sampled_from(_JUNK_CHARS))),
    st.one_of(st.just(""), st.just(""), st.just("%eth0"), st.just("%1")),
    st.text(st.sampled_from(_WHITESPACE), max_size=2),
)


# Each differential test runs on the codecs chosen at import, then on the
# ipaddress stand-ins that a failed self-check selects.
CODECS = pytest.mark.parametrize("codecs", ["import", "ipaddress"])


@contextmanager
def _using(codecs: str):
    saved = netaddr._pton, netaddr._ntop
    if codecs == "ipaddress":
        netaddr._pton, netaddr._ntop = netaddr._py_pton, netaddr._py_ntop
    try:
        yield
    finally:
        netaddr._pton, netaddr._ntop = saved


def _oracle(text: str):
    try:
        return ip_address(text.strip())
    except ValueError:
        return None


class TestDifferential:
    @CODECS
    @settings(max_examples=800, deadline=None)
    @given(text=_INPUTS)
    def test_accepts_exactly_what_ipaddress_accepts(self, codecs, text):
        expected = None if "%" in text else _oracle(text)
        with _using(codecs):
            if expected is None:
                with pytest.raises(NotAnIp):
                    parse_ip(text)
                return
            got = parse_ip(text)
            assert type(got) is type(expected)
            assert got == expected
            assert canonical_text(got) == str(expected)

    @CODECS
    @settings(max_examples=300, deadline=None)
    @given(ip=st.one_of(st.integers(0, 2**32 - 1).map(IPv4Address), _v6_value().map(IPv6Address)))
    def test_canonical_text_matches_str(self, codecs, ip):
        with _using(codecs):
            assert canonical_text(ip) == str(ip)
            assert parse_ip(canonical_text(ip)) == ip

    @CODECS
    @pytest.mark.parametrize("text", ["::ffff:1.2.3.4", "::1.2.3.4", "::ffff:0:0", "::1", "::"])
    def test_first_80_bits_zero_written_as_ipaddress_does(self, codecs, text):
        # glibc writes the first two as dotted quads (RFC 4291 §2.5.5).
        with _using(codecs):
            assert canonical_text(parse_ip(text)) == str(ip_address(text))


def _import_fresh_netaddr(monkeypatch):
    """Run netaddr's module code again, import-time self-check included, as a separate module."""
    spec = importlib.util.spec_from_file_location("wikiv6_netaddr_fresh", netaddr.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestCodecSelfCheck:
    def test_import_choice_matches_the_check(self):
        assert netaddr._c_codecs_agree() == (netaddr._pton is netaddr.inet_pton)
        assert netaddr._c_codecs_agree() == (netaddr._ntop is netaddr.inet_ntop)

    def test_lying_inet_ntop_selects_ipaddress(self, monkeypatch):
        real = _socket.inet_ntop
        # The right address in the wrong text: never compressed.
        monkeypatch.setattr(
            _socket,
            "inet_ntop",
            lambda family, packed: IPv6Address(packed).exploded if family == _socket.AF_INET6 else real(family, packed),
        )
        fresh = _import_fresh_netaddr(monkeypatch)
        assert not fresh._c_codecs_agree()
        assert (fresh._pton, fresh._ntop) == (fresh._py_pton, fresh._py_ntop)
        assert fresh.canonical_text(fresh.parse_ip("2001:DB8:0:0:1:0:0:1")) == "2001:db8::1:0:0:1"

    def test_lenient_inet_pton_selects_ipaddress(self, monkeypatch):
        real = _socket.inet_pton
        # Accepts a v4 octet with a leading zero, which ipaddress rejects.
        monkeypatch.setattr(_socket, "inet_pton", lambda family, text: bytes(4) if text == "01.2.3.4" else real(family, text))
        fresh = _import_fresh_netaddr(monkeypatch)
        assert (fresh._pton, fresh._ntop) == (fresh._py_pton, fresh._py_ntop)
        with pytest.raises(fresh.NotAnIp):
            fresh.parse_ip("01.2.3.4")


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

    @settings(max_examples=500, deadline=None)
    @given(value=st.integers(0, 2**129 - 1), marked=st.booleans())
    def test_eui64_mac_agrees_with_address_api(self, value, marked):
        if marked:
            value = value & ~(0xFFFF << 24) | 0xFFFE << 24
        ip = IPv6Address(value & (2**128 - 1))  # bit 128, as analytics' v6 keys carry, is ignored
        mac = eui64_mac(value)
        assert (mac is not None) == is_eui64(ip) == (ip.packed[11:13] == b"\xff\xfe")
        if mac is not None:
            assert extract_mac(ip) == Mac48(mac)
            assert str(Mac48(mac)) == _mac_oracle(ip)


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


    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.text(),
                st.sampled_from([OUI_CSV.splitlines()[0], "Registry,Assignment", "oops,nope", ""]),
                st.lists(
                    st.sampled_from(["MA-L", "00 50 56", "286FB9", "F4-CE-46", "0050", "zz zz zz", '"VMware, Inc."', '"open', ""])
                    | st.text(),
                    max_size=5,
                ).map(",".join),
            ),
            max_size=8,
        )
    )
    def test_any_lines_give_a_database_or_bad_csv(self, lines):
        text = "\n".join(lines)
        try:
            db = load_oui_database(io.StringIO(text))
        except BadCsv:
            return
        # After the header, each row is an entry, a duplicate, a bad row or blank, and spans a line or more.
        assert len(db) + db.duplicate_rows + db.bad_rows <= len(text.splitlines()) - 1


class TestResolveVendor:
    def test_resolves(self, oui_csv):
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        assert db.vendor(Mac48.parse("00:50:56:8a:00:01").oui) == "VMware, Inc."

    def test_locally_administered_is_unlisted(self, oui_csv):
        # randomized MACs never carry an IEEE-assigned OUI
        with open(oui_csv, "rb") as fh:
            db = load_oui_database(fh)
        assert db.vendor(Mac48.parse("52:74:f2:b1:a8:7f").oui) == UNLISTED

    def test_total_on_empty_db(self):
        db = OuiDatabase({})
        assert db.vendor(Mac48.parse("00:50:56:8a:00:01").oui) == UNLISTED
