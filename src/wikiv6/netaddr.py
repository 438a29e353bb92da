"""IP address canonicalization, prefix arithmetic, EUI-64 mechanics, OUI vendor lookup.

An address is handled as one int key: ``int(ip)``, with bit 128 (``V6_KEY``)
set for IPv6, so ``10.0.0.1`` and ``::ffff:10.0.0.1`` stay two keys.
``parse_key`` reads text into a key with ``inet_pton``; ``key_text`` writes a
key with ``inet_ntop``, whose v6 output follows RFC 5952 (lowercase hex,
longest ``::`` run, leftmost on ties, no ``::`` for one zero group) and whose
v4 output is the dotted quad; ``canonical_key`` says whether text is already
what ``key_text`` writes. ``key_ip`` builds the stdlib ``ipaddress`` object
only when a caller wants one. Any v6 address whose first 80 bits are zero is
read and written by ``ipaddress`` instead: RFC 4291 §2.5.5 lets the libc
write ``::ffff:1.2.3.4`` and ``::1.2.3.4`` as dotted quads, where
``ipaddress`` (3.11) writes ``::ffff:102:304``. ``inet_ntop`` output is
libc-specific, so an import-time self-check compares the C codecs with
``ipaddress`` on fixed vectors; on any mismatch ``ipaddress`` does all of it
for the process.

MAC addresses get a small wrapper type because we care about the OUI and the
U/L bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_network
from typing import BinaryIO, Optional, TextIO, Union

# The same functions socket re-exports, without the import cost of its enums.
from _socket import AF_INET, AF_INET6, inet_ntop, inet_pton

IpAddress = Union[IPv4Address, IPv6Address]
Prefix = Union[IPv4Network, IPv6Network]

#: Vendor name returned for any OUI absent from the loaded database.
UNLISTED = "Unlisted"


class NotAnIp(ValueError):
    """Input text is not a plain IPv4/IPv6 address."""


class NotEui64(ValueError):
    """Address does not carry an EUI-64 interface identifier."""


class BadLength(ValueError):
    """Prefix length invalid for the address version or operation."""


class BadCsv(ValueError):
    """OUI CSV is unusable at the file level (e.g. missing header)."""


#: Bit 128 of an address key: set for IPv6.
V6_KEY = 1 << 128

# Text as ipaddress writes it, which the C codecs must reproduce.
_SELF_CHECK_V6 = (
    "2001:db8::1:0:0:1",  # two equal zero runs: the leftmost is compressed
    "2001:db8:0:1:1:1:1:1",  # a single zero group is not compressed
    "::",
    "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
    "::1:ffff:102:304",  # 64 zero bits: hex, never a dotted quad
)
_SELF_CHECK_V4 = ("0.0.0.0", "10.0.0.1", "255.255.255.255")
# Spellings ipaddress rejects, which inet_pton must reject too.
_SELF_CHECK_JUNK = (
    (AF_INET, "01.2.3.4"),
    (AF_INET, "1.2.3"),
    (AF_INET, "1.2.3.256"),
    (AF_INET6, "02001:db8::1"),
    (AF_INET6, "1::2:3:4:5:6:7:8"),
    (AF_INET6, "::01.2.3.4"),
)


def _py_pton(family: int, text: str) -> bytes:
    return (IPv6Address if family == AF_INET6 else IPv4Address)(text).packed


def _py_ntop(family: int, packed: bytes) -> str:
    return str(IPv6Address(packed) if family == AF_INET6 else IPv4Address(packed))


def _c_codecs_agree() -> bool:
    """True iff this libc's inet_pton/inet_ntop match ipaddress on every self-check vector."""
    try:
        for family, texts in ((AF_INET6, _SELF_CHECK_V6), (AF_INET, _SELF_CHECK_V4)):
            for text in texts:
                packed = _py_pton(family, text)
                if inet_ntop(family, packed) != text or inet_pton(family, text.upper()) != packed:
                    return False
    except (OSError, ValueError):
        return False
    for family, text in _SELF_CHECK_JUNK:
        try:
            inet_pton(family, text)
        except (OSError, ValueError):
            continue
        return False
    return True


_pton, _ntop = (inet_pton, inet_ntop) if _c_codecs_agree() else (_py_pton, _py_ntop)
_from_bytes = int.from_bytes


def parse_key(text: str) -> int:
    """The address key of `text`, in any case or compression style.

    Zone indices, ports and CIDR suffixes are rejected with NotAnIp; this
    accepts exactly one host address. Surrounding whitespace is ignored.
    """
    # ipaddress accepts scoped literals like fe80::1%eth0 since 3.9.
    if "%" in text:
        raise NotAnIp(f"zone index not allowed: {text!r}")
    text = text.strip()
    try:
        if ":" in text:
            value = _from_bytes(_pton(AF_INET6, text), "big")
            if value >> 48:
                return value | V6_KEY
            # First 80 bits zero: ipaddress alone decides (see module docstring).
            return int(IPv6Address(text)) | V6_KEY
        return _from_bytes(_pton(AF_INET, text), "big")
    except (OSError, ValueError):
        raise NotAnIp(f"not an IPv4 or IPv6 address: {text!r}") from None


def canonical_key(text: str) -> tuple[int, bool]:
    """The address key of `text`, and whether `text` is exactly ``key_text`` of it."""
    key = parse_key(text)
    return key, key_text(key) == text


def key_text(key: int) -> str:
    """Canonical text of an address key: RFC 5952 for v6, dotted quad for v4."""
    if key >> 128:
        value = key ^ V6_KEY
        if value >> 48:  # not all of the first 80 bits are zero
            return _ntop(AF_INET6, value.to_bytes(16, "big"))
        return str(IPv6Address(value))
    return _ntop(AF_INET, key.to_bytes(4, "big"))


def key_ip(key: int) -> IpAddress:
    """The ``ipaddress`` object of an address key."""
    return IPv6Address(key ^ V6_KEY) if key >> 128 else IPv4Address(key)


def ip_key(ip: IpAddress) -> int:
    """The address key of an ``ipaddress`` object."""
    return int(ip) | V6_KEY if ip.version == 6 else int(ip)


def prefix_key(text: str, strict: bool = True) -> tuple[int, int, int]:
    """(IP version, network int, prefix length) of prefix text, as ``ip_network(text, strict)`` reads it.

    Canonical ``address/length`` text is decoded with the address codec: a
    length past the address width raises ValueError, and so do host bits when
    `strict`; without it they are masked off. Any other spelling (a bare
    address, a netmask, a non-canonical or scoped address) is left to
    ``ip_network``.
    """
    address, slash, length = text.partition("/")
    if slash and length.isascii() and length.isdigit():
        try:
            key, canonical = canonical_key(address)
        except NotAnIp:
            canonical = False
        if canonical:
            version, width = (6, 128) if key >> 128 else (4, 32)
            plen = int(length)
            if plen > width:
                raise ValueError(f"not a {width}-bit network: {text!r}")
            network = key & (V6_KEY - 1)
            host = network & ((1 << (width - plen)) - 1)
            if host and strict:
                raise ValueError(f"host bits set: {text!r}")
            return version, network ^ host, plen
    net = ip_network(text, strict)
    return net.version, int(net.network_address), net.prefixlen


def parse_ip(text: str) -> IpAddress:
    """Parse an IPv4/IPv6 address in any case or compression style (see ``parse_key``)."""
    return key_ip(parse_key(text))


def canonical_text(ip: IpAddress) -> str:
    """Canonical text form: RFC 5952 for v6, dotted quad for v4."""
    return key_text(ip_key(ip))


def eui64_mac(value: int) -> Optional[bytes]:
    """The MAC octets in an EUI-64 interface identifier (RFC 4291 App. A), or None.

    `value` is an IPv6 address as an int; bits above 127 are ignored. 0xFFFE
    in bits 24-39 (bytes 11-12 of the address) marks EUI-64; the MAC is bits
    40-63 with the U/L bit flipped back, then bits 0-23.
    """
    if (value >> 24) & 0xFFFF != 0xFFFE:
        return None
    return ((((value >> 40) & 0xFFFFFF) ^ 0x020000) << 24 | (value & 0xFFFFFF)).to_bytes(6, "big")


def is_eui64(ip: IpAddress) -> bool:
    """True iff `ip` is IPv6 with 0xfffe at bytes 11-12 of the address."""
    return ip.version == 6 and eui64_mac(int(ip)) is not None


@dataclass(frozen=True)
class Mac48:
    """A 48-bit hardware address. Multicast/local bits are data, not errors."""

    octets: bytes

    def __post_init__(self) -> None:
        if len(self.octets) != 6:
            raise ValueError(f"MAC needs 6 octets, got {len(self.octets)}")

    @classmethod
    def parse(cls, text: str) -> "Mac48":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"not a MAC: {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    @property
    def oui(self) -> bytes:
        return self.octets[:3]

    @property
    def is_locally_administered(self) -> bool:
        """U/L bit set: the address was not burned in by a manufacturer."""
        return bool(self.octets[0] & 0x02)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)


def extract_mac(ip: IpAddress) -> Mac48:
    """Recover the MAC embedded in an EUI-64 interface identifier.

    The U/L bit is always flipped back, so the result is the MAC as the host
    would have reported it.
    """
    mac = eui64_mac(int(ip)) if ip.version == 6 else None
    if mac is None:
        raise NotEui64(canonical_text(ip))
    return Mac48(mac)


def embed_mac(mac: Mac48, prefix64: Prefix) -> IPv6Address:
    """Build the EUI-64 address for `mac` inside a /64; inverse of extract_mac."""
    if not isinstance(prefix64, IPv6Network) or prefix64.prefixlen != 64:
        raise BadLength(f"need an IPv6 /64, got {prefix64}")
    m = mac.octets
    iid = bytes((m[0] ^ 0x02, m[1], m[2], 0xFF, 0xFE, m[3], m[4], m[5]))
    return IPv6Address(prefix64.network_address.packed[:8] + iid)


class OuiDatabase:
    """Read-only map from 3-byte OUI to organization name.

    Lookups are total: anything unmapped resolves to ``UNLISTED``. ``entries``
    is the map given, kept without a copy: neither the database nor its
    caller changes it afterwards.
    """

    def __init__(self, entries: dict[bytes, str], duplicate_rows: int = 0, bad_rows: int = 0):
        self.entries = entries
        self.duplicate_rows = duplicate_rows
        self.bad_rows = bad_rows

    def vendor(self, oui: bytes) -> str:
        return self.entries.get(oui, UNLISTED)

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_OUI_DATABASE = OuiDatabase({})


def _normalize_assignment(text: str) -> bytes | None:
    hexdigits = text.replace(" ", "").replace("-", "").replace(":", "").replace(".", "")
    if len(hexdigits) != 6:
        return None
    try:
        return bytes.fromhex(hexdigits)
    except ValueError:
        return None


def load_oui_database(stream: Union[BinaryIO, TextIO]) -> OuiDatabase:
    """Load an IEEE MA-L export (Registry,Assignment,Organization Name,...).

    Duplicate assignments keep the first occurrence; malformed rows are
    counted and skipped. A missing header, a line the csv module cannot parse
    (such as a field over its size limit) or a byte that is not UTF-8 is a
    file-level error, BadCsv naming the line.
    """
    wrapper = io.TextIOWrapper(stream, encoding="utf-8", newline="") if isinstance(stream.read(0), bytes) else None
    reader = csv.reader(wrapper or stream)
    try:
        header = next(reader, None)
        if header is None:
            raise BadCsv("empty stream, no header")
        normalized = [col.strip().lower() for col in header]
        if "registry" not in normalized or "assignment" not in normalized:
            raise BadCsv(f"unrecognized header: {header!r}")
        assign_col = normalized.index("assignment")
        org_col = normalized.index("organization name") if "organization name" in normalized else 2

        entries: dict[bytes, str] = {}
        duplicates = 0
        bad = 0
        for row in reader:
            if not row:
                continue
            if len(row) <= max(assign_col, org_col):
                bad += 1
                continue
            oui = _normalize_assignment(row[assign_col])
            if oui is None:
                bad += 1
                continue
            if oui in entries:
                duplicates += 1
                continue
            entries[oui] = row[org_col].strip()
    except csv.Error as exc:
        raise BadCsv(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # exc.start is in the decoder's chunk, which goes on from line line_num + 1
        line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
        raise BadCsv(f"line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    finally:
        if wrapper is not None:
            wrapper.detach()  # so that only the caller closes `stream`
    return OuiDatabase(entries, duplicate_rows=duplicates, bad_rows=bad)
