"""IP address canonicalization, prefix arithmetic, EUI-64 mechanics, OUI vendor lookup.

Addresses are represented with the stdlib ``ipaddress`` objects; their string
form already follows RFC 5952 (lowercase hex, maximal ``::`` compression,
leftmost run on ties), which is the canonical text used everywhere in this
package. MAC addresses get a small wrapper type because we care about the
OUI and the U/L bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network, ip_address
from typing import BinaryIO, TextIO, Union

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


def parse_ip(text: str) -> IpAddress:
    """Parse an IPv4/IPv6 address in any case or compression style.

    Zone indices, ports and CIDR suffixes are rejected; this accepts exactly
    one host address, nothing more.
    """
    # ipaddress accepts scoped literals like fe80::1%eth0 since 3.9.
    if "%" in text:
        raise NotAnIp(f"zone index not allowed: {text!r}")
    try:
        return ip_address(text.strip())
    except ValueError as exc:
        raise NotAnIp(str(exc)) from None


def canonical_text(ip: IpAddress) -> str:
    """Canonical text form: RFC 5952 for v6, dotted quad for v4."""
    return str(ip)


def is_eui64(ip: IpAddress) -> bool:
    """True iff `ip` is IPv6 with 0xfffe at bytes 11-12 of the address."""
    if ip.version != 6:
        return False
    packed = ip.packed
    return packed[11] == 0xFF and packed[12] == 0xFE


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
    if not is_eui64(ip):
        raise NotEui64(canonical_text(ip))
    a = ip.packed
    return Mac48(bytes((a[8] ^ 0x02, a[9], a[10], a[13], a[14], a[15])))


def embed_mac(mac: Mac48, prefix64: Prefix) -> IPv6Address:
    """Build the EUI-64 address for `mac` inside a /64; inverse of extract_mac."""
    if not isinstance(prefix64, IPv6Network) or prefix64.prefixlen != 64:
        raise BadLength(f"need an IPv6 /64, got {prefix64}")
    m = mac.octets
    iid = bytes((m[0] ^ 0x02, m[1], m[2], 0xFF, 0xFE, m[3], m[4], m[5]))
    return IPv6Address(prefix64.network_address.packed[:8] + iid)


class OuiDatabase:
    """Read-only map from 3-byte OUI to organization name.

    Lookups are total: anything unmapped resolves to ``UNLISTED``.
    """

    def __init__(self, entries: dict[bytes, str], duplicate_rows: int = 0, bad_rows: int = 0):
        self._entries = dict(entries)
        self.duplicate_rows = duplicate_rows
        self.bad_rows = bad_rows

    def vendor(self, oui: bytes) -> str:
        return self._entries.get(oui, UNLISTED)

    def __len__(self) -> int:
        return len(self._entries)


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
    counted and skipped. A missing header, or a line the csv module cannot
    parse (such as a field over its size limit), is a file-level error.
    """
    if isinstance(stream.read(0), bytes):
        stream = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    reader = csv.reader(stream)
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
    return OuiDatabase(entries, duplicate_rows=duplicates, bad_rows=bad)


def resolve_vendor(mac: Mac48, db: OuiDatabase) -> str:
    """Vendor name for `mac`, or ``UNLISTED`` if its OUI is not registered."""
    return db.vendor(mac.oui)
