"""Independent reference implementations used to check the package under test.

Nothing here imports wikiv6. The dump scan is line-oriented regex matching,
and ``oracle_parse_dump`` is a class-based expat handler that receives the
character data of the whole document. The table oracles are direct
set/group-by recomputations over parsed TSV rows with their own truncation,
EUI-64, vendor and CSV-rendering code paths. The MRT reference decoder reads
RFC 6396 field by field with ``struct`` and masks prefixes with ``ipaddress``.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from datetime import datetime, timezone
from ipaddress import IPv4Network, IPv6Network, ip_address, ip_network
from xml.parsers import expat

TS_RE = re.compile(r"<timestamp>([^<]*)</timestamp>")
IP_RE = re.compile(r"<ip>([^<]*)</ip>")
DBNAME_RE = re.compile(r"<dbname>([^<]*)</dbname>")


def scan_dump_lines(lines, site_code):
    """Line-oriented scan of a dump; returns (tsv_rows, stats_dict).

    Relies on the fixture layout keeping each <contributor> element on one
    line, which makes classification a per-line regex decision.
    """
    stats = {
        "revisions": 0,
        "anonymous": 0,
        "skipped_registered": 0,
        "skipped_deleted": 0,
        "skipped_malformed_ip": 0,
        "skipped_missing_timestamp": 0,
        "skipped_namespace": 0,
        "siteinfo_conflicts": 0,
    }
    rows = []
    in_revision = False
    ts_text = None
    contrib = None
    for line in lines:
        s = line.strip()
        if s.startswith("<revision>"):
            in_revision = True
            ts_text = None
            contrib = None
        elif s.startswith("</revision>"):
            in_revision = False
            stats["revisions"] += 1
            if contrib is None or contrib[0] == "del":
                stats["skipped_deleted"] += 1
            elif contrib[0] == "reg":
                stats["skipped_registered"] += 1
            else:
                if ts_text is None or not _valid_ts(ts_text):
                    stats["skipped_missing_timestamp"] += 1
                    continue
                canonical = _canonical_or_none(contrib[1])
                if canonical is None:
                    stats["skipped_malformed_ip"] += 1
                    continue
                stats["anonymous"] += 1
                rows.append(f"{ts_text}\t{site_code}\t{canonical}")
        elif in_revision and s.startswith("<timestamp>"):
            m = TS_RE.search(s)
            ts_text = m.group(1) if m else None
        elif in_revision and s.startswith("<contributor"):
            if 'deleted="deleted"' in s:
                contrib = ("del",)
            else:
                m = IP_RE.search(s)
                if m is not None:
                    contrib = ("anon", m.group(1))
                elif "<username>" in s:
                    contrib = ("reg",)
                else:
                    contrib = ("del",)
        elif s.startswith("<dbname>"):
            m = DBNAME_RE.search(s)
            if m and m.group(1) != site_code:
                stats["siteinfo_conflicts"] += 1
    return rows, stats


def _valid_ts(text):
    try:
        datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
        return True
    except ValueError:
        return False


def _canonical_or_none(text):
    text = text.strip()
    if "%" in text:
        return None
    try:
        return str(ip_address(text))
    except ValueError:
        return None


# Leaf elements whose character data the reference dump decoder buffers,
# keyed by (parent, element).
_DUMP_CAPTURED = {
    ("siteinfo", "dbname"),
    ("page", "ns"),
    ("revision", "timestamp"),
    ("contributor", "ip"),
    ("contributor", "username"),
}


class _ReferenceDumpHandler:
    """Expat callbacks of the reference dump decoder: character data is
    delivered for the whole document and kept only while a captured leaf is open."""

    def __init__(self, site_code, namespaces, parse_timestamp, parse_ip):
        self.site_code = site_code
        self.namespaces = namespaces
        self.parse_timestamp = parse_timestamp
        self.parse_ip = parse_ip
        self.stats = {
            "revisions": 0,
            "anonymous": 0,
            "skipped_registered": 0,
            "skipped_deleted": 0,
            "skipped_malformed_ip": 0,
            "skipped_missing_timestamp": 0,
            "skipped_namespace": 0,
            "siteinfo_conflicts": 0,
        }
        self.pending = []
        self._stack = []
        self._chars = None
        self._page_ns = None
        self._rev_timestamp = None
        self._contrib_deleted = False
        self._contrib_ip = None
        self._contrib_username = None

    def start_element(self, name, attrs):
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        if (parent, name) in _DUMP_CAPTURED:
            self._chars = []
        elif name == "page":
            self._page_ns = None
        elif name == "revision" and parent == "page":
            self._rev_timestamp = None
            self._contrib_deleted = False
            self._contrib_ip = None
            self._contrib_username = None
        elif name == "contributor" and parent == "revision":
            self._contrib_deleted = attrs.get("deleted") is not None

    def char_data(self, data):
        if self._chars is not None:
            self._chars.append(data)

    def end_element(self, name):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else ""
        if self._chars is not None and (parent, name) in _DUMP_CAPTURED:
            text = "".join(self._chars)
            self._chars = None
            if name == "dbname":
                if text.strip() != self.site_code:
                    self.stats["siteinfo_conflicts"] += 1
            elif name == "ns":
                try:
                    self._page_ns = int(text.strip())
                except ValueError:
                    self._page_ns = None
            elif name == "timestamp":
                self._rev_timestamp = text
            elif name == "ip":
                self._contrib_ip = text
            elif name == "username":
                self._contrib_username = text
        elif name == "revision" and parent == "page":
            self._finish_revision()

    def _finish_revision(self):
        stats = self.stats
        stats["revisions"] += 1
        if self.namespaces is not None and self._page_ns not in self.namespaces:
            stats["skipped_namespace"] += 1
            return
        ip_text = self._contrib_ip
        if self._contrib_deleted or (ip_text is None and self._contrib_username is None):
            stats["skipped_deleted"] += 1
            return
        if ip_text is None:
            stats["skipped_registered"] += 1
            return
        if self._rev_timestamp is None:
            stats["skipped_missing_timestamp"] += 1
            return
        try:
            ts = self.parse_timestamp(self._rev_timestamp)
        except ValueError:
            stats["skipped_missing_timestamp"] += 1
            return
        try:
            ip = self.parse_ip(ip_text)
        except ValueError:
            stats["skipped_malformed_ip"] += 1
            return
        stats["anonymous"] += 1
        self.pending.append((ts, ip))


def oracle_parse_dump(stream, site_code, parse_timestamp, parse_ip, namespaces=None, chunk_size=1 << 16):
    """Reference decoder for a dump read from ``stream`` in ``chunk_size`` reads.

    The timestamp and address decoders are passed in, so this checks only
    the expat handling. Returns ``(records, stats, error)``: the
    ``(timestamp, ip)`` pairs a streaming caller would have received, which
    are those completed in every ``Parse`` call before a failing one; the
    counters in ``ParseStats.as_dict`` form; and ``None`` or the failure's
    ``(line, column, byte index)``.
    """
    handler = _ReferenceDumpHandler(site_code, namespaces, parse_timestamp, parse_ip)
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = handler.start_element
    parser.EndElementHandler = handler.end_element
    parser.CharacterDataHandler = handler.char_data
    records = []
    while True:
        data = stream.read(chunk_size)
        try:
            parser.Parse(data, not data)
        except expat.ExpatError:
            error = (parser.ErrorLineNumber, parser.ErrorColumnNumber, parser.ErrorByteIndex)
            return records, handler.stats, error
        records.extend(handler.pending)
        handler.pending = []
        if not data:
            return records, handler.stats, None


# ---------------------------------------------------------------------------
# Parsed record rows: (ts, site, ip, origin_text_or_None)

def parse_records_tsv(text):
    rows = []
    for line in text.splitlines()[1:]:
        if not line:
            continue
        parts = line.split("\t")
        ts = datetime.strptime(parts[0], "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
        origin = parts[3] if len(parts) >= 5 else None
        rows.append((ts, parts[1], ip_address(parts[2]), origin))
    return rows


def week_of(ts):
    iso = ts.isocalendar()
    return (iso[0], iso[1])


def week_str(week):
    return f"{week[0]:04d}-W{week[1]:02d}"


def month_str(ts):
    return f"{ts.year:04d}-{ts.month:02d}"


def trunc(ip, length):
    return ip_network((ip, length), strict=False)


def _quote(text):
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _f2(x):
    return f"{round(x, 2):.2f}"


def _g(x):
    return repr(float(x))


def _csv(header, rows):
    return "\n".join([header] + rows) + "\n"


def is_eui64_exploded(ip):
    """EUI-64 test through the exploded string form (independent mechanism)."""
    if ip.version != 6:
        return False
    groups = ip.exploded.split(":")
    return groups[5].endswith("ff") and groups[6].startswith("fe")


def mac_from_exploded(ip):
    """MAC text from the exploded interface identifier, U/L bit flipped back."""
    groups = ip.exploded.split(":")
    iid_hex = "".join(groups[4:8])
    mac_hex = iid_hex[:6] + iid_hex[10:]
    first = int(mac_hex[:2], 16) ^ 0x02
    rest = mac_hex[2:]
    full = f"{first:02x}" + rest
    return ":".join(full[i : i + 2] for i in range(0, 12, 2))


def load_oui_rows(text):
    """Minimal IEEE CSV reader: first occurrence wins, bad assignments skipped."""
    import csv as _csv_mod
    import io

    table = {}
    reader = _csv_mod.reader(io.StringIO(text))
    next(reader)
    for row in reader:
        if len(row) < 3:
            continue
        hexpart = re.sub(r"[ :.\-]", "", row[1])
        if len(hexpart) != 6 or not re.fullmatch(r"[0-9a-fA-F]{6}", hexpart):
            continue
        key = hexpart.lower()
        if key not in table:
            table[key] = row[2].strip()
    return table


def vendor_of(mac_text, oui_table):
    oui = mac_text.replace(":", "")[:6].lower()
    return oui_table.get(oui, "Unlisted")


# ---------------------------------------------------------------------------
# Table oracles. Each returns CSV text matching the documented contract.

def oracle_weekly_by_version(rows):
    buckets = {}
    for ts, _site, ip, _o in rows:
        buckets.setdefault((week_of(ts), f"v{ip.version}"), set()).add(str(ip))
    out = [
        f"{week_str(week)},{ver},{len(ips)}"
        for (week, ver), ips in sorted(buckets.items())
    ]
    return _csv("week,version,distinct_ips", out)


def oracle_site_fraction(rows):
    buckets = {}
    for _ts, site, ip, _o in rows:
        buckets.setdefault(site, (set(), set()))[0 if ip.version == 4 else 1].add(str(ip))
    out = []
    for site in sorted(buckets):
        v4, v6 = buckets[site]
        frac = len(v6) / (len(v4) + len(v6))
        out.append(f"{_quote(site)},{len(v4)},{len(v6)},{_f2(frac)},{_g(frac)}")
    return _csv("site,n_v4,n_v6,frac_v6,frac_v6_raw", out)


def _running_prefix_counts(rows, lengths):
    """Running distinct prefix counts at each observed v6 week."""
    by_week = {}
    for ts, _site, ip, _o in rows:
        if ip.version == 6:
            by_week.setdefault(week_of(ts), []).append(ip)
    weeks = sorted(by_week)
    running = {length: set() for length in lengths}
    counts = []
    for week in weeks:
        for ip in by_week[week]:
            for length in lengths:
                running[length].add(trunc(ip, length))
        counts.append((week, {length: len(running[length]) for length in lengths}))
    return counts


def oracle_cumulative_prefixes(rows, lengths=(48, 56, 64, 128)):
    return _cumulative_csv(_running_prefix_counts(rows, lengths), lengths)


def _cumulative_csv(counts, lengths):
    out = []
    for week, by_len in counts:
        for length in sorted(lengths):
            out.append(f"{week_str(week)},{length},{by_len[length]}")
    return _csv("week,length,cumulative_distinct", out)


def oracle_ratio_per_48(rows):
    return _ratio_csv(_running_prefix_counts(rows, (48, 56, 64)))


def _ratio_csv(counts):
    out = []
    for week, by_len in counts:
        if by_len[48] == 0:
            continue
        out.append(
            f"{week_str(week)},{_g(by_len[56] / by_len[48])},{_g(by_len[64] / by_len[48])}"
        )
    return _csv("week,ratio_56,ratio_64", out)


def oracle_lifetimes(rows):
    seen = {}
    for ts, _site, ip, _o in rows:
        key = str(ip)
        if key in seen:
            lo, hi, version = seen[key]
            seen[key] = (min(lo, ts), max(hi, ts), version)
        else:
            seen[key] = (ts, ts, ip.version)

    hist = {}
    for key, (lo, hi, version) in seen.items():
        days = int((hi - lo).total_seconds()) // 86400
        hist_key = (f"v{version}", days)
        hist[hist_key] = hist.get(hist_key, 0) + 1
    out = [f"{ver},{days},{n}" for (ver, days), n in sorted(hist.items())]
    return _csv("version,lifetime_days,count", out)


def oracle_weekly_by_as(rows, top_k):
    labeled = []
    for ts, _site, ip, origin in rows:
        if origin is None or ip.version != 6:
            continue
        if origin == "unrouted":
            label = "unrouted"
        elif origin.startswith("set:"):
            label = "set"
        else:
            label = origin
        labeled.append((week_of(ts), label, str(ip)))

    all_time = {}
    for _week, label, ip_text in labeled:
        if label.isdigit():
            all_time.setdefault(label, set()).add(ip_text)
    ranking = sorted(all_time.items(), key=lambda kv: (-len(kv[1]), int(kv[0])))
    top = {label for label, _ in ranking[:top_k]}

    buckets = {}
    for week, label, ip_text in labeled:
        if label.isdigit() and label not in top:
            continue
        buckets.setdefault((week, label), set()).add(ip_text)

    def label_key(label):
        return (0, int(label), "") if label.isdigit() else (1, 0, label)

    out = [
        f"{week_str(week)},{label},{len(ips)}"
        for (week, label), ips in sorted(buckets.items(), key=lambda kv: (kv[0][0], label_key(kv[0][1])))
    ]
    return _csv("week,asn,distinct_v6", out)


def oracle_eui64_pair(rows, oui_table, top_vendors):
    weekly_v6 = {}
    weekly_eui = {}
    vendor_week = {}
    all_time = {}
    for ts, _site, ip, _o in rows:
        if ip.version != 6:
            continue
        week = week_of(ts)
        weekly_v6.setdefault(week, set()).add(str(ip))
        if not is_eui64_exploded(ip):
            continue
        weekly_eui.setdefault(week, set()).add(str(ip))
        vendor = vendor_of(mac_from_exploded(ip), oui_table)
        vendor_week.setdefault((week, vendor), set()).add(str(ip))
        all_time.setdefault(vendor, set()).add(str(ip))

    ranking = sorted(
        ((v, ips) for v, ips in all_time.items() if v != "Unlisted"),
        key=lambda kv: (-len(kv[1]), kv[0]),
    )
    top = {v for v, _ in ranking[:top_vendors]}
    series = {}
    for (week, vendor), ips in vendor_week.items():
        if vendor != "Unlisted" and vendor not in top:
            vendor = "other"
        series.setdefault((week, vendor), set()).update(ips)
    weekly_rows = [
        f"{week_str(week)},{_quote(vendor)},{len(ips)}" for (week, vendor), ips in sorted(series.items())
    ]
    weekly_csv = _csv("week,vendor,distinct_v6", weekly_rows)

    frac_rows = []
    for week in sorted(weekly_v6):
        frac = len(weekly_eui.get(week, set())) / len(weekly_v6[week])
        frac_rows.append(f"{week_str(week)},{_f2(frac)},{_g(frac)}")
    frac_csv = _csv("week,eui64_fraction,eui64_fraction_raw", frac_rows)
    return weekly_csv, frac_csv


def oracle_vendor_counts(rows, oui_table):
    macs = {}
    addrs = {}
    all_macs = set()
    all_addrs = set()
    for _ts, _site, ip, _o in rows:
        if ip.version != 6 or not is_eui64_exploded(ip):
            continue
        mac = mac_from_exploded(ip)
        vendor = vendor_of(mac, oui_table)
        macs.setdefault(vendor, set()).add(mac)
        addrs.setdefault(vendor, set()).add(str(ip))
        all_macs.add(mac)
        all_addrs.add(str(ip))
    out = [f"{_quote(v)},{len(macs[v])},{len(addrs[v])}" for v in sorted(macs)]
    out.append(f"total,{len(all_macs)},{len(all_addrs)}")
    return _csv("vendor,distinct_macs,eui64_addresses", out)


def parse_hitlist_rows(lines):
    entries = []
    for line in lines:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            continue
        try:
            text = parts[0][:-1] + "+00:00" if parts[0][-1:] in ("Z", "z") else parts[0]  # RFC 3339 UTC
            when = datetime.fromisoformat(text)
            if when.utcoffset() is not None:  # binned by its UTC month, as records are
                when = when.astimezone(timezone.utc)
            net = ip_network(parts[1], strict=False) if "/" in parts[1] else ip_network(
                (ip_address(parts[1]), 128)
            )
        except (ValueError, OverflowError):
            continue
        if net.version != 6:
            continue
        entries.append(((when.year, when.month), net))
    return entries


def oracle_hitlist_overlap(rows, hitlist_lines):
    entries = parse_hitlist_rows(hitlist_lines)
    by_month = {}
    for month, net in entries:
        by_month.setdefault(month, []).append(net)

    corpus = {}
    for ts, _site, ip, _o in rows:
        if ip.version == 6:
            corpus.setdefault((ts.year, ts.month), set()).add(trunc(ip, 48))
    out = []
    for month in sorted(corpus):
        nets = by_month.get(month, [])
        exact = {trunc(n.network_address, 48) for n in nets if n.prefixlen >= 48}
        shorter = [n for n in nets if n.prefixlen < 48]
        overlap = 0
        for p48 in corpus[month]:
            if p48 in exact or any(p48.subnet_of(n) for n in shorter):
                overlap += 1
        out.append(f"{month[0]:04d}-{month[1]:02d},{len(corpus[month])},{overlap}")
    return _csv("month,wikimedia_48s,overlap_48s", out)


def oracle_all_tables(records_tsv_text, oui_csv_text, hitlist_lines, top_k, top_vendors):
    rows = parse_records_tsv(records_tsv_text)
    oui_table = load_oui_rows(oui_csv_text) if oui_csv_text else {}
    weekly_csv, frac_csv = oracle_eui64_pair(rows, oui_table, top_vendors)
    # One running-set pass serves both prefix tables: the /48, /56 and /64
    # counts do not depend on which other lengths are counted alongside.
    lengths = (48, 56, 64, 128)
    counts = _running_prefix_counts(rows, lengths)
    return {
        "weekly_by_version": oracle_weekly_by_version(rows),
        "site_fraction": oracle_site_fraction(rows),
        "cumulative_prefixes": _cumulative_csv(counts, lengths),
        "ratio_per_48": _ratio_csv(counts),
        "lifetimes": oracle_lifetimes(rows),
        "weekly_by_as": oracle_weekly_by_as(rows, top_k),
        "eui64_weekly": weekly_csv,
        "eui64_fraction": frac_csv,
        "vendor_counts": oracle_vendor_counts(rows, oui_table),
        "hitlist_overlap": oracle_hitlist_overlap(rows, hitlist_lines or []),
    }


class OracleTruncated(Exception):
    def __init__(self, offset):
        super().__init__(offset)
        self.offset = offset


class OracleNoPeerIndex(Exception):
    pass


def _oracle_as_path_origin(data):
    """Origin text from AS_PATH data (RFC 4271 4.3, 4-byte ASNs per RFC 6396 4.3.4), or None.

    The path is a list of segments: type (1 byte), ASN count (1 byte), the
    ASNs. A segment with no ASNs, a segment that overruns the data, an empty
    path, or a final segment that is neither AS_SET nor AS_SEQUENCE is
    malformed. The final AS_SEQUENCE's last ASN is the origin (ASN 0 is
    malformed); a final AS_SET names every distinct ASN in it (a set that
    contains ASN 0 is malformed, RFC 7607; a set of one distinct ASN is that
    ASN).
    """
    segments = []
    i = 0
    while i < len(data):
        if len(data) - i < 2:
            return None
        seg_type, count = data[i], data[i + 1]
        if count == 0 or i + 2 + 4 * count > len(data):
            return None
        segments.append((seg_type, list(struct.unpack(f">{count}I", data[i + 2 : i + 2 + 4 * count]))))
        i += 2 + 4 * count
    if not segments:
        return None
    seg_type, asns = segments[-1]
    if seg_type == 2:  # AS_SEQUENCE
        return None if asns[-1] == 0 else (asns[-1],)
    if seg_type == 1:  # AS_SET
        distinct = sorted(set(asns))
        return None if 0 in distinct else tuple(distinct)
    return None


def _oracle_peer_origin(attrs):
    """Walk BGP path attributes (RFC 4271 4.3) to the first AS_PATH; None if absent or cut short."""
    i = 0
    while i < len(attrs):
        if len(attrs) - i < 3:
            return None
        flags, attr_type = attrs[i], attrs[i + 1]
        if flags & 0x10:
            if len(attrs) - i < 4:
                return None
            (length,) = struct.unpack(">H", attrs[i + 2 : i + 4])
            start = i + 4
        else:
            length = attrs[i + 2]
            start = i + 3
        if start + length > len(attrs):
            return None
        if attr_type == 2:
            return _oracle_as_path_origin(attrs[start : start + length])
        i = start + length
    return None


def _oracle_winner(asn_tuples):
    """Plurality; among tied origins the lower first differing ASN wins, and
    an origin whose ASNs extend another's loses to it."""
    counts = Counter(asn_tuples)
    top = max(counts.values())
    tied = [origin for origin, n in counts.items() if n == top]
    best = tied[0]
    for other in tied[1:]:
        for a, b in zip(best, other):
            if a != b:
                if b < a:
                    best = other
                break
        else:
            if len(other) < len(best):
                best = other
    return best


def _origin_text(asns):
    return str(asns[0]) if len(asns) == 1 else "set:" + ",".join(str(a) for a in asns)


def oracle_mrt_rib(data):
    """Reference TABLE_DUMP_V2 decode (RFC 6396 4.3) of a whole MRT file.

    Returns a dict: captured_at (the first record's timestamp, epoch
    seconds), peer_count (from the latest PEER_INDEX_TABLE), the five
    counters, and entries, sorted ``(prefix text, origin text)`` pairs after
    the per-prefix vote. Raises OracleTruncated with the start offset of a
    record the data ends inside, and OracleNoPeerIndex for a RIB record
    before any PEER_INDEX_TABLE or a file with no PEER_INDEX_TABLE.
    """
    out = {
        "captured_at": None,
        "peer_count": None,
        "skipped_types": 0,
        "skipped_subtypes": 0,
        "malformed_records": 0,
        "malformed_attributes": 0,
    }
    votes = {}
    offset = 0
    while offset < len(data):
        if len(data) - offset < 12:
            raise OracleTruncated(offset)
        ts, mrt_type, subtype, length = struct.unpack(">IHHI", data[offset : offset + 12])
        body = data[offset + 12 : offset + 12 + length]
        if len(body) < length:
            raise OracleTruncated(offset)
        if out["captured_at"] is None:
            out["captured_at"] = ts
        if mrt_type != 13:
            out["skipped_types"] += 1
        elif subtype == 1:
            # collector BGP ID (4), view name length (2), view name, peer count (2)
            peers = 0
            if len(body) >= 8:
                (view_len,) = struct.unpack(">H", body[4:6])
                if len(body) >= 8 + view_len:
                    (peers,) = struct.unpack(">H", body[6 + view_len : 8 + view_len])
            out["peer_count"] = peers
        elif subtype in (2, 4):
            if out["peer_count"] is None:
                raise OracleNoPeerIndex(offset)
            _oracle_rib_record(body, 32 if subtype == 2 else 128, votes, out)
        else:
            out["skipped_subtypes"] += 1
        offset += 12 + length
    if out["peer_count"] is None:
        raise OracleNoPeerIndex(offset)
    ranked = sorted(votes, key=lambda net: (net.version, int(net.network_address), net.prefixlen))
    out["entries"] = [(str(net), _origin_text(_oracle_winner(votes[net]))) for net in ranked]
    return out


def _oracle_rib_record(body, bits, votes, out):
    # sequence number (4), prefix length (1), prefix (ceil(len / 8) bytes), entry count (2), entries
    if len(body) < 5:
        out["malformed_records"] += 1
        return
    plen = body[4]
    nbytes = (plen + 7) // 8
    if plen > bits or len(body) < 5 + nbytes + 2:
        out["malformed_records"] += 1
        return
    packed = body[5 : 5 + nbytes] + bytes(bits // 8 - nbytes)
    net = ip_network((packed, plen), strict=False)
    (count,) = struct.unpack(">H", body[5 + nbytes : 7 + nbytes])
    i = 7 + nbytes
    for _ in range(count):
        # peer index (2), originated time (4), attribute length (2), attributes
        if len(body) - i < 8:
            out["malformed_records"] += 1
            break
        (attr_len,) = struct.unpack(">H", body[i + 6 : i + 8])
        if len(body) - i - 8 < attr_len:
            out["malformed_records"] += 1
            break
        origin = _oracle_peer_origin(body[i + 8 : i + 8 + attr_len])
        if origin is None:
            out["malformed_attributes"] += 1
        else:
            votes.setdefault(net, []).append(origin)
        i += 8 + attr_len


def snapshot_pairs(snapshot):
    """A snapshot's sorted int-keyed ``entries`` as ``(ip_network, OriginAs)`` pairs, built with ``ipaddress``."""
    return [((IPv4Network if v == 4 else IPv6Network)((n, l)), origin) for (v, n, l), origin in snapshot.entries]
