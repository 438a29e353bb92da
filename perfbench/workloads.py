"""Seeded input generators for the three benchmark workloads.

Standard library plus the byte builders in ``tests/mrt_synth.py`` only; nothing
here imports ``wikiv6``. Every generator writes its files into a work
directory and returns a ``Workload`` holding the ground truth the checks
compare against: the record rows each valid anonymous revision should yield,
the skip counters extract should report, and the intended prefix -> origin map
of every snapshot.

Sizes are fixed per workload (only values depend on the seed), so runs with
different seeds do the same amount of work. ``scale`` shrinks every count for
the self-test.
"""

from __future__ import annotations

import calendar
import random
import time
from dataclasses import dataclass, field, replace
from ipaddress import IPv4Address, IPv6Address, ip_address
from pathlib import Path
from xml.sax.saxutils import escape

import mrt_synth

V6_TOPS = (0x2001, 0x2003, 0x2400, 0x2401, 0x2405, 0x2409, 0x2600, 0x2601, 0x2602, 0x2a00, 0x2a01, 0x2a02, 0x2c0f)
V6_UNROUTED_TOP = 0x3FFF  # never announced: records drawn here are unrouted
V4_UNROUTED_TOP = 240  # class E, never announced

T0 = calendar.timegm((2015, 1, 5, 0, 0, 0))
SPAN_S = 4 * 365 * 86400

WORDS = (
    "the of and in to was is for on as by with from at that which his he it an were are "
    "also this be its has had first new after who their they one two years been other "
    "city river album season county team village football school population district "
    "Zürich München Kraków São Paulo Москва 東京 北京 Ελλάδα"
).split()


@dataclass
class Snapshot:
    path: str
    captured_at: int
    # (version, plen) -> {network int: origin text}
    routes: dict = field(default_factory=dict)

    def add(self, version: int, net: int, plen: int, origin: str) -> None:
        self.routes.setdefault((version, plen), {})[net] = origin

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.routes.values())


@dataclass
class Workload:
    name: str
    config: str
    dumps: list
    oui: str
    hitlist: str
    top_k: int
    top_vendors: int
    rows: list  # (timestamp text, site, canonical ip) per emitted record
    counts: dict  # expected extract stats totals
    snapshots: list  # Snapshot, in capture order
    dump_bytes: int


@dataclass(frozen=True)
class Spec:
    dumps: tuple  # (site, part) per dump file
    revisions: int
    anon_share: float
    text_bytes: tuple  # (min, max) article text per revision
    v6_share: float
    repeat_share: float
    eui64_share: float
    unrouted_share: float
    routes: tuple  # (v4, v6) prefixes per snapshot
    mrt_snapshots: int
    table_snapshots: int
    peers: int
    churn: float
    oui_rows: int
    hitlist_rows: int


SPECS = {
    "text-heavy-extract": Spec(
        dumps=(("enwiki", 1), ("enwiki", 2), ("dewiki", 1)),
        revisions=6_000,
        anon_share=0.10,
        text_bytes=(2_500, 7_500),
        v6_share=0.5,
        repeat_share=0.2,
        eui64_share=0.1,
        unrouted_share=0.05,
        routes=(300, 300),
        mrt_snapshots=1,
        table_snapshots=1,
        peers=3,
        churn=0.0,
        oui_rows=500,
        hitlist_rows=100,
    ),
    "anon-dense": Spec(
        dumps=(("enwiki", 1), ("enwiki", 2), ("dewiki", 1), ("jawiki", 1), ("enwiktionary", 1)),
        revisions=24_000,
        anon_share=0.75,
        text_bytes=(40, 240),
        v6_share=0.7,
        repeat_share=0.35,
        eui64_share=0.15,
        unrouted_share=0.05,
        routes=(2_500, 2_500),
        mrt_snapshots=1,
        table_snapshots=1,
        peers=3,
        churn=0.05,
        oui_rows=30_000,
        hitlist_rows=2_000,
    ),
    "rib-churn": Spec(
        dumps=(("enwiki", 1), ("frwiki", 1)),
        revisions=2_600,
        anon_share=0.5,
        text_bytes=(40, 240),
        v6_share=0.5,
        repeat_share=0.2,
        eui64_share=0.1,
        unrouted_share=0.05,
        routes=(3_500, 2_500),
        mrt_snapshots=11,
        table_snapshots=1,
        peers=4,
        churn=0.08,
        oui_rows=500,
        hitlist_rows=100,
    ),
}

WORKLOADS = tuple(SPECS)


def iso(epoch: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


# ---------------------------------------------------------------------------
# Routing: nested prefixes with origins


class Routes:
    """A base set of nested v4/v6 prefixes; snapshots are churned copies."""

    def __init__(self, rng: random.Random, n_v4: int, n_v6: int, asns: list):
        self.rng = rng
        self.asns = asns
        self.prefixes = self._nested(4, n_v4) + self._nested(6, n_v6)

    def _nested(self, version: int, n: int) -> list:
        rng = self.rng
        width = 32 if version == 4 else 128
        lengths = (16, 18, 20, 22, 24) if version == 4 else (32, 36, 40, 44, 48)
        seen = set()
        out = []
        tops = max(1, n // 12)
        while len(out) < n:
            if len(out) < tops:
                if version == 4:
                    net = rng.randrange(1, 224) << 24 | rng.getrandbits(8) << 16
                else:
                    net = rng.choice(V6_TOPS) << 112 | rng.getrandbits(16) << 96
                plen = lengths[0]
            else:
                pv, pnet, pplen = out[rng.randrange(len(out))]
                deeper = [p for p in lengths if p > pplen]
                if not deeper:
                    continue
                plen = rng.choice(deeper)
                net = pnet | (rng.getrandbits(plen - pplen) << (width - plen))
            key = (net, plen)
            if key in seen:
                continue
            seen.add(key)
            out.append((version, net, plen))
        return out

    def origin(self) -> tuple:
        """(intended origin text, asns) for one prefix; 4% are final AS_SETs."""
        if self.rng.random() < 0.04:
            pair = sorted(self.rng.sample(self.asns, 2))
            return "set:" + ",".join(map(str, pair)), tuple(pair)
        asn = self.rng.choice(self.asns)
        return str(asn), (asn,)


def _mrt_entries(rng: random.Random, routes: Routes, peers: int, origin: tuple, ts: int) -> list:
    """Per-peer RIB entries whose plurality vote yields `origin`'s text."""
    _text, asns = origin
    transit = lambda: [rng.choice(routes.asns) for _ in range(rng.randrange(1, 4))]  # noqa: E731

    def path(origin_asns):
        if len(origin_asns) > 1:
            return mrt_synth.as_path([(mrt_synth.AS_SEQUENCE, transit()), (mrt_synth.AS_SET, list(origin_asns))])
        return mrt_synth.as_path([(mrt_synth.AS_SEQUENCE, transit() + [origin_asns[0]])])

    def entry(peer, origin_asns):
        attrs = mrt_synth.origin_igp_attr() + path(origin_asns)
        if rng.random() < 0.3:
            attrs += mrt_synth.med_attr(rng.randrange(1000))
        return mrt_synth.rib_entry(peer, ts - rng.randrange(86400), attrs)

    roll = rng.random()
    if len(asns) == 1 and roll < 0.15:
        # Two peers tie; the lowest ASN wins, so the dissenter is higher.
        other = asns[0] + rng.randrange(1, 1000)
        return [entry(0, asns), entry(1, (other,))]
    if len(asns) == 1 and roll < 0.35:
        other = rng.choice(routes.asns)
        while other == asns[0]:
            other = rng.choice(routes.asns)
        return [entry(0, asns), entry(1, (other,)), entry(2, asns)]
    count = rng.randrange(1, peers + 1)
    return [entry(p, asns) for p in range(count)]


def _write_snapshots(rng: random.Random, routes: Routes, spec: Spec, workdir: Path) -> list:
    n = spec.mrt_snapshots + spec.table_snapshots
    kinds = ["mrt"] * spec.mrt_snapshots + ["table"] * spec.table_snapshots
    rng.shuffle(kinds)
    base_origin = {p: routes.origin() for p in routes.prefixes}
    snapshots = []
    bodies = {}
    current = dict(base_origin)
    for i, kind in enumerate(kinds):
        captured = T0 + (i * 2 + 1) * SPAN_S // (2 * n) + rng.randrange(-3600, 3600)
        for p in list(current):
            if rng.random() < spec.churn:
                current[p] = routes.origin()
        if i and spec.churn:
            # Withdraw a few more-specifics and announce replacements.
            for p in rng.sample(sorted(current), int(len(current) * spec.churn / 4)):
                if p[2] not in (16, 32):
                    current.pop(p)
            while len(current) < len(base_origin):
                v, net, plen = rng.choice(routes.prefixes)
                width = 32 if v == 4 else 128
                limit = 24 if v == 4 else 48
                if plen >= limit:
                    continue
                new_len = rng.randrange(plen + 1, limit + 1)
                new = (v, net | (rng.getrandbits(new_len - plen) << (width - new_len)), new_len)
                current.setdefault(new, routes.origin())
        snap = Snapshot(path="", captured_at=captured)
        for (v, net, plen), (text, _asns) in current.items():
            snap.add(v, net, plen, text)
        if kind == "mrt":
            path = workdir / f"rib.{time.strftime('%Y%m%d.%H%M', time.gmtime(captured))}.mrt"
            records = [mrt_synth.mrt_record(captured, mrt_synth.TABLE_DUMP_V2, mrt_synth.PEER_INDEX_TABLE,
                                            mrt_synth.peer_index_body(peers=spec.peers))]
            for prefix, origin in current.items():
                v, net, plen = prefix
                # Unchanged routes reuse their encoded entries, as real RIBs repeat.
                key = (prefix, origin)
                if key not in bodies:
                    bodies[key] = mrt_synth.rib_unicast_body(
                        len(bodies), net.to_bytes(4 if v == 4 else 16, "big"), plen,
                        _mrt_entries(rng, routes, spec.peers, origin, captured),
                    )
                subtype = mrt_synth.RIB_IPV4_UNICAST if v == 4 else mrt_synth.RIB_IPV6_UNICAST
                records.append(mrt_synth.mrt_record(captured, mrt_synth.TABLE_DUMP_V2, subtype, bodies[key]))
            path.write_bytes(b"".join(records))
        else:
            path = workdir / f"prefixes-{time.strftime('%Y%m%d%H%M', time.gmtime(captured))}.tsv"
            lines = [f"# captured_at={iso(captured)}\n", "# synthetic prefix table\n"]
            items = list(current.items())
            rng.shuffle(items)
            for (v, net, plen), (text, _asns) in items:
                lines.append(f"{(IPv4Address if v == 4 else IPv6Address)(net)}/{plen}\t{text}\n")
            path.write_text("".join(lines), encoding="utf-8")
        snap.path = str(path)
        snapshots.append(snap)
    return snapshots


# ---------------------------------------------------------------------------
# Addresses, OUIs and the hitlist


def _oui_table(rng: random.Random, rows: int) -> tuple:
    """(csv text, listed OUIs). Some names carry commas and need quoting."""
    listed = set()
    while len(listed) < rows:
        listed.add(rng.getrandbits(24) & ~0x020000)  # universally administered
    listed = sorted(listed)
    rng.shuffle(listed)
    out = ["Registry,Assignment,Organization Name,Organization Address"]
    for i, oui in enumerate(listed):
        name = f"Vendor {i % 997} Systems" if i % 7 else f'"Maker {i % 89}, Inc."'
        out.append(f"MA-L,{oui:06X},{name},{i} Main St Springfield US {10000 + i % 90000}")
    return "\n".join(out) + "\n", listed


class Addresses:
    def __init__(self, rng: random.Random, spec: Spec, routes: Routes, listed_ouis: list):
        self.rng = rng
        self.spec = spec
        self.v4 = [p for p in routes.prefixes if p[0] == 4]
        self.v6 = [p for p in routes.prefixes if p[0] == 6]
        # A few OUIs dominate, as real vendor distributions do.
        self.hot_ouis = listed_ouis[:40]
        self.recent: list = []

    def _eui64_iid(self) -> int:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            oui = rng.choice(self.hot_ouis)
        elif roll < 0.8:
            oui = rng.getrandbits(24) & ~0x020000  # unlisted, universal
        else:
            oui = rng.getrandbits(24) | 0x020000  # locally administered
        tail = rng.getrandbits(24)
        return ((oui ^ 0x020000) << 40) | (0xFFFE << 24) | tail

    def draw(self) -> str:
        """Canonical text of a fresh or repeated address."""
        rng = self.rng
        if self.recent and rng.random() < self.spec.repeat_share:
            return rng.choice(self.recent)
        unrouted = rng.random() < self.spec.unrouted_share
        if rng.random() < self.spec.v6_share:
            if unrouted:
                host = V6_UNROUTED_TOP << 112 | rng.getrandbits(112)
            else:
                _, net, plen = rng.choice(self.v6)
                host = net | rng.getrandbits(128 - plen)
            if rng.random() < self.spec.eui64_share:
                host = (host >> 64 << 64) | self._eui64_iid()
            text = str(IPv6Address(host))
        else:
            if unrouted:
                host = V4_UNROUTED_TOP << 24 | rng.getrandbits(24)
            else:
                _, net, plen = rng.choice(self.v4)
                host = net | rng.getrandbits(32 - plen)
            text = str(IPv4Address(host))
        self.recent.append(text)
        return text


def _dump_spelling(rng: random.Random, canonical: str) -> str:
    """How the dump writes the address: mostly canonical, sometimes not."""
    if ":" in canonical and rng.random() < 0.1:
        return ip_address(canonical).exploded.upper()
    return canonical


def _hitlist(rng: random.Random, rows: list, n: int) -> str:
    v6 = [r for r in rows if ":" in r[2]]
    lines = ["# synthetic hitlist"]
    for i in range(n):
        ts_text, _site, ip = rng.choice(v6)
        date = ts_text[:10]
        if i % 20 == 0:
            net = int(ip_address(ip)) >> 96 << 96
            lines.append(f"{date}\t{ip_address(net)}/32")
        elif i % 5 == 0:
            lines.append(f"{date}\t{ip}")
        else:
            net = int(ip_address(ip)) >> 80 << 80
            lines.append(f"{date}\t{ip_address(net)}/48")
    lines += ["2018-01-01\t10.0.0.0/8", "never\t2001:db8::/48"]  # counted skips
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dumps


def _text_pool(rng: random.Random) -> list:
    pool = []
    for _ in range(400):
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(8, 30)))
        kind = rng.random()
        if kind < 0.2:
            words = f"[[{words.split()[0]}|{words}]]"
        elif kind < 0.35:
            words = f"{words}<ref>{{{{cite web|url=https://example.org/{rng.getrandbits(32):x}|title={words[:20]}}}}}</ref>"
        elif kind < 0.45:
            words = f"== {words[:30]} ==\n{words} & \"more\""
        pool.append(words)
    return pool


def _revision_text(rng: random.Random, pool: list, size: int) -> str:
    parts = []
    n = 0
    while n < size:
        line = rng.choice(pool)
        parts.append(line)
        n += len(line) + 1
    return "\n".join(parts)[:size]


def _write_dumps(rng: random.Random, spec: Spec, workdir: Path, addresses: Addresses) -> tuple:
    """Write the dumps one element per line; return (paths, rows, counts, bytes)."""
    n = spec.revisions
    n_anon = int(n * spec.anon_share)
    n_deleted = n // 100
    n_bad_ip = max(1, n_anon // 100)
    n_no_ts = max(1, n_anon // 100)
    n_bad_ts = max(1, n_anon // 200)
    kinds = (
        ["anon"] * (n_anon - n_bad_ip - n_no_ts - n_bad_ts)
        + ["bad_ip"] * n_bad_ip
        + ["no_ts"] * n_no_ts
        + ["bad_ts"] * n_bad_ts
        + ["deleted"] * n_deleted
    )
    kinds += ["registered"] * (n - len(kinds))
    rng.shuffle(kinds)
    counts = {
        "revisions": n,
        "anonymous": n_anon - n_bad_ip - n_no_ts - n_bad_ts,
        "skipped_registered": kinds.count("registered"),
        "skipped_deleted": n_deleted,
        "skipped_malformed_ip": n_bad_ip,
        "skipped_missing_timestamp": n_no_ts + n_bad_ts,
        "skipped_namespace": 0,
        "siteinfo_conflicts": 0,
    }
    pool = _text_pool(rng)
    rows = []
    paths = []
    total_bytes = 0
    per_dump = len(kinds) // len(spec.dumps)
    rev_id = 1000
    for d, (site, part) in enumerate(spec.dumps):
        mine = kinds[d * per_dump:] if d == len(spec.dumps) - 1 else kinds[d * per_dump:(d + 1) * per_dump]
        out = [
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.11/" version="0.11" xml:lang="en">\n',
            "  <siteinfo>\n",
            f"    <sitename>{site}</sitename>\n",
            f"    <dbname>{site}</dbname>\n",
            "  </siteinfo>\n",
        ]
        page = 0
        i = 0
        while i < len(mine):
            page += 1
            ns = 0 if rng.random() < 0.8 else rng.choice((1, 2, 4, 10))
            out.append(f"  <page>\n    <title>Page {page} of {site}</title>\n    <ns>{ns}</ns>\n    <id>{page}</id>\n")
            for kind in mine[i:i + rng.randrange(1, 25)]:
                i += 1
                rev_id += 1
                ts = T0 + rng.randrange(SPAN_S)
                ts_text = iso(ts)
                out.append(f"    <revision>\n      <id>{rev_id}</id>\n")
                if kind == "bad_ts":
                    out.append(f"      <timestamp>{ts_text[:5]}13-45{ts_text[10:]}</timestamp>\n")
                elif kind != "no_ts":
                    out.append(f"      <timestamp>{ts_text}</timestamp>\n")
                if kind == "registered":
                    out.append(f"      <contributor><username>Editor{rng.randrange(5000)}</username><id>{rng.randrange(1, 10**6)}</id></contributor>\n")
                elif kind == "deleted":
                    out.append('      <contributor deleted="deleted" />\n')
                elif kind == "bad_ip":
                    bad = rng.choice(("300.1.2.3", "2001:db8::zz", "fe80::1%eth0", "1.2.3"))
                    out.append(f"      <contributor><ip>{bad}</ip></contributor>\n")
                else:
                    ip = addresses.draw()
                    out.append(f"      <contributor><ip>{_dump_spelling(rng, ip)}</ip></contributor>\n")
                    if kind == "anon":
                        rows.append((ts_text, site, ip))
                if rng.random() < 0.5:
                    out.append(f"      <comment>{escape(rng.choice(pool)[:60])}</comment>\n")
                text = _revision_text(rng, pool, rng.randrange(*spec.text_bytes))
                out.append(
                    "      <model>wikitext</model>\n      <format>text/x-wiki</format>\n"
                    f'      <text bytes="{len(text.encode())}" xml:space="preserve">{escape(text)}</text>\n'
                    f"      <sha1>{rng.getrandbits(160):040x}</sha1>\n    </revision>\n"
                )
            out.append("  </page>\n")
        out.append("</mediawiki>\n")
        path = workdir / f"{site}-20241201-pages-meta-history{part}.xml"
        data = "".join(out).encode("utf-8")
        path.write_bytes(data)
        total_bytes += len(data)
        paths.append(str(path))
    return paths, rows, counts, total_bytes


# ---------------------------------------------------------------------------


def generate(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Write the inputs of workload `name` for `seed` under `workdir`."""
    base = SPECS[name]
    spec = replace(
        base,
        revisions=max(60, int(base.revisions * scale)),
        routes=tuple(max(30, int(r * scale)) for r in base.routes),
        oui_rows=max(50, int(base.oui_rows * scale)),
        hitlist_rows=max(20, int(base.hitlist_rows * scale)),
    )
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    asns = rng.sample(range(1, 400_000), 3_000)
    routes = Routes(rng, *spec.routes, asns)
    snapshots = _write_snapshots(rng, routes, spec, workdir)
    oui_text, listed = _oui_table(rng, spec.oui_rows)
    oui_path = workdir / "oui.csv"
    oui_path.write_text(oui_text, encoding="utf-8")
    addresses = Addresses(rng, spec, routes, listed)
    dumps, rows, counts, dump_bytes = _write_dumps(rng, spec, workdir, addresses)
    hitlist_path = workdir / "hitlist.tsv"
    hitlist_path.write_text(_hitlist(rng, rows, spec.hitlist_rows), encoding="utf-8")

    out = workdir / "out"
    config = workdir / "pipeline.cfg"
    lines = [f"dump = {d}" for d in dumps] + [f"rib = {s.path}" for s in snapshots]
    lines += [f"oui = {oui_path}", f"hitlist = {hitlist_path}", f"out = {out}", "top_k = 5", "top_vendors = 8"]
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Workload(
        name=name,
        config=str(config),
        dumps=dumps,
        oui=str(oui_path),
        hitlist=str(hitlist_path),
        top_k=5,
        top_vendors=8,
        rows=rows,
        counts=counts,
        snapshots=snapshots,
        dump_bytes=dump_bytes,
    )
