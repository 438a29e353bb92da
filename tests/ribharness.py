#!/usr/bin/env python3
"""Decode and index one synthetic full-size RIB snapshot; report times and peak RSS.

A TABLE_DUMP_V2 file is written with ``mrt_synth`` into a temporary directory,
one record at a time so the writer holds little. Then ``parse_mrt_rib`` reads
it and ``build_lpm`` indexes the snapshot, and one JSON line reports the wall
seconds of each step and the process's peak RSS after each. ``rss_kb_index``
is the current RSS once the snapshot is dropped and only the index is left,
so the size an index keeps while attribution runs shows.

The table: unique v4 /24s and unique v6 /48s (2001::/16 space), no nesting,
in scrambled order. Every prefix has one entry per peer. Each peer's AS_PATH
is its own first hop, one of 1,000 transit ASNs and the prefix's origin;
every third prefix has one peer that names another origin, and one prefix in
a hundred ends in an AS_SET. ORIGIN precedes AS_PATH in every blob and every
other prefix carries a MED, so nearly every peer's attribute blob is distinct.

usage: ribharness.py [v4_prefixes [v6_prefixes [peers]]]   (default 1000000 200000 4)

Timeline mode writes ``snapshots`` such tables a day apart and a record TSV of
time-sorted records (three per snapshot), and runs the ``attribute`` stage
(``cli.cmd_attribute``) over them twice: once as it runs here, where with a
second CPU each snapshot's slice of the records runs in a forked child, and
once with one usable CPU, in process. It reports the wall seconds of each run, the ``decode`` stats of
the first, and peak RSS: this process's after each run and its children's
(``RUSAGE_CHILDREN``).

usage: ribharness.py timeline [snapshots [v4_prefixes [v6_prefixes [peers]]]]   (default 24 1000000 200000 4)
"""

import gc
import io
import json
import os
import resource
import sys
import tempfile
import time
from datetime import datetime, timezone
from ipaddress import ip_address

import mrt_synth as synth
from wikiv6 import cli, forkjobs
from wikiv6.ingest import EditRecord, SiteId, write_records
from wikiv6.ribstore import build_lpm, parse_mrt_rib

TS = 1700000000
DAY = 86_400
ORIGIN_ATTR = synth.origin_igp_attr()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_kb() -> int:
    """Current resident set size (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


def _attrs(i: int, peer: int) -> bytes:
    origin = 1 + (i * 7919) % 60000
    if i % 3 == 0 and peer == 0:
        origin = 60001 + origin
    transit = 100000 + (i * 31 + peer * 977) % 1000
    segments = [(synth.AS_SEQUENCE, [65000 + peer, transit, origin])]
    if i % 100 == 0:
        segments.append((synth.AS_SET, [origin, origin + 1]))
    blob = ORIGIN_ATTR + synth.as_path(segments)
    if i % 2:
        blob += synth.med_attr(i % 1000)
    return blob


def write_table(sink: io.BufferedIOBase, v4: int, v6: int, peers: int, ts: int = TS) -> None:
    sink.write(synth.mrt_record(ts, synth.TABLE_DUMP_V2, synth.PEER_INDEX_TABLE, synth.peer_index_body(peers=peers)))
    for i in range(v4 + v6):
        if i < v4:
            # odd multiplier: a bijection on 24 bits, so every /24 is distinct
            bits, plen, subtype = ((i * 0x9E3779B1) & 0xFFFFFF).to_bytes(3, "big"), 24, synth.RIB_IPV4_UNICAST
        else:
            word = ((i - v4) * 0x9E3779B1) & 0xFFFFFFFF
            bits, plen, subtype = b"\x20\x01" + word.to_bytes(4, "big"), 48, synth.RIB_IPV6_UNICAST
        entries = [synth.rib_entry(peer, ts, _attrs(i, peer)) for peer in range(peers)]
        sink.write(synth.mrt_record(ts, synth.TABLE_DUMP_V2, subtype, synth.rib_unicast_body(i, bits, plen, entries)))


def _attribute_s(cfg: cli.PipelineConfig, cpus: int) -> float:
    """Wall seconds of the attribute stage with `cpus` usable CPUs."""
    usable = forkjobs._usable_cpus
    forkjobs._usable_cpus = lambda: cpus
    try:
        start = time.perf_counter()
        if cli.cmd_attribute(cfg) != cli.EXIT_OK:
            raise SystemExit("ribharness: the attribute stage failed")
        return time.perf_counter() - start
    finally:
        forkjobs._usable_cpus = usable


def timeline(snapshots: int, v4: int, v6: int, peers: int) -> dict:
    site = SiteId.from_code("enwiki")
    ips = [ip_address("0.0.0.1"), ip_address("2001::1"), ip_address("2001:0:1::1")]
    records = [
        EditRecord(datetime.fromtimestamp(TS + i * DAY + j * 3600, timezone.utc), site, ip)
        for i in range(snapshots)
        for j, ip in enumerate(ips)
    ]
    with tempfile.TemporaryDirectory(prefix="ribharness-") as tmp:
        paths = [os.path.join(tmp, f"rib{i:04d}.mrt") for i in range(snapshots)]
        t0 = time.perf_counter()
        for i, path in enumerate(paths):
            with open(path, "wb") as sink:
                write_table(sink, v4, v6, peers, TS + i * DAY)
        records_path = os.path.join(tmp, "records.tsv")
        with open(records_path, "wb") as sink:
            write_records(records, sink)
        write_s = time.perf_counter() - t0
        stats = os.path.join(tmp, "attribute.json")
        cfg = cli.PipelineConfig(ribs=paths, records=records_path, out=os.path.join(tmp, "out"), stats_path=stats)
        children_s = _attribute_s(cfg, forkjobs._usable_cpus())  # first, while this process is small
        with open(stats) as fh:
            decode = json.load(fh)["decode"]
        rss_children_run = _maxrss_kb()
        in_process_s = _attribute_s(cfg, 1)
    return {
        "mode": "timeline",
        "snapshots": snapshots,
        "v4_prefixes": v4,
        "v6_prefixes": v6,
        "peers": peers,
        "records": len(records),
        "write_s": round(write_s, 3),
        "attribute_children_s": round(children_s, 3),
        "attribute_in_process_s": round(in_process_s, 3),
        "decode": decode,
        "maxrss_kb_after_children_run": rss_children_run,
        "maxrss_kb_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "maxrss_kb": _maxrss_kb(),
    }


def main() -> None:
    if sys.argv[1:2] == ["timeline"]:
        args = [int(a) for a in sys.argv[2:]]
        snapshots, v4, v6, peers = args + [24, 1_000_000, 200_000, 4][len(args) :]
        print(json.dumps(timeline(snapshots, v4, v6, peers)))
        return
    v4 = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    v6 = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000
    peers = int(sys.argv[3]) if len(sys.argv) > 3 else 4
    with tempfile.TemporaryDirectory(prefix="ribharness-") as tmp:
        path = os.path.join(tmp, "rib.mrt")
        t0 = time.perf_counter()
        with open(path, "wb") as sink:
            write_table(sink, v4, v6, peers)
        write_s = time.perf_counter() - t0
        file_bytes = os.path.getsize(path)
        rss_before = _maxrss_kb()
        t0 = time.perf_counter()
        with open(path, "rb") as fh:
            snapshot = parse_mrt_rib(fh)
        parse_s = time.perf_counter() - t0
    rss_parse = _maxrss_kb()
    t0 = time.perf_counter()
    index = build_lpm(snapshot)  # alive until rss_kb_index is read
    build_s = time.perf_counter() - t0
    routes, malformed = len(snapshot.entries), snapshot.malformed_attributes
    del snapshot
    gc.collect()
    rss_index = _rss_kb()
    print(
        json.dumps(
            {
                "v4_prefixes": v4,
                "v6_prefixes": v6,
                "peers": peers,
                "file_bytes": file_bytes,
                "routes": routes,
                "malformed_attributes": malformed,
                "write_s": round(write_s, 3),
                "parse_s": round(parse_s, 3),
                "build_lpm_s": round(build_s, 3),
                "maxrss_kb_before_parse": rss_before,
                "maxrss_kb_after_parse": rss_parse,
                "maxrss_kb": _maxrss_kb(),
                "rss_kb_index": rss_index,
            }
        )
    )


if __name__ == "__main__":
    main()
