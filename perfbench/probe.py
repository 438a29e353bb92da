#!/usr/bin/env python3
"""Direct-call probe pass: per-call latencies, the expat floor and memory per item.

usage: probe.py SPEC_JSON

SPEC_JSON names the workload's dumps, RIB files (in capture order) and the
expected records and attributed TSVs, plus a sample size. Percentiles come from timing direct calls
one at a time on an evenly spaced sample of the workload's own records,
repeated up to MIN_SAMPLES when the workload has fewer; the sample counts are
reported with them. Memory is measured with tracemalloc in
its own pass after all timing, so it inflates no timed figure. Prints one
JSON object.
"""

import json
import sys
import time
import tracemalloc
from xml.parsers import expat

from wikiv6 import analytics, ingest, netaddr, ribstore

CHUNK = 1 << 16
MIN_SAMPLES = 2_000
EXPAT_REPEATS = 3
LOOKUP_SNAPSHOTS = 3  # indexes built for lookup sampling, most-used first


def per_call(fn, args) -> dict:
    clock = time.perf_counter_ns
    times = []
    for arg in args:
        t0 = clock()
        fn(arg)
        times.append(clock() - t0)
    return percentiles(times)


def cycled(items: list) -> list:
    """`items` repeated up to MIN_SAMPLES, so that p99 has at least ten samples beyond it."""
    return (items * -(-MIN_SAMPLES // len(items)))[:max(MIN_SAMPLES, len(items))]


def percentiles(times: list) -> dict:
    """Median and nearest-rank p99 in microseconds, with the sample count."""
    times = sorted(times)
    n = len(times)
    return {
        "us_p50": times[(n - 1) // 2] / 1000,
        "us_p99": times[max(0, -(-99 * n // 100) - 1)] / 1000,
        "samples": n,
    }


def expat_floor_mb_per_s(dumps: list) -> float:
    """Bare pyexpat with no-op handlers over the same bytes, median of EXPAT_REPEATS passes."""

    def noop(*args):
        pass

    rates = []
    for _ in range(EXPAT_REPEATS):
        total = 0
        start = time.perf_counter()
        for path in dumps:
            parser = expat.ParserCreate()
            parser.buffer_text = True
            parser.StartElementHandler = noop
            parser.EndElementHandler = noop
            parser.CharacterDataHandler = noop
            with open(path, "rb") as fh:
                while True:
                    chunk = fh.read(CHUNK)
                    total += len(chunk)
                    parser.Parse(chunk, not chunk)
                    if not chunk:
                        break
        rates.append(total / 1e6 / (time.perf_counter() - start))
    rates.sort()
    return rates[len(rates) // 2]


def load_snapshot(path: str):
    with open(path, "rb") as fh:
        if fh.read(1) != b"#":
            fh.seek(0)
            return ribstore.parse_mrt_rib(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return ribstore.load_prefix_table(fh)


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(spec["records"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    step = max(1, len(rows) // spec["samples"])
    sample = cycled(rows[::step])
    ts_texts = [r[0] for r in sample]
    ip_texts = [r[2] for r in sample]
    ips = [netaddr.parse_ip(t) for t in ip_texts]

    out = {
        "ingest.expat_floor_mb_per_s": expat_floor_mb_per_s(spec["dumps"]),
        "ingest.parse_timestamp": per_call(ingest.parse_timestamp, ts_texts),
        "netaddr.parse_ip": per_call(netaddr.parse_ip, ip_texts),
        "netaddr.canonical_text": per_call(netaddr.canonical_text, ips),
    }

    # Lookups against the snapshot each sampled record is attributed to.
    timeline = ribstore.RibTimeline.from_files(spec["ribs"])
    by_position: dict = {}
    for ts_text, ip in zip(ts_texts, ips):
        pos = timeline.nearest_position(ingest.parse_timestamp(ts_text))
        by_position.setdefault(pos, []).append(ip)
    busiest = sorted(by_position, key=lambda p: -len(by_position[p]))[:LOOKUP_SNAPSHOTS]
    pairs = [(timeline.entries[pos].index().lookup, ip) for pos in busiest for ip in by_position[pos]]
    pairs = cycled(pairs)
    clock = time.perf_counter_ns
    times = []
    for lookup, ip in pairs:
        t0 = clock()
        lookup(ip)
        times.append(clock() - t0)
    out["ribstore.lookup"] = percentiles(times)

    # Memory pass: bytes retained by one snapshot's index and by the aggregate.
    snapshot = load_snapshot(spec["ribs"][busiest[0]])
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    index = ribstore.build_lpm(snapshot)
    out["ribstore.build_lpm.bytes_per_prefix"] = (tracemalloc.get_traced_memory()[0] - before) / len(snapshot.entries)
    del index
    before = tracemalloc.get_traced_memory()[0]
    with open(spec["attributed"], encoding="utf-8") as fh:
        agg = analytics.aggregate(ribstore.read_attributed(fh))
    out["analytics.aggregate.bytes_per_record"] = (tracemalloc.get_traced_memory()[0] - before) / len(rows)
    del agg
    tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
