"""Expected stage outputs, computed before timing from the generator's ground truth.

extract: the sorted ``tests/oracles.scan_dump_lines`` rows of every dump.
attribute: each record's origin from a hash-probe LPM over the intended
prefix -> origin map of its nearest snapshot (only the prefix lengths present
are probed, longest first), and its delta to that snapshot.
report: ``tests/oracles.oracle_all_tables`` over the expected attributed rows.
Nothing here imports ``wikiv6``.
"""

from __future__ import annotations

import calendar
from bisect import bisect_left
from dataclasses import dataclass
from ipaddress import ip_address
from pathlib import Path

import oracles

RECORD_HEADER = "timestamp\tsite\tip\n"
ATTRIBUTED_HEADER = "timestamp\tsite\tip\torigin\tdelta_s\n"


@dataclass
class Expected:
    records: str  # records.tsv
    attributed: str  # attributed.tsv
    tables: dict  # table name -> CSV text
    extract_totals: dict  # extract stats "totals"
    attribute_stats: dict  # subset of the attribute stats JSON
    records_count: int
    problems: list  # disagreements between the generator and the oracles


def _epoch(ts_text: str) -> int:
    return calendar.timegm(
        (int(ts_text[0:4]), int(ts_text[5:7]), int(ts_text[8:10]),
         int(ts_text[11:13]), int(ts_text[14:16]), int(ts_text[17:19]))
    )


def _probe_tables(snapshot) -> dict:
    """version -> [(shift, {net: origin})], longest prefix first."""
    out = {4: [], 6: []}
    for (version, plen), table in sorted(snapshot.routes.items(), key=lambda kv: -kv[0][1]):
        out[version].append(((32 if version == 4 else 128) - plen, table))
    return out


def lpm_probe(tables: dict, ip_text: str) -> str:
    addr = ip_address(ip_text)
    value = int(addr)
    for shift, table in tables[addr.version]:
        origin = table.get(value >> shift << shift)
        if origin is not None:
            return origin
    return "unrouted"


def nearest(times: list, t: int) -> int:
    """Index of the capture time closest to t; ties pick the earlier one."""
    i = bisect_left(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return i - 1
    return i - 1 if t - times[i - 1] <= times[i] - t else i


def build(workload) -> Expected:
    problems = []
    scanned = []
    scan_totals: dict = {}
    for path in workload.dumps:
        site = Path(path).name.split("-")[0]
        with open(path, "r", encoding="utf-8") as fh:
            rows, stats = oracles.scan_dump_lines(fh, site)
        scanned += rows
        for key, value in stats.items():
            scan_totals[key] = scan_totals.get(key, 0) + value
    lines = sorted(row + "\n" for row in scanned)
    generated = sorted("\t".join(row) + "\n" for row in workload.rows)
    if lines != generated:
        problems.append("generator rows differ from scan_dump_lines rows")
    if scan_totals != workload.counts:
        problems.append(f"generator counts {workload.counts} differ from scan_dump_lines {scan_totals}")

    times = [s.captured_at for s in workload.snapshots]
    probes = [_probe_tables(s) for s in workload.snapshots]
    attributed = []
    unrouted = 0
    for line in lines:
        ts_text, site, ip_text = line.rstrip("\n").split("\t")
        t = _epoch(ts_text)
        pos = nearest(times, t)
        origin = lpm_probe(probes[pos], ip_text)
        unrouted += origin == "unrouted"
        attributed.append(f"{ts_text}\t{site}\t{ip_text}\t{origin}\t{t - times[pos]}\n")
    attributed_text = ATTRIBUTED_HEADER + "".join(attributed)

    oui_text = Path(workload.oui).read_text(encoding="utf-8")
    hitlist_lines = Path(workload.hitlist).read_text(encoding="utf-8").splitlines(keepends=True)
    tables = oracles.oracle_all_tables(
        attributed_text, oui_text, hitlist_lines, workload.top_k, workload.top_vendors
    )
    return Expected(
        records=RECORD_HEADER + "".join(lines),
        attributed=attributed_text,
        tables=tables,
        extract_totals=dict(workload.counts),
        attribute_stats={"records": len(lines), "unrouted": unrouted},
        records_count=len(lines),
        problems=problems,
    )


def first_difference(actual: str, expected: str) -> str:
    """Short description of the first differing line, for the run log."""
    a = actual.splitlines()
    e = expected.splitlines()
    for i, (x, y) in enumerate(zip(a, e)):
        if x != y:
            return f"line {i + 1}: got {x!r}, expected {y!r}"
    return f"{len(a)} lines, expected {len(e)}"
