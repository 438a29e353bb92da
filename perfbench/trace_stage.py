#!/usr/bin/env python3
"""Run one wikiv6 CLI stage with spans recorded around the public calls it makes.

usage: trace_stage.py SPANS_JSON RUN_ID <wikiv6 CLI arguments>

The names the CLI module imported from ``ingest``, ``netaddr``, ``ribstore``
and ``analytics`` are replaced by timing wrappers, so the real ``cli.main``
runs unchanged. Generator chains are timed per ``next()``: each pull is its
own span, so ``write_records`` gets a self time separate from
``parse_dump_stream``. Snapshot loads go through a timed loader passed to the
public ``TimelineEntry`` constructor. Spans (name, start, end, parent index,
run id) and counts stay in memory until the stage ends, then are written to
SPANS_JSON together with the stage's wall time since this script started.
"""

import time

WALL_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from wikiv6 import analytics, cli, ribstore  # noqa: E402

# Report table -> the builder whose span times it. One table_eui64_weekly call
# builds both EUI-64 tables, so each of them reports that call's time.
TABLE_BUILDERS = {
    name: "eui64_weekly" if name == "eui64_fraction" else name for name in analytics.TABLE_NAMES
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.loaded: set = set()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.run_id])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn):
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return timed

    def pulls(self, name: str, fn):
        """Wrap a generator function so that every next() is one span."""

        def timed(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self.count(name + ".items")
                yield item

        return timed


def install(tracer: Tracer) -> None:
    """Replace the CLI's imported names (and ribstore.build_lpm) with timing wrappers."""
    pull_records = tracer.pulls("ingest.parse_dump_stream", cli.parse_dump_stream)

    def parse_dump_stream(xml, site, namespaces=None, stats=None):
        stats = stats if stats is not None else cli.ParseStats()
        yield from pull_records(xml, site, namespaces, stats)
        tracer.count("ingest.revisions", stats.revisions)

    cli.parse_dump_stream = parse_dump_stream
    cli.write_records = tracer.call("ingest.write_records", cli.write_records)
    cli.read_records = tracer.pulls("ingest.read_records", cli.read_records)
    cli.external_sort_lines = tracer.call("cli.external_sort_lines", cli.external_sort_lines)
    cli.write_manifest = tracer.call("cli.write_manifest", cli.write_manifest)
    cli.resolve_config = tracer.call("cli.resolve_config", cli.resolve_config)
    cli.load_oui_database = tracer.call("netaddr.load_oui_database", cli.load_oui_database)
    cli.attribute = tracer.pulls("ribstore.attribute", cli.attribute)
    cli.write_attributed = tracer.call("ribstore.write_attributed", cli.write_attributed)
    cli.read_attributed = tracer.pulls("ribstore.read_attributed", cli.read_attributed)
    cli.aggregate = tracer.call("analytics.aggregate", cli.aggregate)
    cli.read_hitlist = tracer.call("analytics.read_hitlist", cli.read_hitlist)
    for name in set(TABLE_BUILDERS.values()):
        attr = f"table_{name}"
        setattr(cli, attr, tracer.call(f"analytics.table.{name}", getattr(cli, attr)))
    analytics.ReportTable.to_csv = tracer.call("analytics.render", analytics.ReportTable.to_csv)
    analytics.ReportTable.to_json = tracer.call("analytics.render", analytics.ReportTable.to_json)

    build_lpm = ribstore.build_lpm

    def counted_build(snapshot):
        tracer.count("ribstore.build_lpm.prefixes", len(snapshot.entries))
        return build_lpm(snapshot)

    # TimelineEntry.index() looks build_lpm up in the ribstore module.
    ribstore.build_lpm = tracer.call("ribstore.build_lpm", counted_build)

    load_prefix_table = tracer.call("ribstore.load_prefix_table", ribstore.load_prefix_table)
    parse_mrt_rib = tracer.call("ribstore.parse_mrt_rib", ribstore.parse_mrt_rib)

    def loader(path: str):
        def load():
            tracer.count("ribstore.snapshot_loads")
            tracer.loaded.add(path)
            with open(path, "rb") as fh:
                if fh.read(1) != b"#":
                    fh.seek(0)
                    snapshot = parse_mrt_rib(fh)
                    tracer.count("ribstore.parse_mrt_rib.prefixes", len(snapshot.entries))
                    return snapshot
            with open(path, "r", encoding="utf-8") as fh:
                return load_prefix_table(fh)

        return load

    class TracedTimeline:
        @staticmethod
        def from_files(paths):
            paths = list(paths)
            index = tracer.begin("ribstore.from_files")
            ribstore.RibTimeline.from_files(paths)
            tracer.end(index)
            # Rebuild the same timeline with timed loaders (outside the span).
            return ribstore.RibTimeline([
                ribstore.TimelineEntry(ribstore.RibTimeline.from_files([p]).entries[0].captured_at, loader(p))
                for p in paths
            ])

    cli.RibTimeline = TracedTimeline


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    install(tracer)
    code = cli.main(argv)
    wall = time.perf_counter() - WALL_START
    doc = {
        "run_id": run_id,
        "exit": code,
        "wall_s": wall,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "snapshots_used": len(tracer.loaded),
        "table_builders": TABLE_BUILDERS,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
