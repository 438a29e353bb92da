"""Traced run, parent side: span files and the probe pass -> per-layer metrics.

``X.s`` is the total time of spans named X; ``X.self_s`` subtracts the time of
their child spans. Each span-derived figure is the median over the traced
iterations of one run. ``trace.<stage>.unaccounted_fraction`` is the share of
a traced stage's wall time (from the start of ``trace_stage.py`` to the end of
``cli.main``) that no top-level span covers: interpreter imports, argument
parsing and CLI glue. ``trace.overhead_fraction`` compares the median traced
and untraced ``pipeline_s`` of the same run.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path

STAGE_NAMES = ("extract", "attribute", "report")
PROBE_SAMPLES = 20_000


def summarize(doc: dict) -> dict:
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive: dict = {}
    own: dict = {}
    roots = 0.0
    for i, (name, start, end, parent, _run) in enumerate(spans):
        duration = end - start
        inclusive[name] = inclusive.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child[i]
        if parent < 0:
            roots += duration
    return {
        "inclusive": inclusive,
        "self": own,
        "counts": doc["counts"],
        "unaccounted": 1 - roots / doc["wall_s"],
        "snapshots_used": doc["snapshots_used"],
        "table_builders": doc["table_builders"],
    }


def span_files(workdir: Path, n: int) -> list:
    return [workdir / f"spans-{stage}-{n}.json" for stage in STAGE_NAMES]


def load_iteration(workdir: Path, n: int) -> dict:
    out = {}
    for stage, path in zip(STAGE_NAMES, span_files(workdir, n)):
        with open(path, encoding="utf-8") as fh:
            out[stage] = summarize(json.load(fh))
    return out


def keep(workdir: Path, n: int, dest: Path) -> None:
    """Copy one traced iteration's raw spans out of the (deleted) work dir."""
    dest.mkdir(parents=True, exist_ok=True)
    for path in span_files(workdir, n):
        shutil.copyfile(path, dest / path.name.replace(f"-{n}.json", ".json"))


def probe(pipeline) -> dict:
    bench, workdir = pipeline.bench, pipeline.bench.workdir
    (workdir / "expected-records.tsv").write_text(pipeline.e.records, encoding="utf-8")
    (workdir / "expected-attributed.tsv").write_text(pipeline.e.attributed, encoding="utf-8")
    spec = {
        "dumps": pipeline.w.dumps,
        "ribs": [s.path for s in pipeline.w.snapshots],
        "records": str(workdir / "expected-records.tsv"),
        "attributed": str(workdir / "expected-attributed.tsv"),
        "samples": PROBE_SAMPLES,
    }
    (workdir / "probe.json").write_text(json.dumps(spec), encoding="utf-8")
    code, _wall, _rss = bench.spawn([str(Path(__file__).parent / "probe.py"), str(workdir / "probe.json")], "probe",
                                    hashseed=0)
    text = (workdir / "probe.out").read_text(encoding="utf-8")
    if not bench.check(code == 0, f"probe pass exited {code} (see probe.err)"):
        return {}
    return json.loads(text)


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds else 0.0


def _iteration(stages: dict, dump_mb: float) -> dict:
    inc: dict = {}
    own: dict = {}
    cnt: dict = {}
    for summary in stages.values():
        for src, dst in ((summary["inclusive"], inc), (summary["self"], own), (summary["counts"], cnt)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value

    def s(name):
        return inc.get(name, 0.0)

    def self_s(name):
        return own.get(name, 0.0)

    loads = cnt.get("ribstore.snapshot_loads", 0)
    used = stages["attribute"]["snapshots_used"]
    m = {
        "ingest.parse_dump_stream.self_s": self_s("ingest.parse_dump_stream"),
        "ingest.parse_dump_stream.mb_per_s": _rate(dump_mb, s("ingest.parse_dump_stream")),
        "ingest.write_records.self_s": self_s("ingest.write_records"),
        "ingest.read_records.self_s": self_s("ingest.read_records"),
        "ingest.revisions": cnt.get("ingest.revisions", 0),
        "ingest.records": cnt.get("ingest.parse_dump_stream.items", 0),
        "netaddr.load_oui_database.s": s("netaddr.load_oui_database"),
        "ribstore.from_files.s": s("ribstore.from_files"),
        "ribstore.parse_mrt_rib.s": s("ribstore.parse_mrt_rib"),
        "ribstore.parse_mrt_rib.prefixes_per_s": _rate(cnt.get("ribstore.parse_mrt_rib.prefixes", 0),
                                                       s("ribstore.parse_mrt_rib")),
        "ribstore.load_prefix_table.s": s("ribstore.load_prefix_table"),
        "ribstore.build_lpm.s": s("ribstore.build_lpm"),
        "ribstore.build_lpm.prefixes_per_s": _rate(cnt.get("ribstore.build_lpm.prefixes", 0), s("ribstore.build_lpm")),
        "ribstore.attribute.self_s": self_s("ribstore.attribute"),
        "ribstore.snapshot_loads": loads,
        "ribstore.snapshots_used": used,
        "ribstore.loads_per_snapshot_used": _rate(loads, used),
        "ribstore.write_attributed.self_s": self_s("ribstore.write_attributed"),
        "ribstore.read_attributed.self_s": self_s("ribstore.read_attributed"),
        "analytics.aggregate.self_s": self_s("analytics.aggregate"),
        "analytics.aggregate.records_per_s": _rate(cnt.get("ribstore.read_attributed.items", 0),
                                                   self_s("analytics.aggregate")),
        "analytics.render.s": s("analytics.render"),
        "cli.external_sort_lines.s": s("cli.external_sort_lines"),
        "cli.write_manifest.s": s("cli.write_manifest"),
        "cli.resolve_config.s": s("cli.resolve_config"),
    }
    for table, builder in stages["report"]["table_builders"].items():
        m[f"analytics.table.{table}.s"] = s(f"analytics.table.{builder}")
    for stage in STAGE_NAMES:
        m[f"trace.{stage}.unaccounted_fraction"] = stages[stage]["unaccounted"]
    return m


def per_layer(untraced_s: list, traced_s: list, summaries: list, probed: dict, pipeline) -> dict:
    """{metric name: value}; `untraced_s`, `traced_s`: pipeline_s of the untraced and traced iterations."""
    dump_mb = pipeline.w.dump_bytes / 1e6
    per_iteration = [_iteration(stages, dump_mb) for stages in summaries]
    values = {name: statistics.median(it[name] for it in per_iteration) for name in per_iteration[0]}
    for name, value in probed.items():
        if isinstance(value, dict):
            for key, v in value.items():
                values[f"{name}.{key}"] = v
        else:
            values[name] = value
    values["trace.overhead_fraction"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    return values
