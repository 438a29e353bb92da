"""Operator CLI: extract -> attribute -> report, with plain files between stages.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 usage or
configuration error. Every run writes a manifest capturing the configuration
and input digests; equal manifests imply byte-identical outputs.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import hashlib
import heapq
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
from bisect import bisect_left
from contextlib import ExitStack, closing, suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from . import __version__
from .ingest import (
    BadRow,
    ParseStats,
    RECORD_HEADER,
    SiteId,
    StreamMalformed,
    parse_dump_stream,
    read_records,
    write_records,
)
from .netaddr import EMPTY_OUI_DATABASE, BadCsv, OuiDatabase, load_oui_database

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

MERGED_RECORDS = "records.tsv"
DUMP_RECORDS = ".records.tsv"  # extract's per-dump TSV is the dump's stem + this
ATTRIBUTED_RECORDS = "attributed.tsv"
MANIFEST = "manifest.json"


# The names taken from the modules that only some stages run, as fnmatch patterns.
# ``_bind`` binds them here when a stage first uses their module, or when one is
# read from outside (a tracer reads them to wrap them), so that extract never
# compiles ``ribstore`` and only report compiles ``analytics``.
_BOUND_ON_USE = {
    "ribstore": ("ATTRIBUTED_HEADER", "BadPrefixTable", "MissingPeerIndex", "RibTimeline", "TruncatedRecord",
                 "UnsortedInput", "attribute", "read_attributed", "write_attributed"),
    "analytics": ("TABLE_NAMES", "aggregate", "cumulative_by_week", "read_hitlist", "table_*"),
}


def _bind(*modules: str) -> None:
    """Import each of `modules` and bind its names of ``_BOUND_ON_USE`` here; a
    name already bound (replaced by a tracer, say) is kept."""
    bound = globals()
    for module in modules:
        home = importlib.import_module(f".{module}", __package__)
        for pattern in _BOUND_ON_USE[module]:
            for name in fnmatch.filter(vars(home), pattern) if "*" in pattern else [pattern]:
                bound.setdefault(name, getattr(home, name))


def __getattr__(name: str):
    for module, patterns in _BOUND_ON_USE.items():
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns):
            _bind(module)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    pass


@dataclass
class PipelineConfig:
    dumps: list[str] = field(default_factory=list)
    ribs: list[str] = field(default_factory=list)
    oui: Optional[str] = None
    hitlist: Optional[str] = None
    out: str = "out"
    records: Optional[str] = None
    attributed: Optional[str] = None
    top_k: int = 5
    top_vendors: int = 8
    namespaces: Optional[list[int]] = None
    site_overrides: dict[str, str] = field(default_factory=dict)
    keep_going: bool = False
    stats_path: Optional[str] = None

    def as_dict(self) -> dict:
        """The manifest's config: each field but keep_going and stats_path, TSV paths resolved."""
        config = {**asdict(self), "records": self.records_path(), "attributed": self.attributed_path(),
                  "site_overrides": dict(sorted(self.site_overrides.items()))}
        del config["keep_going"], config["stats_path"]
        return config

    def records_path(self) -> str:
        return self.records or str(Path(self.out) / MERGED_RECORDS)

    def attributed_path(self) -> str:
        return self.attributed or str(Path(self.out) / ATTRIBUTED_RECORDS)


def parse_namespaces(text: str) -> list[int]:
    try:
        namespaces = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad namespace list {text!r}: {exc}") from None
    if not namespaces:  # it would keep no revision
        raise ConfigError(f"bad namespace list {text!r}: it names no namespace")
    return namespaces


def load_config(path: str) -> PipelineConfig:
    """Read the flat key=value config; repeated dump/rib keys accumulate."""
    cfg = PipelineConfig()
    try:
        data = Path(path).read_bytes()
        lines = data.decode("utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # the line is the one splitlines would give the byte
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in ("dump", "rib"):
            getattr(cfg, f"{key}s").append(value)
        elif key in ("oui", "hitlist", "out", "records", "attributed"):
            setattr(cfg, key, value)
        elif key in ("top_k", "top_vendors", "namespaces"):
            try:
                setattr(cfg, key, parse_namespaces(value) if key == "namespaces" else int(value))
                if key != "namespaces" and getattr(cfg, key) < 0:
                    raise ValueError("must be >= 0")
            except (ConfigError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
        elif key.startswith("site."):
            cfg.site_overrides[key[len("site.") :]] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return cfg


def validate_config(cfg: PipelineConfig, outputs: Sequence[str] = ()) -> None:
    """Raise ConfigError where a stage cannot run `cfg`; `outputs` are the names the
    stage commits to the output directory besides the record TSVs and the manifest."""
    if cfg.top_k < 0 or cfg.top_vendors < 0:
        raise ConfigError("top_k and top_vendors must be >= 0")
    inputs = [path for path in [*cfg.dumps, *cfg.ribs, cfg.oui, cfg.hitlist] if path is not None]
    for path in inputs:
        if not Path(path).exists():
            raise ConfigError(f"configured path does not exist: {path}")
    # Checked here, not after all the stage's work: the commit writes the stats, then
    # renames them, the outputs in order and the manifest, so stats over an input or
    # an output would replace it. Their directory may be the output directory, which
    # the stage creates.
    if cfg.stats_path is not None:
        stats, out = Path(cfg.stats_path).resolve(), Path(cfg.out).resolve()
        if stats.is_dir() or stats == out or not (stats.parent.is_dir() or stats.parent == out):
            raise ConfigError(f"--stats must name a file in an existing directory: {cfg.stats_path}")
        taken = [*inputs, cfg.records_path(), cfg.attributed_path(), *(out / name for name in (MANIFEST, *outputs))]
        if stats in {Path(path).resolve() for path in taken}:
            raise ConfigError(f"--stats names an input or an output of the stage: {cfg.stats_path}")


def infer_site(path: str, overrides: dict[str, str]) -> SiteId:
    """Site id from the filename stem up to the first dash, unless overridden."""
    name = Path(path).name
    if name in overrides:
        return SiteId.from_code(overrides[name])
    stem = name.split("-")[0].split(".")[0]
    return SiteId.from_code(stem)


def _sha256(path: str) -> str:
    # FIFOs/devices can be piped in as inputs; re-reading them would block.
    if not Path(path).is_file():
        return "unhashed:not-a-regular-file"
    with open(path, "rb") as fh:
        return _DigestReader(fh).digest_to_end()


class _DigestReader(io.BufferedIOBase):
    """A binary reader that hashes what passes through it, so a parsed input
    needs no second read for its manifest digest. A ``TextIOWrapper`` can read
    through it; detach the wrapper, as closing it closes no file."""

    def __init__(self, raw):
        self._raw = raw
        self._sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def read(self, size: Optional[int] = -1) -> bytes:
        data = self._raw.read(size)
        self._sha.update(data)
        return data

    read1 = read

    def digest_to_end(self) -> str:
        """Hash whatever is left unread, then return the manifest digest."""
        # In 64 KiB reads: a 1 MiB buffer, taken at the end of a stage, raised its peak RSS by as much.
        while self.read(1 << 16):
            pass
        return "sha256:" + self._sha.hexdigest()


class StageFailed(Exception):
    """The stderr line that ends a stage run, which `main` prints, and the run's exit code."""

    def __init__(self, line: str, code: int = EXIT_RUNTIME) -> None:
        super().__init__(line)
        self.code = code


class _Outputs:
    """Every file one run of a stage writes; its outputs appear together or not at all.

    The stage registers each job part with `part` and each output with `add`;
    both return the path to write, the registered path + ".tmp". `commit` writes
    the stats and the manifest to their own .tmp, then renames the stats, each
    output in the order added, and the manifest last. Leaving the run removes
    every registered .tmp left over, so a run that ends without a commit (an
    error, an early return, Ctrl-C) commits nothing, and one that commits keeps
    only what it committed; one cut short among the renames leaves each file
    whole, old or new, and the earlier manifest.
    """

    def __init__(self, cfg: PipelineConfig, command: str) -> None:
        self._cfg = cfg
        self._command = command
        self._outputs: list[str] = []
        self._tmps: list[str] = []

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, *exc) -> None:
        for tmp in self._tmps:
            with suppress(OSError):
                os.unlink(tmp)

    def part(self, path) -> str:
        """Register `path` as a file the run writes, such as a job's part; returns
        the .tmp path to write it to. Only what `add` registers is committed."""
        self._tmps.append(f"{path}.tmp")
        return self._tmps[-1]

    def add(self, path) -> str:
        """Register `path` as the next output; returns the .tmp path to write it to."""
        self._outputs.append(str(path))
        return self.part(path)

    def write(self, path, text: str) -> None:
        Path(self.add(path)).write_text(text, encoding="utf-8")

    def commit(self, stats: dict, inputs: Sequence[str], digests: dict[str, Optional[str]]) -> None:
        cfg = self._cfg
        names = [Path(path).name for path in self._outputs]
        if cfg.stats_path:
            self._outputs.insert(0, cfg.stats_path)
        _write_stats(self.part(cfg.stats_path) if cfg.stats_path else None, stats)
        write_manifest(self.add(Path(cfg.out) / MANIFEST), cfg, self._command, inputs, names, digests)
        for path in self._outputs:
            os.replace(f"{path}.tmp", path)


def write_manifest(
    path: str,
    cfg: PipelineConfig,
    command: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    digests: dict[str, Optional[str]],
) -> None:
    """Write the manifest to `path`, the .tmp that `_Outputs.commit` renames
    into place; `digests` holds input digests already computed while reading."""
    manifest = {
        "tool": "wikiv6",
        "version": __version__,
        "command": command,
        "config": cfg.as_dict(),
        "inputs": {source: digests.get(source) or _sha256(source) for source in sorted(set(inputs))},
        "outputs": sorted(outputs),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def external_sort_lines(sources: Sequence[str], sink_path: str, header: str, chunk_lines: int = 500_000) -> int:
    """Merge-sort data lines from `sources` into `sink_path`, bounded memory.

    Full chunks spill to temp files, which are removed however the sort ends.
    The merge is written straight to `sink_path`, a stage's .tmp output, which
    a sort that fails leaves partly written for its caller to remove.
    """
    spills: list[str] = []
    chunk: list[str] = []
    total = 0
    try:
        for source in sources:
            with open(source, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh):
                    if lineno == 0 and line.rstrip("\n") == header:
                        continue
                    if not line.endswith("\n"):
                        line += "\n"
                    chunk.append(line)
                    total += 1
                    if len(chunk) >= chunk_lines:
                        chunk.sort()
                        fd, name = tempfile.mkstemp(prefix="wikiv6-sort-", suffix=".tmp")
                        spills.append(name)
                        with os.fdopen(fd, "w", encoding="utf-8") as tmp:
                            tmp.writelines(chunk)
                        chunk.clear()
        chunk.sort()
        with ExitStack() as stack:
            readers = [stack.enter_context(open(name, "r", encoding="utf-8")) for name in spills]
            sink = stack.enter_context(open(sink_path, "w", encoding="utf-8"))
            sink.write(header + "\n")
            sink.writelines(heapq.merge(*readers, chunk))
    finally:
        for name in spills:
            try:
                os.unlink(name)
            except OSError:
                pass
    return total


# Below these many bytes of input a stage's work stays in process, where it costs
# less than children do, as measured on a shared 2-vCPU host.
# Dumps parse at about 78 ms per MB in process and 45 with two children, which
# cost about 16 ms more to start: even near 1.8 MB.
_PARSE_MIN_BYTES = 2 << 20
# The OUI CSV loads at about 22 ms per MB plus 5 ms; a child costs the parent
# about 12 ms (fork, reap, copy-on-write faults while it aggregates) plus 4 ms
# per MB to take its result: even near 0.4 MB.
_LOAD_MIN_BYTES = 512 << 10
# Attribute's record TSV plus snapshot files: slicing them over two children
# lost 17-19 ms at 250-330 KB and 7 ms at 500 KB, and won 12-13 ms at 660-830 KB.
_SLICE_MIN_BYTES = 512 << 10

# The workers block of a stage's stats when it forks no child, as forkjobs.WorkerStats writes it.
_NO_WORKERS = {"children_started": 0, "blocked_s": 0.0, "children_cpu_s": 0.0}

# The names a forked child calls, by home module. A tracer replaces them here to
# time them, and the spans it would record in a child are lost, so while any of
# them is replaced every stage stays in process.
_CHILD_CALLS = (
    ("ingest", "parse_dump_stream"),
    ("ingest", "write_records"),
    ("ingest", "read_records"),
    ("ribstore", "attribute"),
    ("ribstore", "write_attributed"),
    ("ribstore", "RibTimeline"),
    ("netaddr", "load_oui_database"),
    ("analytics", "read_hitlist"),
)


def _forked_jobs(run, paths: Sequence[str], min_bytes: int):
    """A ``forkjobs.ForkedJobs`` that runs `run` in forked children, or None
    where the work stays in process: a name of ``_CHILD_CALLS`` is replaced, the
    regular files among `paths` hold fewer than `min_bytes`, or no child can be
    forked. ``forkjobs`` is imported only above the floor, so that runs under it
    never compile it, and ``ribstore`` and ``analytics`` never: a name of theirs
    not yet bound here counts as unpatched."""
    bound = globals()
    for home, name in _CHILD_CALLS:
        if name in bound and bound[name] is not getattr(sys.modules.get(f"{__package__}.{home}"), name, None):
            return None
    if sum(os.path.getsize(p) for p in paths if os.path.isfile(p)) < min_bytes:
        return None
    from .forkjobs import ForkedJobs, fork_workers

    workers = fork_workers()
    return ForkedJobs(run, workers) if workers else None


def _parse_dump(cfg: PipelineConfig, dump: str, site: SiteId, part: str) -> tuple:
    """Parse `dump` into `part`, a .tmp path of the run's `_Outputs`.

    Returns ``("ok", stats, digest)`` or ``("failed", the stage's stderr line,
    digest)``, marshal-able so that a forked child can send it back; the digest
    is None where the dump was not hashed to its end.
    """
    stats = ParseStats()

    def parse(xml) -> Optional[StreamMalformed]:
        # With keep_going the dump is still hashed to its end, so the error is returned.
        try:
            with open(part, "wb") as sink:
                write_records(parse_dump_stream(xml, site, namespaces=cfg.namespaces, stats=stats), sink)
        except StreamMalformed as exc:
            if not cfg.keep_going:
                raise
            return exc
        return None

    try:
        error, digest = _read_hashed(dump, parse)
    except (StreamMalformed, OSError) as exc:
        error, digest = exc, None
    return ("ok", stats.as_dict(), digest) if error is None else ("failed", f"extract: {dump}: {error}", digest)


def _job_outcomes(jobs, count: int, run, lost, keep_going=False, meanwhile=None) -> Iterator:
    """The outcome ``run(k)`` of each job k below `count`, in job order.

    Every stage's jobs run through here. An outcome is ``("ok", ...)`` or
    ``("failed", the stage's stderr line, ...)``. A child that ends without a
    result stops the run, and so does a failed job unless `keep_going`: no later
    job starts, the children running later jobs are killed, and once the
    outcomes before it are yielded, StageFailed is raised with the job's line,
    ``lost(k, ChildLost)`` for a lost child. No file is touched here: the
    stage's `_Outputs` removes what the jobs wrote.

    With `jobs`, a ``forkjobs.ForkedJobs`` whose job k is ``run(k)``, jobs run in
    forked children and the parent takes whichever result comes first, so that
    no child idles while an earlier job is still running; a job no child could
    be forked for runs in process, as every job does without `jobs`.
    `meanwhile`, if given, runs once: before the parent first waits for a child,
    or after the first job run in process. However the caller stops, every child
    is reaped.
    """
    if jobs is not None:
        from .forkjobs import ChildLost

    running = {} if jobs is None else jobs.running
    done: dict = {}  # job -> its outcome, or the StageFailed that ends the run
    upcoming = 0  # the first job not started
    last = count  # no job from here on starts
    i = 0
    try:
        while i < last:
            while i not in done:
                while jobs is not None and upcoming < last and jobs.can_start() and jobs.start(upcoming):
                    upcoming += 1
                if i not in running:  # in process, or no child could be forked
                    j = i
                    upcoming = max(upcoming, i + 1)
                    done[j] = run(j)
                if meanwhile is not None:
                    meanwhile()
                    meanwhile = None
                if i in running:
                    j = jobs.ready()
                    try:
                        # A child with no job left to start is reaped at once.
                        done[j] = jobs.result(j, keep=upcoming < last)
                    except ChildLost as exc:
                        done[j] = ("lost", lost(j, exc))
                if done[j][0] == "lost" or (done[j][0] == "failed" and not keep_going):
                    done[j] = StageFailed(done[j][1])
                    last = min(last, j + 1)
                    for k in [k for k in running if k > j]:
                        jobs.cancel(k)
            outcome = done.pop(i)
            if isinstance(outcome, StageFailed):
                raise outcome
            yield outcome
            i += 1
    finally:
        if jobs is not None:
            jobs.close()


def cmd_extract(cfg: PipelineConfig) -> int:
    if not cfg.dumps:
        raise StageFailed("extract: no inputs (configure 'dump =' lines or pass dump paths)", EXIT_USAGE)
    outdir = Path(cfg.out)
    plans: list[tuple[str, SiteId, str]] = []
    writers: dict[str, str] = {}  # per-dump output name -> the dump it is written for
    for dump in cfg.dumps:
        name = Path(dump).stem + DUMP_RECORDS
        try:
            site = infer_site(dump, cfg.site_overrides)
        except ValueError as exc:
            raise StageFailed(f"extract: {dump}: {exc}", EXIT_USAGE) from None
        if name in writers:
            line = f"extract: {dump}: its records would overwrite {name}, written for {writers[name]}"
            raise StageFailed(line, EXIT_USAGE)
        writers[name] = dump
        plans.append((dump, site, str(outdir / name)))
    outdir.mkdir(parents=True, exist_ok=True)

    def run(i: int) -> tuple:
        dump, site, _ = plans[i]
        return _parse_dump(cfg, dump, site, parts[i])

    # Dump i is job i, written to parts[i]; each part that parses is an output,
    # in config order, and the merge reads the parts before they are committed.
    jobs = _forked_jobs(run, cfg.dumps, _PARSE_MIN_BYTES) if len(plans) > 1 else None
    outcomes = _job_outcomes(
        jobs, len(plans), run, lambda i, exc: f"extract: {plans[i][0]}: parse {exc}", cfg.keep_going
    )
    per_file: dict[str, dict] = {}
    digests: dict[str, Optional[str]] = {}
    merged: list[str] = []
    with _Outputs(cfg, "extract") as outputs, closing(outcomes):
        parts = [outputs.part(out_path) for _, _, out_path in plans]
        for i, (kind, detail, digest) in enumerate(outcomes):
            dump, _, out_path = plans[i]
            digests[dump] = digest
            if kind == "failed":  # with keep_going
                print(detail, file=sys.stderr)
                continue
            per_file[Path(dump).name] = detail
            merged.append(outputs.add(out_path))
        if not per_file:  # with keep_going, every dump failed: commit nothing
            return EXIT_RUNTIME

        external_sort_lines(merged, outputs.add(cfg.records_path()), RECORD_HEADER)
        totals: dict[str, int] = {}
        for stats_dict in per_file.values():
            for key, value in stats_dict.items():
                totals[key] = totals.get(key, 0) + value
        workers = _NO_WORKERS if jobs is None else jobs.stats.as_dict()
        outputs.commit(
            {"files": per_file, "totals": totals, "workers": workers},
            inputs=[d for d in cfg.dumps if Path(d).exists()],
            digests=digests,
        )
    return EXIT_OK if len(merged) == len(plans) else EXIT_RUNTIME


def _write_stats(path: Optional[str], payload: dict) -> None:
    """Write the stats JSON to `path`, the .tmp of the --stats path that
    `_Outputs.commit` renames into place, or to stderr where `path` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stderr.write(text)


# The |delta| buckets of the attribute stats, and the inclusive upper bounds of all but the last.
_DELTA_BUCKETS = ("le_1h", "le_1d", "le_30d", "gt_30d")
_DELTA_BOUNDS = (3600, 86_400, 30 * 86_400)


def _delta_buckets(counts: dict[int, int]) -> dict[str, int]:
    """Records per |delta| bucket; each record is counted in one bucket."""
    totals = [0] * len(_DELTA_BUCKETS)
    for delta, n in counts.items():
        totals[bisect_left(_DELTA_BOUNDS, delta)] += n
    return dict(zip(_DELTA_BUCKETS, totals))


def _counter_median(counts: dict[int, int]) -> Optional[int]:
    total = sum(counts.values())
    if not total:
        return None
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen > total // 2:
            return value


class _Tally:
    """Records attributed, those unrouted, and records per |delta| in seconds."""

    __slots__ = ("count", "unrouted", "deltas")

    def __init__(self) -> None:
        self.count = self.unrouted = 0
        self.deltas: dict[int, int] = {}

    def counted(self, records):
        deltas = self.deltas
        count = unrouted = 0
        try:
            for rec in records:
                d = abs(rec.snapshot_delta_s)
                deltas[d] = deltas.get(d, 0) + 1
                count += 1
                if rec.origin.kind == "unrouted":
                    unrouted += 1
                yield rec
        finally:
            self.count += count
            self.unrouted += unrouted


def _attribute_failure(records_path: str, exc: Exception, lines_before: int = 0) -> str:
    """The stderr line that ends the attribute stage on `exc`; a BadRow read
    after `lines_before` lines of `records_path` counts them in its line number."""
    if isinstance(exc, UnsortedInput):
        return f"attribute: {records_path}: {exc}; run extract's merge step first"
    if isinstance(exc, BadRow):
        return f"attribute: {records_path}: line {exc.lineno + lines_before}: {str(exc).partition(': ')[2]}"
    return f"attribute: {exc}"


def _record_lines(path: str, start: int, stop: Optional[int]):
    """The text lines of bytes `start` up to `stop` of `path`, or of the whole
    file, opened once and never sought, where `stop` is None."""
    if stop is None:
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    from .slices import slice_lines

    return slice_lines(path, start, stop)


def _attribute_range(records_path: str, part: str, start: int, stop: Optional[int], timeline) -> tuple:
    """Attribute the records in bytes `start` up to `stop` of `records_path`, or
    the whole file read once from its start where `stop` is None, into `part`,
    a .tmp path of the run's `_Outputs`, in a forked child or in process.

    Returns ``("ok", records, unrouted, |delta| counts, {position: counters
    row})`` or ``("failed", the stage's stderr line)``, marshal-able. The
    timeline's snapshots are unloaded again afterwards, so that the next range a
    child runs starts from none.
    """
    _bind("ribstore")  # it may run as a job without cmd_attribute
    tally = _Tally()
    try:
        with open(part, "w", encoding="utf-8") as sink, _record_lines(records_path, start, stop) as lines:
            write_attributed(tally.counted(attribute(read_records(lines), timeline)), sink)
    except (UnsortedInput, TruncatedRecord, MissingPeerIndex, BadPrefixTable, ValueError, OSError) as exc:
        before = 0
        if isinstance(exc, BadRow) and start:
            from .slices import count_lines

            before = count_lines(records_path, start)
        return ("failed", _attribute_failure(records_path, exc, before))
    finally:
        rows = {pos: e.counters for pos, e in enumerate(timeline.entries) if e.counters is not None}
        for entry in timeline.entries:
            entry.counters = None
            entry.evict()
    return ("ok", tally.count, tally.unrouted, tally.deltas, rows)


def cmd_attribute(cfg: PipelineConfig) -> int:
    _bind("ribstore")
    records_path = cfg.records_path()
    if not Path(records_path).exists():
        raise StageFailed(f"attribute: records TSV not found: {records_path} (run extract first)", EXIT_USAGE)
    if not cfg.ribs:
        raise StageFailed("attribute: empty timeline, configure at least one 'rib =' source", EXIT_USAGE)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        timeline = RibTimeline.from_files(cfg.ribs)
    except (TruncatedRecord, BadPrefixTable, ValueError, OSError) as exc:
        raise StageFailed(_attribute_failure(records_path, exc)) from None

    attributed_path = cfg.attributed_path()
    inputs = [records_path, *cfg.ribs]
    digests: dict[str, str] = {}

    def hash_inputs() -> None:
        # While the children work. An input that cannot be read is hashed again
        # by write_manifest, which then reports it where the in-process run does.
        for path in inputs:
            with suppress(OSError):
                digests[path] = _sha256(path)

    # Snapshot i serves one byte range of the time-sorted records (see slices),
    # and each range is a job. One range, the whole file, runs in process: the
    # records cannot be forked over, are not a regular file (no seek), cannot be
    # sliced, or fall to one snapshot. Range k writes parts[k], handed out below
    # by the run's _Outputs: range 0 writes the output's .tmp itself.
    def run(k: int) -> tuple:
        return _attribute_range(records_path, parts[k], *ranges[k], timeline)

    ranges = jobs = None
    if len(timeline.entries) > 1 and os.path.isfile(records_path):
        jobs = _forked_jobs(run, inputs, _SLICE_MIN_BYTES)
    if jobs is not None:
        from .slices import record_slices

        with suppress(OSError):  # the in-process run reports it
            ranges = record_slices(records_path, timeline.ends)
    if ranges is None or len(ranges) < 2:
        ranges, jobs = [(0, None)], None
    outcomes = _job_outcomes(
        jobs,
        len(ranges),
        run,
        lambda k, exc: f"attribute: {records_path}: the slice from byte {ranges[k][0]} {exc}",
        meanwhile=hash_inputs if jobs is not None else None,
    )
    header = len(ATTRIBUTED_HEADER.encode()) + 1
    count = unrouted = 0
    deltas: dict[int, int] = {}
    rows: dict[int, dict] = {}
    with _Outputs(cfg, "attribute") as outputs, closing(outcomes):
        parts = [outputs.add(attributed_path)]
        parts += [outputs.part(f"{attributed_path}.{k}") for k in range(1, len(ranges))]
        for k, outcome in enumerate(outcomes):
            count += outcome[1]
            unrouted += outcome[2]
            for d, n in outcome[3].items():
                deltas[d] = deltas.get(d, 0) + n
            rows.update(outcome[4])
            if k:  # after range 0's header and rows, skipping this part's header
                with open(parts[k], "rb") as part, open(parts[0], "ab") as sink:
                    part.seek(header)
                    shutil.copyfileobj(part, sink)
                os.unlink(parts[k])  # at once: together the parts are most of the output's size
        summary = {
            "records": count,
            "unrouted": unrouted,
            "unrouted_fraction": (unrouted / count) if count else 0.0,
            "abs_delta_s": {
                "min": min(deltas) if deltas else None,
                "median": _counter_median(deltas),
                "max": max(deltas) if deltas else None,
                "buckets": _delta_buckets(deltas),
            },
            "snapshots": [rows[pos] for pos in sorted(rows)],
            "decode": {
                **(_NO_WORKERS if jobs is None else jobs.stats.as_dict()),
                "snapshots_adopted": 0 if jobs is None else len(rows),
            },
        }
        outputs.commit(summary, inputs, digests)
    return EXIT_OK


def _read_hashed(path: str, load) -> tuple:
    """``(load(stream), digest)`` for `path` opened for binary reading; the
    digest is None where `path` is not a regular file."""
    with open(path, "rb") as raw:
        if not Path(path).is_file():
            return load(raw), None
        reader = _DigestReader(raw)
        return load(reader), reader.digest_to_end()


def _decoded(load):
    """`load` made to read a binary stream decoded as a text-mode open decodes
    it: UTF-8 with surrogateescape, universal newlines. The stream stays open."""

    def read(stream):
        text = io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape")
        try:
            return load(text)
        finally:
            text.detach()  # so that only the caller closes the file

    return read


def _load_side_inputs(cfg: PipelineConfig, oui: bool, hitlist: bool) -> tuple:
    """Load the OUI database if `oui` and the hitlist if `hitlist`, each with its digest.

    Returns ``("ok", oui part, hitlist part)`` or ``("failed", error line)``,
    marshal-able so that a forked child can send it back. The OUI part is
    ``(entries, duplicate_rows, bad_rows, digest)`` and the hitlist part
    ``(rows, skipped rows, digest)``; either is None where not
    asked for. An OUI error is returned before the hitlist is read.
    """
    oui_part = hitlist_part = None
    if oui:
        try:
            db, digest = _read_hashed(cfg.oui, load_oui_database)
        except (BadCsv, OSError) as exc:
            return ("failed", f"report: {cfg.oui}: {exc}")
        oui_part = (db.entries, db.duplicate_rows, db.bad_rows, digest)
    if hitlist:
        try:
            (rows, bad), digest = _read_hashed(cfg.hitlist, _decoded(read_hitlist))
        except OSError as exc:
            return ("failed", f"report: {cfg.hitlist}: {exc}")
        hitlist_part = (rows, bad, digest)
    return ("ok", oui_part, hitlist_part)


def cmd_report(cfg: PipelineConfig, names: Sequence[str]) -> int:
    _bind("ribstore", "analytics")
    requested = list(TABLE_NAMES) if "all" in names else list(dict.fromkeys(names))
    unknown = [n for n in requested if n not in TABLE_NAMES]
    if unknown:
        line = f"report: unknown table name(s) {', '.join(unknown)}; valid names: " + ", ".join(TABLE_NAMES)
        raise StageFailed(line, EXIT_USAGE)

    attributed_path = cfg.attributed_path()
    records_path = cfg.records_path()
    have_attributed = Path(attributed_path).exists()
    if "weekly_by_as" in requested and not have_attributed:
        line = f"report: weekly_by_as needs the attributed TSV ({attributed_path}); run attribute first"
        raise StageFailed(line, EXIT_USAGE)
    if "hitlist_overlap" in requested and not cfg.hitlist:
        raise StageFailed("report: hitlist_overlap needs a configured hitlist path", EXIT_USAGE)
    source = attributed_path if have_attributed else records_path
    if not Path(source).exists():
        raise StageFailed(f"report: no record TSV found at {source}; run extract first", EXIT_USAGE)

    inputs = [source]
    digests: dict[str, Optional[str]] = {}
    summary: dict = {"records": 0}
    need_oui = bool(cfg.oui) and any(n in requested for n in ("eui64_weekly", "eui64_fraction", "vendor_counts"))
    need_hitlist = "hitlist_overlap" in requested
    side = [path for path, needed in ((cfg.oui, need_oui), (cfg.hitlist, need_hitlist)) if needed]

    def load(_) -> tuple:
        return _load_side_inputs(cfg, need_oui, need_hitlist)

    def counted(records):
        for record in records:
            summary["records"] += 1
            yield record

    def aggregated(text):
        return aggregate(counted(read_attributed(text) if have_attributed else read_records(text)))

    agg = error = None

    def read_source() -> None:
        nonlocal agg, error
        try:
            agg, digests[source] = _read_hashed(source, _decoded(aggregated))
        except (BadRow, OSError) as exc:
            error = f"report: {source}: {exc}"

    # The side inputs load as job 0: in a child while the records are read and
    # hashed, or in process before them. Errors are reported OUI, hitlist, TSV.
    jobs = _forked_jobs(load, side, _LOAD_MIN_BYTES) if side else None
    lost = f"report: {', '.join(side)}: load"
    ((_, oui, hitlist),) = _job_outcomes(jobs, 1, load, lambda _, exc: f"{lost} {exc}", meanwhile=read_source)
    db = EMPTY_OUI_DATABASE
    if oui is not None:
        entries, duplicates, bad, digests[cfg.oui] = oui
        db = OuiDatabase(entries, duplicates, bad)
        inputs.append(cfg.oui)
        summary["oui"] = {"entries": len(db), "bad_rows": bad, "duplicate_rows": duplicates}
    rows = []
    if hitlist is not None:
        rows, bad, digests[cfg.hitlist] = hitlist
        if bad:
            print(f"report: skipped {bad} malformed hitlist row(s)", file=sys.stderr)
        inputs.append(cfg.hitlist)
        summary["hitlist"] = {"entries": len(rows), "skipped_rows": bad}
    if error is not None:
        raise StageFailed(error)
    summary["workers"] = _NO_WORKERS if jobs is None else jobs.stats.as_dict()

    # Builders are looked up by name when called, so a patched cli.table_<name> is the one run.
    eui64_pair = functools.cache(lambda: table_eui64_weekly(agg, db, cfg.top_vendors))
    # The two cumulative tables share one series, built by whichever of them runs first.
    cumulative = functools.cache(lambda: cumulative_by_week(agg))
    builders = {
        "weekly_by_version": lambda: table_weekly_by_version(agg),
        "site_fraction": lambda: table_site_fraction(agg),
        "cumulative_prefixes": lambda: table_cumulative_prefixes(agg, cumulative),
        "ratio_per_48": lambda: table_ratio_per_48(agg, cumulative),
        "lifetimes": lambda: table_lifetimes(agg)[0],
        "weekly_by_as": lambda: table_weekly_by_as(agg, cfg.top_k),
        "eui64_weekly": lambda: eui64_pair()[0],
        "eui64_fraction": lambda: eui64_pair()[1],
        "vendor_counts": lambda: table_vendor_counts(agg, db),
        "hitlist_overlap": lambda: table_hitlist_overlap(agg, rows),
    }
    tables = {name: builders[name]() for name in requested}

    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with _Outputs(cfg, "report") as outputs:
        for name, table in tables.items():
            outputs.write(outdir / f"{name}.csv", table.to_csv())
            outputs.write(outdir / f"{name}.json", table.to_json())
        outputs.commit(summary, inputs, digests)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikiv6",
        description="Extract anonymous-editor IPs from MediaWiki dumps and build IPv6 adoption reports.",
    )
    parser.add_argument("--version", action="version", version=f"wikiv6 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="pipeline config file (flat key = value)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--top-k", type=int, dest="top_k", help="AS series to keep (default 5)")
        p.add_argument(
            "--top-vendors", type=int, dest="top_vendors", help="vendor series to keep (default 8)"
        )
        p.add_argument("--namespaces", help="comma-separated page namespaces to keep (default: all)")
        p.add_argument("--stats", dest="stats", help="write the stage stats JSON here instead of stderr")

    p_extract = sub.add_parser("extract", help="parse dumps into record TSVs")
    common(p_extract)
    p_extract.add_argument("--keep-going", action="store_true", help="continue past failing input files")
    p_extract.add_argument("dumps", nargs="*", help="decompressed MediaWiki XML dump files")

    p_attr = sub.add_parser("attribute", help="annotate records with origin AS from RIB snapshots")
    common(p_attr)

    p_report = sub.add_parser("report", help="emit report tables (CSV + JSON)")
    common(p_report)
    p_report.add_argument("tables", nargs="+", help="table names or 'all'")

    p_hitlist = sub.add_parser("compare-hitlist", help="alias for: report hitlist_overlap")
    common(p_hitlist)
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.out:
        cfg.out = args.out
    if getattr(args, "dumps", None):
        cfg.dumps.extend(args.dumps)
    if args.top_k is not None:
        cfg.top_k = args.top_k
    if args.top_vendors is not None:
        cfg.top_vendors = args.top_vendors
    if args.namespaces is not None:
        cfg.namespaces = parse_namespaces(args.namespaces)
    cfg.keep_going = getattr(args, "keep_going", False)  # extract's alone
    if args.stats:
        cfg.stats_path = args.stats
    outputs = [Path(dump).stem + DUMP_RECORDS for dump in cfg.dumps] if args.command == "extract" else []
    tables = ["hitlist_overlap"] if args.command == "compare-hitlist" else getattr(args, "tables", [])
    if cfg.stats_path and "all" in tables:
        _bind("analytics")
        tables = TABLE_NAMES
    validate_config(cfg, [*outputs, *(f"{name}.{ext}" for name in tables for ext in ("csv", "json"))])
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"wikiv6: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "attribute":
            return cmd_attribute(cfg)
        if args.command == "report":
            return cmd_report(cfg, args.tables)
        if args.command == "compare-hitlist":
            return cmd_report(cfg, ["hitlist_overlap"])
    except StageFailed as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except OSError as exc:
        # Any I/O error a stage does not report itself, such as an output that
        # cannot be written (a directory in its place, a full disk).
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())
