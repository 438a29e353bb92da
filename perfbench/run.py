#!/usr/bin/env python3
"""Pipeline benchmark: extract -> attribute -> report on seeded synthetic inputs.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from the seed before
timing starts; the program receives only the generated files. The load is a
closed loop with one client: each stage runs as a child process of the
benchmark, only after the previous stage has ended, so nothing runs
concurrently. A stage's wall time is measured from spawn to reap and its peak
RSS comes from that child's own rusage (``os.wait4``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, each
the median over the pipeline iterations completed in ``--seconds``. With
``--trace 1`` untraced and traced iterations alternate (``trace_stage.py``
records spans around the public calls each stage makes), then a separate
probe pass (``probe.py``) samples per-call latencies and measures memory; the
last line carries the per-layer metrics.

Every pipeline iteration's children run with PYTHONHASHSEED set to the
iteration number, so string hashing, and with it set and dict order, differs
from one iteration to the next; the report outputs of each iteration must
equal the first iteration's byte for byte, which catches output that depends
on that order. The same seed gives the same sequence of hash seeds, so runs
repeat.

Times are scaled to a reference machine speed (see REFERENCE_S): each stage's
wall time is multiplied by REFERENCE_S over the wall time of a child running a
fixed pure-Python job right before and after that stage, so that most of the
host's drifting speed cancels out. The unscaled figures and the median speed
factor are in the metadata.

Every stage invocation and every output check is one attempted operation;
``failed / attempted`` is the failed-operations fraction. It is printed on
the line before the result with the run metadata: git SHA, Python version,
nproc, the line count of ``src/``, and the unscaled wall-clock metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

STAGES = (
    ("extract", ["extract"]),
    ("attribute", ["attribute"]),
    ("report", ["report", "all"]),
)
# Stops the run early if stages hang, so it ends well inside 180 s.
RUN_DEADLINE_S = 165
SETUP_REPS = 9
# Every timing is scaled by REFERENCE_S / (wall time of a child running
# REFERENCE_CODE, averaged over one right before and one right after it), i.e.
# to a machine on which that child takes REFERENCE_S, about its time on an idle
# 2-vCPU 2.1 GHz box. On a shared host the machine's speed drifts by tens of
# percent within minutes; the scaled times drift far less.
REFERENCE_S = 0.065
REFERENCE_CODE = """
table = {}
for i in range(15_000):
    row = f"2016-01-{i % 28 + 1:02d}T00:{i % 60:02d}:00Z\\tenwiki\\t10.{i % 251}.{i % 241}.{i % 239}"
    ts, site, ip = row.split("\\t")
    table[ip] = (int(ts[8:10]), site)
sorted(table.items())
"""

sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))
try:
    import expect
    import tracing
    import workloads
except ImportError as exc:  # tests/ is missing: not a checkout of the repository
    sys.exit(f"perfbench: not a wikiv6 checkout ({exc})")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_CODE = """
import sys
from wikiv6 import cli
from wikiv6.ribstore import RibTimeline
cfg = cli.resolve_config(cli.build_parser().parse_args(["attribute", "--config", sys.argv[1]]))
timeline = RibTimeline.from_files(cfg.ribs)
with open(cfg.oui, "rb") as fh:
    db = cli.load_oui_database(fh)
print(len(timeline), len(db))
"""


class Timeout(Exception):
    pass


class Timed(NamedTuple):
    wall_s: float  # as measured
    speed: float  # REFERENCE_S / the reference child's time around it
    rss_mb: float = 0.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


class Bench:
    """Starts children through spawner.py, and counts attempted and failed operations."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(workdir / "tmp"),
        })
        for key in ("PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONPROFILEIMPORTTIME"):
            env.pop(key, None)
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        # Its own process group, so close() can stop it together with a running stage.
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
        )

    def close(self) -> None:
        """Stop the spawner; it exits at end of input unless a stage is still running."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.spawner.pid, signal.SIGKILL)
            self.spawner.wait()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def reference(self) -> float:
        """Wall time of a fresh interpreter running REFERENCE_CODE."""
        return self.spawn(["-c", REFERENCE_CODE], "reference", hashseed=0)[1]

    def spawn(self, argv: list, log: str, hashseed: int) -> tuple:
        """Run `python3 argv` with PYTHONHASHSEED=hashseed to completion.

        Returns (exit code, wall s, peak RSS MB).
        """
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise Timeout()
        request = {
            "argv": [sys.executable, *argv],
            "out": str(self.workdir / f"{log}.out"),
            "err": str(self.workdir / f"{log}.err"),
            "timeout": remaining,
            "hashseed": hashseed,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if reply.get("timeout"):
            raise Timeout()
        return reply["exit"], reply["wall_s"], reply["maxrss_kb"] * 1024 / 1e6


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return ""


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _report_outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv")) + sorted(out.glob("*.json"))
            if p.name not in ("manifest.json",) and not p.name.endswith("_stats.json")}


class Pipeline:
    """One workload's inputs, expected outputs and iteration runner."""

    def __init__(self, bench: Bench, workload, expected, fault=None):
        self.bench = bench
        self.w = workload
        self.e = expected
        self.out = Path(workload.config).parent / "out"
        self.first_report = None
        self.fault = fault  # callable(out_dir), run between attribute and report

    def stage_argv(self, stage: str, args: list, traced: bool, run_id: str) -> list:
        tail = [*args, "--config", self.w.config]
        if stage != "report":
            tail += ["--stats", str(self.out / f"{stage}_stats.json")]
        if traced:
            return [str(HERE / "trace_stage.py"), str(self.bench.workdir / f"spans-{run_id}.json"), run_id, *tail]
        return ["-m", "wikiv6", *tail]

    def iterate(self, n: int, traced: bool = False):
        """Run the three stages back to back, then check their outputs.

        Returns {stage: Timed}, or None if a stage failed.
        """
        bench = self.bench
        result = {}
        for p in self.out.glob("*"):
            p.unlink()
        before = bench.reference()
        for stage, args in STAGES:
            run_id = f"{stage}-{n}"
            if stage == "report" and self.fault is not None:
                self.fault(self.out)
            code, wall, rss = bench.spawn(self.stage_argv(stage, args, traced, run_id), run_id, hashseed=n)
            if not bench.check(code == 0, f"{stage} exited {code} (see {run_id}.err)"):
                return None
            after = bench.reference()
            result[stage] = Timed(wall, 2 * REFERENCE_S / (before + after), rss)
            before = after
        self.check_outputs()
        return result

    def check_outputs(self) -> None:
        bench, e, out = self.bench, self.e, self.out
        records = _read(out / "records.tsv")
        totals = _read_json(out / "extract_stats.json").get("totals")
        if bench.check(records == e.records, "extract records.tsv"):
            bench.check(totals == e.extract_totals, f"extract stats {totals}")
        else:
            print("  " + expect.first_difference(records, e.records), file=sys.stderr)
        attributed = _read(out / "attributed.tsv")
        if not bench.check(attributed == e.attributed, "attribute attributed.tsv"):
            print("  " + expect.first_difference(attributed, e.attributed), file=sys.stderr)
        stats = _read_json(out / "attribute_stats.json")
        bench.check(all(stats.get(k) == v for k, v in e.attribute_stats.items()), f"attribute stats {stats}")
        report = _report_outputs(out)
        if self.first_report is None:
            # The full oracle comparison runs once per invocation; later
            # iterations must reproduce these bytes exactly.
            for name, csv_text in e.tables.items():
                got = report.get(f"{name}.csv", b"").decode("utf-8", "replace")
                if not bench.check(got == csv_text, f"report {name}.csv against the oracle"):
                    print("  " + expect.first_difference(got, csv_text), file=sys.stderr)
            self.first_report = report
        else:
            bench.check(report == self.first_report, "report outputs differ from the first iteration")


def measure_setup(bench: Bench, workload) -> list:
    """Wall time of a fresh interpreter doing the pipeline's set-up, SETUP_REPS times."""
    times = []
    expected = f"{len(workload.snapshots)} {sum(1 for _ in open(workload.oui, encoding='utf-8')) - 1}"
    before = bench.reference()
    for rep in range(SETUP_REPS + 1):
        code, wall, _ = bench.spawn(["-c", SETUP_CODE, workload.config], f"setup-{rep}", hashseed=rep)
        ok = code == 0 and _read(bench.workdir / f"setup-{rep}.out").strip() == expected
        bench.check(ok, f"set-up run {rep}")
        after = bench.reference()
        if rep:  # the first run compiles bytecode
            times.append(Timed(wall, 2 * REFERENCE_S / (before + after)))
        before = after
    return times


def pipeline_s(iteration: dict, scaled: bool = True) -> float:
    return sum(t.scaled_s if scaled else t.wall_s for t in iteration.values())


def end_to_end(iterations: list, setup: list, workload, expected, scaled: bool = True) -> dict:
    """Medians over iterations; times scaled to the reference speed unless `scaled` is False."""
    def seconds(t: Timed) -> float:
        return t.scaled_s if scaled else t.wall_s

    def stage(name):
        return [it[name] for it in iterations]

    mb = workload.dump_bytes / 1e6
    n = expected.records_count
    med = statistics.median
    return with_units({
        "pipeline_s": med([pipeline_s(it, scaled) for it in iterations]),
        "setup_s": med([seconds(t) for t in setup]),
        "extract_mb_per_s": med([mb / seconds(t) for t in stage("extract")]),
        "attribute_records_per_s": med([n / seconds(t) for t in stage("attribute")]),
        "report_records_per_s": med([n / seconds(t) for t in stage("report")]),
        "extract_peak_rss_mb": med([t.rss_mb for t in stage("extract")]),
        "attribute_peak_rss_mb": med([t.rss_mb for t in stage("attribute")]),
        "report_peak_rss_mb": med([t.rss_mb for t in stage("report")]),
    })


def with_units(values: dict) -> dict:
    """{name: value} -> {name: {"value", "unit"}}, with the units BENCHMARK.json declares."""
    return {name: {"value": values[name], "unit": UNITS[name]} for name in sorted(values)}


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload, expected, bench) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "workload": workload.name,
        "dump_bytes": workload.dump_bytes,
        "records": expected.records_count,
        "snapshots": len(workload.snapshots),
        "prefixes_per_snapshot": [s.size for s in workload.snapshots],
        "failed_ops_fraction": bench.failed / max(1, bench.attempted),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, fault=None) -> tuple:
    """Generate, measure and check one workload; return (metadata, result)."""
    started = time.monotonic()
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.generate(name, seed, workdir, scale)
        expected = expect.build(workload)
        bench = Bench(workdir, started + RUN_DEADLINE_S)
        try:
            metrics, details = measure(bench, workload, expected, seed, seconds, trace, fault)
        finally:
            bench.close()
        meta = {**metadata(workload, expected, bench), **details}
        result = {
            "correct": bench.failed == 0 and bool(metrics),
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
        return meta, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(bench: Bench, workload, expected, seed: int, seconds: float, trace: bool, fault) -> tuple:
    """Return (metrics, details for the metadata line)."""
    for problem in expected.problems:
        bench.check(False, problem)
    pipeline = Pipeline(bench, workload, expected, fault)
    try:
        if trace:
            return traced_run(pipeline, seconds, ROOT / ".bench_trace" / f"{workload.name}-seed{seed}")
        setup = measure_setup(bench, workload)
        iterations = loop(pipeline, seconds)
    except Timeout:
        bench.check(False, f"run deadline of {RUN_DEADLINE_S} s reached")
        return {}, {}
    if not iterations:
        return {}, {}
    speeds = [t.speed for it in iterations for t in it.values()]
    details = {
        "iterations": len(iterations),
        "speed": statistics.median(speeds),
        "wall_clock": end_to_end(iterations, setup, workload, expected, scaled=False),
    }
    return end_to_end(iterations, setup, workload, expected), details


def loop(pipeline: Pipeline, seconds: float) -> list:
    """Closed loop, one client: iterate until `seconds` have passed."""
    pipeline.iterate(0)  # warm-up: checked, not timed
    iterations = []
    start = time.perf_counter()
    n = 1
    while True:
        result = pipeline.iterate(n)
        n += 1
        if result is not None:
            iterations.append(result)
        if time.perf_counter() - start >= seconds:
            return iterations


def traced_run(pipeline: Pipeline, seconds: float, keep_dir: Path) -> tuple:
    """Alternate untraced and traced iterations, then run the probe pass."""
    pipeline.iterate(0)  # warm-up: checked, not timed
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    n = 1
    while True:
        plain = pipeline.iterate(n)
        with_spans = pipeline.iterate(n + 1, traced=True)
        if plain is not None and with_spans is not None:
            untraced.append(pipeline_s(plain))
            traced.append(pipeline_s(with_spans))
            summaries.append(tracing.load_iteration(pipeline.bench.workdir, n + 1))
            last = n + 1
        n += 2
        if time.perf_counter() - start >= seconds:
            break
    if not traced:
        return {}, {}
    tracing.keep(pipeline.bench.workdir, last, keep_dir)
    probed = tracing.probe(pipeline)
    if not probed:
        return {}, {}
    return with_units(tracing.per_layer(untraced, traced, summaries, probed, pipeline)), {"iterations": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wikiv6" / "cli.py").is_file():
        print("perfbench: not a wikiv6 checkout, src/wikiv6 is missing", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the work directory is removed and children are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
