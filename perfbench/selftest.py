#!/usr/bin/env python3
"""Small-size self-test of the benchmark itself.

usage: python3 perfbench/selftest.py

1. Runs every workload once untraced and once traced at a small scale, and
   requires every check to pass and the metric names to be exactly the ones
   BENCHMARK.json lists.
2. Plants one wrong row (a mismatched origin in attributed.tsv, written after
   attribute and before report) and requires a non-zero failed-operations
   fraction rather than a passing run.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, and requires a non-zero exit without a result line.

Exits 0 when all of these hold. Takes about a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run

SCALE = 0.05
SEED = 7
SECONDS = 1


def plant_wrong_origin(out) -> None:
    path = out / "attributed.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    ts, site, ip, origin, delta = lines[1].rstrip("\n").split("\t")
    lines[1] = "\t".join((ts, site, ip, "64513" if origin == "64512" else "64512", delta)) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    spec = run.SPEC
    names = {
        False: sorted(m["name"] for m in spec["end_to_end"]),
        True: sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in spec["workloads"]:
        for trace in (False, True):
            _meta, result = run.run(workload["name"], SEED, SECONDS, trace, scale=SCALE)
            label = f"{workload['name']} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: {result['failed']} of {result['attempted']} operations failed")
            expect(sorted(result["metrics"]) == names[trace], f"{label}: metric names match BENCHMARK.json")

    _meta, result = run.run("anon-dense", SEED, SECONDS, False, scale=SCALE, fault=plant_wrong_origin)
    expect(result["failed"] > 0 and not result["correct"],
           f"planted wrong origin: failed_ops_fraction {result['failed']}/{result['attempted']} is non-zero")

    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "anon-dense", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"outside a checkout: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
