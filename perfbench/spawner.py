#!/usr/bin/env python3
"""Start benchmark children from a small process and report their rusage.

A child's ``ru_maxrss`` starts at the resident size of the process that forks
it (with the vfork-based ``posix_spawn``, at that process's high-water mark),
so children started by the benchmark itself, which holds the generated inputs
and expected outputs in memory, would report the benchmark's size as their
peak. This process stays small, so a stage's ``ru_maxrss`` from ``os.wait4``
is that stage's own peak.

Protocol: one JSON request per stdin line, ``{"argv", "out", "err",
"timeout", "hashseed"}`` (the environment is this process's own, with
``PYTHONHASHSEED`` set to ``hashseed``); one JSON reply per stdout line,
``{"exit", "wall_s", "maxrss_kb"}`` or ``{"timeout": true}``.
Ends at end of input.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644),
    ]
    argv = request["argv"]
    env = dict(os.environ, PYTHONHASHSEED=str(request["hashseed"]))
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.alarm(request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return {"timeout": True}
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
