"""Runs the benchmark's child processes from a process that stays small.

    python3 -S bench/spawner.py CPU_LIMIT_S

A child's ru_maxrss starts from the resident set of the process that spawned
it (Linux copies the spawner's high-water mark at exec), so if run.py spawned
the CLI itself, the memory run.py uses to check a large output would show up
as every later child's peak RSS.  This helper imports almost nothing and holds
no data.  It reads one JSON request a line on stdin,

    {"argv": [...], "stdout": PATH, "stderr": PATH}

starts the command with os.posix_spawn (stdin from /dev/null, stdout and
stderr to the files), waits for it with os.wait4 and answers one JSON line on
stdout with the exit code, wall seconds, CPU seconds and peak RSS in MB of
that child alone.  Children inherit its environment and a CPU-time limit of
CPU_LIMIT_S seconds each.  It exits when stdin closes.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    limit = int(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_CPU, (limit, limit))
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
