"""Start the benchmark's child processes from a small process.

A child's peak resident set, as ``wait4`` reports it, includes the memory of
the process it was forked from, so the benchmark (which holds numpy and
scipy) does not fork the calls it measures itself.  This process imports
nothing heavy.  It reads one JSON request per line on stdin,
``{"cmd": [...], "out": path, "err": path, "timeout": seconds}``, runs the
command to its end with stdout and stderr in the two files, and answers one
JSON line: exit code, wall seconds, CPU seconds and peak resident MB.  It
exits when stdin closes; on SIGTERM it kills the running child first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_running = []


def _terminate(signum, frame):
    for proc in _running:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
        _running.append(proc)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _running.remove(proc)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
