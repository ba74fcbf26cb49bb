"""Starts the cerf commands of run.py from a small process of its own.

Linux begins a forked child's peak-RSS record at the RSS of the process that
forked it, so a command started straight from the benchmark process,
which holds the inputs and reference results, would report at least that
process's RSS. This process stays small. It reads one JSON request per line,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}, runs the
command to its end and answers one JSON line {"code", "wall_s", "cpu_s",
"rss_mb"}, where cpu_s is the command's user plus system time.
It exits when its standard input closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
