"""Starts the commands of one benchmark run and measures each one.

On Linux a new process's max-RSS starts from the peak RSS of the process
that started it.  run.py grows to tens of MB (planes, reports, the
calibration table), which would hide the max-RSS of a small command.  So
run.py starts this small process first, and this process starts every
command.  It imports nothing beyond the standard modules below.

Requests come on stdin and replies go to stdout, one JSON object a line:

    {"argv": [...], "stdout": path, "stderr": path, "limit_s": seconds}
    {"returncode": int, "wall": s, "cpu": s, "rss_kb": int}

A command still running after ``limit_s`` is killed; its return code is
then negative.  When stdin closes, or on SIGTERM, this process ends, and
it kills a command that is still running first.
"""

import json
import os
import signal
import sys
import time


class Expired(Exception):
    pass


def expire(signum, frame):
    raise Expired


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        signal.setitimer(signal.ITIMER_REAL, max(request["limit_s"], 0.001))
        try:
            _, status, usage = os.wait4(pid, 0)
        except Expired:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
