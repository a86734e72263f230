"""Start the benchmark's child processes and report wall time and peak RSS.

Reads one JSON request per line on stdin, ``{"argv", "env", "log",
"timeout"}``, runs that child to completion with its stderr appended to
``log``, and answers with one JSON line ``{"wall", "rss_mb", "code"}``.

Linux starts a child's ``ru_maxrss`` at its parent's high-water mark, so a
child spawned by the benchmark process itself, which holds the oracle's
copy of the inputs, would report at least that much. This launcher is
started before the benchmark imports numpy or loads any input, so the
floor it passes on stays at a bare interpreter's size.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
