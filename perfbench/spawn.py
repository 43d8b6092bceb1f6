"""Run one command; print its exit code, wall time, CPU time and peak RSS
as JSON.

    python3 -I -S perfbench/spawn.py TIMEOUT STDERR_LOG COMMAND...

The benchmark starts every timed cdplot process through this small
process rather than directly. Linux counts the memory of the forking
process in the child's ru_maxrss, so a child forked from the benchmark,
which holds parsed outputs by then, would report the benchmark's peak.
CPU time and peak RSS come from wait4 and so cover the command and the
children it waited for.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, log, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
