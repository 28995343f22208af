"""Start commands one at a time for perfbench/run.py and report their cost.

Reads one JSON request per line on stdin (argv, cwd, stdout and stderr
paths, timeout in seconds), runs it to its end, and answers with one JSON
line: exit code, wall seconds and peak RSS in KiB.  Ends when stdin closes.

It is a process of its own because a child's peak RSS (``ru_maxrss``)
also counts the resident memory of the process it was forked from.
Forked straight from the benchmark, which holds the parsed traces, every
command would read at least the benchmark's size.  This process imports
nothing large, so its few MB stay below any command's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"returncode": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
