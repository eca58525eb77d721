"""Start commands for the benchmark and report their cost.

Reads one JSON request per stdin line, ``{"argv": [...], "cwd": ...,
"stderr": path, "timeout": seconds}``, runs it to completion (killing it
after ``timeout``) and answers with one JSON line: ``{"rc", "wall_s",
"cpu_s", "maxrss_kb"}``. It exits at end of input.

Linux carries a process's peak RSS across ``exec``, and a forked child
starts with its parent's resident pages, so a command forked straight from
the benchmark would report the benchmark's own size (it holds the corpora).
This helper is started before the corpora exist and stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
