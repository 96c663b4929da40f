"""Starts the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` also counts the peak RSS of the process
that spawned it, because the exec replaces the spawner's address space and
the kernel keeps that space's high-water mark. The benchmark's own process
grows large (expected values, traced in-process rounds), so it starts this
launcher first, while it is still small, and has it start every CLI process.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "stderr"}``;
one JSON reply per line on stdout, ``{"start", "end", "rss_kb", "code"}``,
with ``time.perf_counter`` times. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "rss_kb": usage.ru_maxrss,
                 "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
