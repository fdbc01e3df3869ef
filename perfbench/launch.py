"""Run one command, then print its wall time and resource usage as JSON.

    python3 -S perfbench/launch.py TIMEOUT STDOUT_FILE STDERR_FILE PROGRAM ARG...

The benchmark starts every measured command through this small process rather
than from itself.  On Linux, a process's peak RSS as reported by ``wait4``
includes the peak RSS of the address space it was spawned from, so a command
spawned straight from the benchmark process would report at least the
benchmark's own peak.  This launcher imports almost nothing, so it stays
below the peak of any ``rspinrel`` process.  A command that outlives TIMEOUT
seconds is killed.
"""

import json
import os
import select
import signal
import sys
import time


def main(argv):
    timeout, out_path, err_path, program = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawnp(program[0], program, os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        pidfd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "exit_code": os.waitstatus_to_exitcode(status),
                      "peak_rss_kb": usage.ru_maxrss, "timed_out": timed_out}))


if __name__ == "__main__":
    main(sys.argv[1:])
