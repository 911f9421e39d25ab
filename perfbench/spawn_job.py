"""Start one job, wait for it, and report its time and its own peak RSS.

Usage: python3 -I -S perfbench/spawn_job.py STDERR_FILE PROGRAM [ARG ...]

run.py starts every job through this small launcher.  A child's
ru_maxrss includes the peak RSS of the process that spawned it, because
Linux carries the pre-exec address space's peak into the new program;
spawned straight from run.py, every job would report at least run.py's
own RSS.  This launcher imports only built-in modules, so its footprint
stays below any job's.

The job inherits stdin and stdout (run.py drains and hashes stdout);
its stderr goes to STDERR_FILE.  When the job has ended, the launcher
writes "SECONDS EXIT_CODE MAXRSS_KIB" to its own stderr.  SECONDS runs
from spawn to exit.
"""

import os
import sys
import time


def main():
    stderr_path, argv = sys.argv[1], sys.argv[2:]
    err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, err, 2)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    os.close(err)
    report = f"{seconds!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n"
    os.write(2, report.encode())


if __name__ == "__main__":
    main()
