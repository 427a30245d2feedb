"""Starts the benchmark's subprocesses from a process that stays small.

On Linux a child's ``ru_maxrss`` includes the peak resident set of the
process that spawned it (exec folds the old address space's high-water
mark into it). The benchmark's own process holds the generated inputs and
their expectations, so children it spawned directly would report its peak
as theirs. This launcher imports no NumPy, so its peak is far below any
child's, and the peak RSS it reports is the child's own.

Protocol, one JSON line each way per child:
    request  [argv, stdout path, stderr path, timeout s]
    reply    [exit code, wall s, peak RSS KiB]
The child inherits this process's working directory and environment. The
launcher exits at end of input; on SIGTERM it kills and reaps its child.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def serve() -> None:
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err)
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    serve()
