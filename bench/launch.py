"""Job launcher: runs each benchmark job as its own child.

Linux carries a process's resident high-water mark into its children across
exec, so a job spawned straight from the (large) benchmark process would
report the benchmark's memory as its own peak RSS.  Spawned from this small
process instead, a job's ru_maxrss is its own.

Protocol: one JSON request per line on stdin,
{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds};
one JSON reply per line on stdout, {"code", "wall_s", "cpu_s", "rss_mb"}.
Jobs inherit this process's environment and working directory.  Exits at
end of input.
"""

import json
import os
import signal
import sys
import time


def kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:   # exited just as the alarm fired
        pass


def run(req):
    fds = [os.open(os.devnull, os.O_RDONLY)] + [
        os.open(req[name], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for name in ("stdout", "stderr")]
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate(fds)])
        signal.signal(signal.SIGALRM, lambda *_: kill(pid))
        signal.alarm(int(req["timeout"]))
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        signal.alarm(0)
    finally:
        for fd in fds:
            os.close(fd)
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0}


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
