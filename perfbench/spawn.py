"""Starts the benchmark's child processes, one at a time, from a small process.

Usage: python3 perfbench/spawn.py  (requests on stdin, replies on stdout)

Each request line is JSON ``{"argv", "stdout", "stderr", "timeout", "cpu"}``,
where ``cpu`` (or null) is the one CPU the child may run on; each
reply line is ``{"rc", "wall", "maxrss_mb"}``, or ``{"error"}`` when the
child overran its timeout and was killed.  Linux seeds a new program's peak
RSS with that of the process that started it, so children are started from
here, where memory stays near the bare interpreter's, rather than from the
runner, whose memory grows with the outputs it checks.
"""
import json
import os
import signal
import subprocess
import sys
import time


def _alarm(signum, frame):
    raise TimeoutError


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        req = json.loads(line)
        # a child inherits the affinity of the process that starts it
        os.sched_setaffinity(0, cpus if req["cpu"] is None else {req["cpu"]})
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reply = {"wall": time.perf_counter() - start,
                         "rc": os.waitstatus_to_exitcode(status),
                         "maxrss_mb": usage.ru_maxrss / 1024}
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                reply = {"error": f"{req['argv'][:4]} overran {req['timeout']:.0f} s"}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = reply.get("rc", -9)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
