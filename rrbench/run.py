#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the rotor_ring library, rr_serverd, rr_noded and the rrbench
program from this checkout (Release, into .bench_build/rrbench), then runs
rrbench from the checkout root with the same arguments. Build output goes
to stderr; the last line rrbench prints to stdout is the JSON result. Exits
non-zero, printing no result, when the build fails (for example when the
repository sources are missing next to rrbench/).
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "rrbench")
TARGETS = ["rrbench", "rr_serverd", "rr_noded"]


def run(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout share the build; the lock makes the
    # second wait for the first instead of racing it.
    with open(os.path.join(ROOT, ".bench_build", "rrbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            if not run(["cmake", "-S", os.path.join(ROOT, "rrbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"]):
                return False
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        return run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)


def main():
    if not build():
        print("rrbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "rrbench")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
