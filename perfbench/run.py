#!/usr/bin/env python3
"""Build the simulator's benchmark executable and run one workload.

    python3 perfbench/run.py --workload echo-ix --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout.  Builds perfbench/main.exe with
dune inside the checkout, runs it in one child process (so the peak RSS
it reports belongs to this workload alone), streams its output, and
exits with the child's status.  The last line printed is the child's
JSON result; nothing is printed as a result if the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("echo-ix", "memcached-etc", "conn-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Variables that would change what the simulator runs or how it is built.
SCRUBBED_ENV = ("IX_BENCH_SCALE", "IX_BENCH_JOBS", "OCAMLRUNPARAM", "DUNE_PROFILE")


def host_facts():
    nproc = len(os.sched_getaffinity(0))
    load = " ".join("%.2f" % x for x in os.getloadavg())
    print("host: nproc=%d loadavg=%s" % (nproc, load), flush=True)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return False
    return done.returncode == 0


def run(args):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(HERE, "golden"),
           "--out-dir", os.path.join(ROOT, ".perfbench")]
    if args.update_golden:
        cmd.append("--update-golden")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        for line in child.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, RUN_TIMEOUT_S)
        return child.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite golden/<workload>.txt (default seed only)")
    args = p.parse_args()
    host_facts()
    if not build():
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
