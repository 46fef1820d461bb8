#!/usr/bin/env python3
"""Build the benchmark harness and the daemons from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness binary prints human-readable lines and, last, one JSON
object with the run's result. Builds go to $CARGO_TARGET_DIR
(default: .bench_build); build output goes to stderr.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The harness bounds itself well below this; the wrapper only guards
# against a hang, and then kills the harness's whole process group
# (daemons included).
HARNESS_TIMEOUT_S = 175


def build(env):
    commands = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "-p", "codar-service", "--bin", "coded", "--bin", "codar-proxy"],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return False
    return True


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        return 2
    bin_dir = os.path.join(target, "release")
    command = [os.path.join(bin_dir, "perfbench"), "--bin-dir", bin_dir,
               "--out-dir", os.path.join(target, "perfbench-out")] + sys.argv[1:]
    # Every workload is a closed loop: one process works at a time. On
    # one CPU (inherited by the daemons) its hand-offs are same-CPU
    # switches, not cross-CPU wake-ups whose cost swings with the other
    # CPU's load; this is the 1-thread contract of the ROADMAP.
    cpu = max(os.sched_getaffinity(0))
    harness = subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                               preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out; killing it and its daemons", file=sys.stderr)
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
