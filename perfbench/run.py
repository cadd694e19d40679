#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload oneshot|infer|serve --seed N \
        --seconds S --trace 0|1

The benchmark program (perfbench/main.ml) is built from source with dune,
then run once for the given workload. Its human-readable report goes to
stdout; the last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The build directory is
$CARGO_TARGET_DIR when set, else `_build`; run outputs (traces, the serve
workload's plan cache and socket) go to `.bench_out/`.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["oneshot", "infer", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/main.exe"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir, target],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    # serve runs two clients, the server's threads and its compiles at once.
    # On one CPU every hand-off between them is a plain context switch;
    # spread over the machine's CPUs, each hand-off waits for the hypervisor
    # to wake an idle one, and the figures follow that wake-up latency.
    pin = None
    if args.workload == "serve" and hasattr(os, "sched_setaffinity"):
        pin = {max(os.sched_getaffinity(0))}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    # The benchmark gets its own process group: whatever is left of it when
    # it exits or times out (the serve workload's server) is killed with it.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           start_new_session=True,
                           preexec_fn=pin and (lambda: os.sched_setaffinity(0, pin)))
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(run.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if stdout is None:
        run.communicate()
        # What a killed serve run leaves behind: its plan cache and sockets.
        shutil.rmtree(os.path.join(".bench_out", f"cache-{run.pid}"), ignore_errors=True)
        for sock in glob.glob(os.path.join(".bench_out", f"s{run.pid}-*.sock")):
            os.remove(sock)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(stdout)
        print("perfbench: the last line is not a result object", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
