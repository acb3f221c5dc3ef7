#!/usr/bin/env python3
"""The olapdc benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <serve_hot|serve_cold|cli_enumerate>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It builds olapdcd, the olapdc
CLI and the harness olapdc_bench from source into .bench_build/ (an
incremental no-op after the first run), then runs the harness, whose
last stdout line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "perfbench-work")
SOURCE = os.path.join(ROOT, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("run me from the root of an olapdc source checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", SOURCE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", jobs, "--target",
             "olapdc_bench", "olapdcd", "olapdc_cli"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=1500).returncode != 0:
                fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "serve_cold", "cli_enumerate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    tools = os.path.join(BUILD, "olapdc", "tools")
    command = [
        os.path.join(BUILD, "olapdc_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(tools, "olapdcd"),
        "--cli", os.path.join(tools, "olapdc"),
        "--work-dir", WORK,
    ]
    sys.stdout.flush()
    # The harness's last stdout line is the result; its exit code is ours.
    # It runs in its own process group so a hung run takes its olapdcd
    # and olapdc children down with it.
    harness = subprocess.Popen(command, start_new_session=True)
    try:
        sys.exit(harness.wait(timeout=170))
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail("the run did not finish within 170 s")


if __name__ == "__main__":
    main()
