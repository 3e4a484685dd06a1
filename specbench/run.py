#!/usr/bin/env python3
"""Build and run the specbench wire-level benchmark.

    python3 specbench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 0

Builds the server (`specmatch_cli`) and the load generator (`specbench`)
from the sources of the checkout this file sits in, into `.bench_build/`,
then runs the load generator, whose last output line is the JSON result.
Workloads: solve-cold and store-churn (the two in BENCHMARK.json), and
serve-warm, which runs but is too unsteady to bound (see specbench/README.md).
Extra flags --smoke, --plant-mismatch and --plant-refused are for the
self-test (specbench/selftest.py).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("specbench: repository sources not found next to "
                 "specbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "specbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("specbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-warm", "solve-cold", "store-churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plant-mismatch", action="store_true")
    parser.add_argument("--plant-refused", action="store_true")
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "specbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "specmatch", "tools",
                                    "specmatch_cli"),
           "--workdir", workdir]
    for flag in ("smoke", "plant_mismatch", "plant_refused"):
        if getattr(args, flag):
            cmd.append("--" + flag.replace("_", "-"))
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
