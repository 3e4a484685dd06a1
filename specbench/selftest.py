#!/usr/bin/env python3
"""Self-test of the specbench benchmark, at smoke sizes (about a minute).

    python3 specbench/selftest.py

Checks that:
  1. every workload runs, passes its correctness gate, and prints every
     metric BENCHMARK.json names (end_to_end with --trace 0, per_layer with
     --trace 1) with the unit BENCHMARK.json gives it;
  2. a planted wrong response trips the correctness gate (non-zero exit,
     "correct": false);
  3. a refused connection counts as a failed request (error rate above 0);
  4. in a directory holding only BENCHMARK.json and the benchmark's own
     files, the command fails without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, timeout=180):
    done = subprocess.run([sys.executable, "specbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def check(condition, message):
    if not condition:
        sys.exit("selftest FAILED: " + message)
    print("ok:", message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    smoke = ["--seed", "1", "--seconds", "1", "--smoke"]
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, listed in (("0", bench["end_to_end"]),
                              ("1", bench["per_layer"])):
            code, result, err = run(["--workload", workload, "--trace", trace]
                                    + smoke)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} --trace {trace} passes its gate"
                  + ("" if code == 0 else ": " + err[-400:]))
            printed = result["metrics"]
            missing = [m["name"] for m in listed
                       if printed.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, f"{workload} --trace {trace} prints every "
                  f"listed metric with its unit (missing: {missing})")

    code, result, _ = run(["--workload", "serve-warm", "--trace", "0",
                           "--plant-mismatch"] + smoke)
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a planted wrong response trips the correctness gate")

    code, result, _ = run(["--workload", "serve-warm", "--trace", "0",
                           "--plant-refused"] + smoke)
    check(code != 0 and result is not None and result["failed"] >= 1
          and result["failed"] / result["attempted"] > 0,
          "a refused connection raises the error rate")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run(["--workload", "serve-warm", "--trace", "0"]
                          + smoke, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without the repository's sources the command fails and prints "
          "no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
