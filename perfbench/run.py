#!/usr/bin/env python3
"""Build and run the ficon benchmark from the root of a source checkout.

One run of one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload anneal_ami49 --seed 1 --seconds 10 --trace 0

Repeat mode: K runs of one workload on seeds seed, seed+1, ...; prints each
metric's median, quartiles, sample count and quartile spread:
    python3 perfbench/run.py --repeat 10 --workload stream_ami49x80 --seconds 10

Helper tests:
    python3 perfbench/run.py --selftest

The library is compiled from src/ into .bench_build/perfbench (Release).
Build output goes to stderr only when the build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["anneal_ami49", "stream_ami49x80", "paper_ami33",
             "service_ami49"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail("command failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "ficon.hpp")):
        fail("no ficon sources at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", PACKAGE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    return os.path.join(BUILD, target)


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def repeat(binary, args):
    values = {}
    units = {}
    correct = True
    for i in range(args.repeat):
        seed = args.seed + i
        code, out = run_once(binary, args.workload, seed, args.seconds,
                             args.trace)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            fail("run with seed %d exited %d" % (seed, code))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"],
               result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    print("%-36s %14s %14s %14s %4s %8s" %
          ("metric", "median", "q1", "q3", "n", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med != 0 else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                         "spread": spread, "unit": units[name]}
        print("%-36s %14.6g %14.6g %14.6g %4d %8.4f %s" %
              (name, med, q1, q3, len(vals), spread, units[name]))
    print(json.dumps({"workload": args.workload, "correct": correct,
                      "runs": args.repeat, "metrics": summary}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K seeds and print median/quartiles")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        return subprocess.run([binary], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    binary = build("ficon_perfbench")
    if args.repeat > 0:
        return repeat(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
