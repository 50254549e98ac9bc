#!/usr/bin/env python3
"""Build and run the tango benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_cnn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call builds the tango library
and the benchmark binary from source into .bench_build/ (Release); later
calls only re-check the build.  Every other argument goes to that binary,
tango-perfbench.  With --trace 1 the traced run's spans are summarized
(perfbench/summarize.py) before the result line, and a failed summary
check fails the run.  The last line of standard output is the JSON
result; the exit code is 0 only when every operation succeeded and every
output was correct.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["cold_cnn", "rnn_long", "serve_mix"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tango sources next to perfbench/ (expected src/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "tango-perfbench")


def arg(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    binary = build()
    traced = arg(args, "--trace", "0") != "0"
    workload = arg(args, "--workload", "all")
    workloads = WORKLOADS if workload == "all" else [workload]
    proc = subprocess.run([binary, "--root", ROOT] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("tango-perfbench printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    code = proc.returncode
    if traced and code in (0, 1):
        sys.path.insert(0, HERE)
        import summarize
        for w in workloads:
            path = os.path.join(ROOT, ".bench_build", "trace-%s.json" % w)
            if not summarize.summarize(path):
                result["correct"] = False
                code = code or 1
    print(lines[-1] if code == proc.returncode else json.dumps(result),
          flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
