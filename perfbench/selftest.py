#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # about three minutes

Checks that:
  1. every name in BENCHMARK.json matches [A-Za-z0-9_.-]+ (and the other
     limits of the result format), and every unit is well formed;
  2. every listed metric is emitted, with its listed unit, by every
     workload, untraced (end-to-end) and traced (per-layer);
  3. the seed changes serve_mix's request draw but not the cold
     workloads' job lists;
  4. the open-loop generator's lateness is reported (gen.late_ms_p99,
     with samples) on serve_mix;
  5. corrupting one reference digest makes the correctness check fire:
     the run reports correct=false, failed>0, and exits nonzero.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def run(*args):
    """Run the benchmark; return (exit code, parsed result or None)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                       + list(args), cwd=ROOT, capture_output=True, text=True)
    try:
        return p.returncode, json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        sys.stderr.write(p.stderr)
        return p.returncode, None


def plan(workload, seed):
    """The workload's job list or request schedule (built by run())."""
    binary = os.path.join(SCRATCH, "perfbench", "tango-perfbench")
    return subprocess.run([binary, "--root", ROOT, "--print-plan",
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "20"],
                          capture_output=True, text=True, check=True).stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    sections = {"end_to_end": "0", "per_layer": "1"}

    names = workloads + [m["name"] for s in sections for m in bench[s]]
    check(all(NAME.match(n) for n in names) and
          len(names) == len(set(names)),
          "all %d names match [A-Za-z0-9_.-]+ and are unique" % len(names))
    check(all(UNIT.match(m["unit"]) for s in sections for m in bench[s]),
          "all units are well formed")

    for w in workloads:
        for section, trace in sections.items():
            code, res = run("--workload", w, "--seed", "1", "--seconds", "1",
                            "--trace", trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in (res or {}).get("metrics",
                                                           {}).items()}
            check(code == 0 and res["correct"] and res["failed"] == 0 and
                  got == want,
                  "%s --trace %s emits every %s metric with its unit"
                  % (w, trace, section))
            if w == "serve_mix" and trace == "1":
                with open(os.path.join(SCRATCH, "trace-serve_mix.json")) as f:
                    late = json.load(f)["metrics"]["gen.late_ms_p99"]
                check(late["samples"] > 0 and late["unit"] == "ms",
                      "serve_mix reports generator lateness (%g ms p99 over "
                      "%d requests)" % (late["value"], late["samples"]))

    check(plan("serve_mix", 1) != plan("serve_mix", 2),
          "the seed changes serve_mix's request draw")
    for w in ("cold_cnn", "rnn_long"):
        check(plan(w, 1) == plan(w, 2), "the seed leaves %s's job list" % w)

    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    key = sorted(ref["rnn_long"])[0]
    ref["rnn_long"][key] = "0" * 16
    corrupt = os.path.join(SCRATCH, "reference.corrupt.json")
    with open(corrupt, "w") as f:
        json.dump(ref, f)
    code, res = run("--workload", "rnn_long", "--seed", "1", "--seconds",
                    "1", "--trace", "0", "--reference", corrupt)
    check(code != 0 and res is not None and not res["correct"] and
          res["failed"] > 0,
          "a corrupted reference for %s fails the run (exit %d)" % (key, code))


if __name__ == "__main__":
    main()
