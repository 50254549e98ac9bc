#!/usr/bin/env python3
"""Summarize a traced benchmark run.

    python3 perfbench/summarize.py .bench_build/trace-cold_cnn.json

Reads the spans and per-layer metrics that a traced run (--trace 1)
writes, and prints:
  - each layer's self time (span duration minus its children's), in total
    and per root span, after asserting that the self times of every root
    span's tree sum to that root's wall time;
  - every per-layer metric with its unit and sample count;
  - the tracing overhead (traced vs untraced wall time of the same jobs);
  - on serve_mix, the server-side stages reconciled against the response
    latencyMs and the client round trip;
  - the layer -> end-to-end map: which end-to-end metric each layer metric
    should move, and on which workload.
Exits 1 when the self-time assertion fails.
"""

import json
import sys

# Layer metric -> (end-to-end metric it should move, workload).
LAYER_MAP = [
    ("sim.timing_ms, sim.ns_per_*, sim.timing_ms.<fig>, sim.launch_ms_max",
     "pass_s, sim_kwips", "cold_cnn (flat on rnn_long)"),
    ("sim.replay_ms, sim.launches.*, sim.replay_ratio, sim.memo_mismatches",
     "pass_s", "rnn_long (zero on cold_cnn)"),
    ("nn.build_ms, runtime.lower_ms, runtime.other_ms",
     "pass_s / rtt_p50_ms.miss", "cold_cnn (resnet) / serve_mix"),
    ("engine.lookup_us", "rtt_p50_ms.hit", "serve_mix"),
    ("engine.hit_ratio", "(explains serve_mix; should not move)", "serve_mix"),
    ("engine.miss_wait_ms", "rtt_p50_ms.miss, rtt_p98_ms, slo_ok_ratio",
     "serve_mix"),
    ("stage.*_us, result.kb.*, serve.server_ms, serve.unaccounted_ms",
     "rtt_p50_ms.hit, rtt_p98_ms, slo_ok_ratio",
     "serve_mix (flat on the cold workloads)"),
    ("estimate.query_us", "rtt_p50_ms.estimate", "serve_mix"),
    ("estimate.fallback_ratio", "rtt_p50_ms.estimate, estimate_rel_err_p95",
     "serve_mix"),
    ("gen.late_ms_p99", "(validity of every serve_mix timing)", "serve_mix"),
]


def self_times(spans):
    self = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self[int(s["parent"])] -= s["t1"] - s["t0"]
    return self


def check_roots(spans, self):
    """Return a list of roots whose tree's self times miss its wall time."""
    total = [0.0] * len(spans)
    for i in range(len(spans)):
        r = i
        while spans[r]["parent"] >= 0:
            r = int(spans[r]["parent"])
        total[r] += self[i]
    bad = []
    for i, s in enumerate(spans):
        if s["parent"] < 0:
            wall = s["t1"] - s["t0"]
            if abs(total[i] - wall) > 1e-9 + 1e-9 * wall:
                bad.append("%s#%d: self sum %.9f s != wall %.9f s"
                           % (s["name"], s["id"], total[i], wall))
    return bad


def summarize(path):
    with open(path) as f:
        doc = json.load(f)
    spans, metrics = doc["spans"], doc["metrics"]
    self = self_times(spans)

    print("== traced run: %s (%d spans, %s)" % (doc["workload"], len(spans),
                                                 path))
    roots = [s for s in spans if s["parent"] < 0]
    by_layer = {}
    for s, t in zip(spans, self):
        key = s["name"]
        if key == "sim.launch":
            key += ".replay" if s["replayed"] else ".timing"
        by_layer[key] = by_layer.get(key, 0.0) + t
    wall = sum(s["t1"] - s["t0"] for s in roots)
    print("  layer self time (%d root spans, %.3f s wall):" % (len(roots),
                                                              wall))
    for name, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("    %-22s %12.3f ms  %6.2f%%  per root %10.4f ms"
              % (name, t * 1e3, 100 * t / wall if wall else 0,
                 t * 1e3 / max(len(roots), 1)))

    print("  per-layer metrics:")
    for name in sorted(metrics):
        m = metrics[name]
        print("    %-34s %14.6g %-9s n=%d" % (name, m["value"], m["unit"],
                                             m["samples"]))
    if "trace.overhead_ratio" in metrics:
        print("  tracing overhead: %+.2f%% (traced vs untraced wall of the "
              "same jobs)" % (100 * metrics["trace.overhead_ratio"]["value"]))

    if doc["workload"] == "serve_mix":
        v = {k: m["value"] for k, m in metrics.items()}
        stages_ms = (v["stage.parse_us"] + v["engine.lookup_us"]
                     + v["stage.copy_us"] + v["stage.serialize_us"]) / 1e3
        print("  server stages (median us): parse %.1f + lookup %.1f + copy "
              "%.1f + serialize %.1f = %.3f ms; response latencyMs p50 "
              "%.3f ms (it stops before copy and serialize)"
              % (v["stage.parse_us"], v["engine.lookup_us"],
                 v["stage.copy_us"], v["stage.serialize_us"], stages_ms,
                 v["serve.server_ms"]))
        print("  hit round trip p50 %.3f ms = server %.3f + client parse "
              "%.3f + unaccounted (frame I/O, queueing) %.3f ms"
              % (v["rtt_p50_ms.hit"], v["serve.server_ms"],
                 v["stage.client_parse_us"] / 1e3,
                 v["serve.unaccounted_ms"]))

    print("  layer -> end-to-end map:")
    for layer, e2e, workload in LAYER_MAP:
        print("    %-66s -> %s on %s" % (layer, e2e, workload))

    bad = check_roots(spans, self)
    for b in bad:
        print("FAILED self-time check: " + b, file=sys.stderr)
    print("  self times sum to root wall time: %s"
          % ("yes" if not bad else "NO (%d roots)" % len(bad)))
    return not bad


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(0 if summarize(sys.argv[1]) else 1)
