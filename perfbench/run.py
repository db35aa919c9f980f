#!/usr/bin/env python3
"""Builds and runs the EL-Rec repository benchmark for one workload.

    python3 perfbench/run.py --workload train_tt --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which pulls in the repository's own CMake project) under
.bench_build/; later runs rebuild incrementally. The benchmark binary writes its
checkpoint and chrome trace under .bench_out/.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is the
separate traced run and reports the per-layer metrics, reducing the chrome
trace of the library's own spans to self times per span family. Every run
also writes its full result (metrics, checks, run metadata, span summary) to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit status: 0 when every correctness check passed, 1
otherwise (also when the build fails), 2 on bad usage.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train_tt", "train_ps", "serve_local", "serve_sharded")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SPAN_FAMILIES = ("efftt.", "dlrm.", "tensor.batched_gemm", "elrec.", "codec.",
                 "serve.", "shard.")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
           str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def span_summary(trace_path):
    """Per span name: count, total and self microseconds, and durations.

    Self time is a span's duration minus the part its direct children cover;
    spans nest strictly per thread (RAII), so a stack walk in start order
    (longer span first on equal starts) recovers the tree.
    """
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    spans = defaultdict(lambda: {"count": 0, "total_us": 0.0, "self_us": 0.0,
                                 "durs": []})
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, dur, covered]
        def close(frame):
            s = spans[frame[1]]
            s["count"] += 1
            s["total_us"] += frame[2]
            s["self_us"] += max(0.0, frame[2] - frame[3])
            s["durs"].append(frame[2])
        for e in evs:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][3] += e["dur"]
            stack.append([e["ts"] + e["dur"], e["name"], e["dur"], 0.0])
        while stack:
            close(stack.pop())
    return spans


def span_layer_metrics(spans, shard_spans, raw):
    """Per-layer metrics that come from the library's own spans.

    shard_spans holds the spans of a separate sharded-tier pass (serve_local
    measures the shard layer that way); it is `spans` for the other
    workloads.
    """
    batches = max(1.0, raw.get("batches", 1.0))

    def total(name):
        return spans[name]["total_us"] if name in spans else 0.0

    def self_us(name):
        return spans[name]["self_us"] if name in spans else 0.0

    def per_batch_ms(us):
        return us / batches / 1e3

    bgemm_s = self_us("tensor.batched_gemm") / 1e6
    route = (shard_spans["shard.route"]["durs"]
             if "shard.route" in shard_spans else [])
    batch_us = total("elrec.batch")
    untraced, traced = raw["untraced_headline"], raw["traced_headline"]
    if raw.get("headline_higher_is_better", 1.0) > 0.5:
        overhead = (untraced / traced - 1.0) * 100.0
    else:
        overhead = (traced / untraced - 1.0) * 100.0
    return {
        "tensor.bgemm_gflops": (raw.get("tensor.batched_gemm.flops", 0.0) /
                                bgemm_s / 1e9 if bgemm_s > 0 else 0.0, "GFLOP/s"),
        "core.efftt_fwd_ms_per_batch": (
            per_batch_ms(total("efftt.forward") + total("efftt.lookup")), "ms"),
        "core.efftt_bwd_ms_per_batch": (per_batch_ms(total("efftt.backward")),
                                        "ms"),
        "dlrm.fwd_ms_per_batch": (per_batch_ms(self_us("dlrm.forward")), "ms"),
        "dlrm.bwd_ms_per_batch": (per_batch_ms(self_us("dlrm.backward")), "ms"),
        "pipeline.prefetch_wait_share": (
            total("elrec.prefetch_wait") / batch_us if batch_us > 0 else 0.0,
            "ratio"),
        "pipeline.host_pull_ms_per_batch": (per_batch_ms(total("elrec.host_pull")),
                                            "ms"),
        "pipeline.host_push_ms_per_batch": (per_batch_ms(total("elrec.host_push")),
                                            "ms"),
        "codec.encode_ms_per_batch": (per_batch_ms(total("codec.encode")), "ms"),
        "codec.decode_ms_per_batch": (per_batch_ms(total("codec.decode")), "ms"),
        "shard.route_us_p50": (statistics.median(route) if route else 0.0, "us"),
        "obs.tracing_overhead_pct": (overhead, "%"),
    }


def family_self_ms(spans):
    fam = defaultdict(float)
    for name, s in spans.items():
        for prefix in SPAN_FAMILIES:
            if name.startswith(prefix):
                fam[prefix.rstrip(".")] += s["self_us"] / 1e3
    return dict(fam)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    # Thread budget: the trainer's worker drives an OpenMP team of
    # nproc - 1 beside its server thread; serving workers run one thread
    # each beside the load generator.
    env["OMP_NUM_THREADS"] = str(max(1, nproc() - 1)
                                 if args.workload.startswith("train") else 1)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        doc = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: the benchmark binary printed no result (exit %d)" %
            proc.returncode)
        return 1

    metrics = doc[section]
    spans, shard_path = {}, None
    if args.trace:
        spans = span_summary(doc["meta"]["trace.path"])
        shard_path = doc["meta"].get("trace.shard_path")
        shard_spans = span_summary(shard_path) if shard_path else spans
        for name, (value, unit) in span_layer_metrics(spans, shard_spans,
                                                      doc["raw"]).items():
            metrics[name] = {"value": value, "unit": unit}
            print("  %-34s %14.6g %s" % (name, value, unit))
        for title, sp in (("traced window", spans),
                          ("sharded-tier pass", shard_spans if shard_path else {})):
            if sp:
                print("== self time per span family (ms, %s) ==" % title)
                for fam, ms in sorted(family_self_ms(sp).items()):
                    print("  %-34s %14.3f" % (fam, ms))

    problems = []
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric " + name)
        elif m["unit"] != unit:
            problems.append("%s has unit %s, declared %s" % (name, m["unit"], unit))
        elif m["value"] is None or not math.isfinite(m["value"]):
            problems.append("%s is not a finite number" % name)
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        problems.append("undeclared metrics " + ", ".join(undeclared))
    for p in problems:
        log("perfbench: " + p)
    correct = bool(doc["correct"]) and not problems and proc.returncode == 0

    meta = dict(doc["meta"])
    meta["git_sha"] = git_sha()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": metrics, "raw": doc["raw"],
        "checks": doc["checks"], "flags": doc["flags"], "meta": meta,
        "span_self_ms": {n: s["self_us"] / 1e3 for n, s in spans.items()},
        "span_family_self_ms": family_self_ms(spans) if spans else {},
        "span_family_self_ms_shard_pass":
            family_self_ms(shard_spans) if args.trace and shard_path else {},
    }
    path = os.path.join(out_dir, "result-%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("  git %s, result file %s" % (meta["git_sha"], os.path.relpath(path, ROOT)))

    final = {"correct": correct, "attempted": int(doc["attempted"]),
             "failed": int(doc["failed"]),
             "metrics": {n: metrics[n] for n in declared if n in metrics}}
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
