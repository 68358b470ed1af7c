#!/usr/bin/env python3
"""Builds and runs the chart benchmark (see kgbench/README.md).

    python3 kgbench/run.py --workload explore_raw --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The library sources under src/ and the
driver under kgbench/ are compiled into the build directory ($CARGO_TARGET_DIR,
default .bench_build), the benchmark's own metric tests run, then the driver
serves the workload. Its informational lines are passed through and the last
line printed is the result object. With --trace 1 the result carries the
per-layer metrics, including the tracing overhead against an untraced run of
the same workload (taken from an earlier untraced run in this checkout, or
made first when there is none).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"kgbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "kgoa.h")):
        print("kgbench: library sources (src/) not found next to kgbench/",
              file=sys.stderr)
        sys.exit(2)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(command)}")


def run_driver(build_dir, args, trace, cache_dir, spans):
    command = [os.path.join(build_dir, "kgbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--cache-dir", cache_dir]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if spans:
        command += ["--spans", spans]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout, file=sys.stderr)
        fail(f"driver exited with code {done.returncode}")
    info = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if body.startswith("{"):
            info[tag] = json.loads(body)
    return lines[:-1], info, json.loads(lines[-1])


def untraced_ttci_p50(build_dir, args, results_dir, cache_dir):
    """ttci_ms_p50 of an untraced run of this workload and settings: the
    same seed's if recorded, else the median over the recorded seeds, else
    that of a fresh run."""
    mine = os.path.join(results_dir, f"seed{args.seed}.json")
    recorded = sorted(os.listdir(results_dir))
    if os.path.isfile(mine):
        recorded = [os.path.basename(mine)]
    values = []
    for name in recorded:
        with open(os.path.join(results_dir, name)) as f:
            values.append(json.load(f)["ttci_ms_p50"]["value"])
    if values:
        return statistics.median(values)
    _, info, result = run_driver(build_dir, args, 0, cache_dir, None)
    record(results_dir, args.seed, info)
    return result["metrics"]["ttci_ms_p50"]["value"]


def record(results_dir, seed, info):
    with open(os.path.join(results_dir, f"seed{seed}.json"), "w") as f:
        json.dump(info["e2e"], f)


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, "
             f"want {sorted(wanted)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=None,
                        help="graph scale (default: the workload's)")
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
        "kgbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)
    if subprocess.run([os.path.join(build_dir, "kgbench_metrics_test")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("metric tests failed")

    settings = (f"{args.workload}-s{args.seconds:g}-"
                f"x{args.scale if args.scale is not None else 'default'}")
    cache_dir = os.path.join(build_dir, "cache")
    results_dir = os.path.join(build_dir, "results", settings)
    spans_dir = os.path.join(build_dir, "spans")
    for d in (cache_dir, results_dir, spans_dir):
        os.makedirs(d, exist_ok=True)

    spans = (os.path.join(spans_dir, f"{settings}-seed{args.seed}.jsonl")
             if args.trace else None)
    info_lines, info, result = run_driver(build_dir, args, args.trace,
                                          cache_dir, spans)
    if args.trace:
        traced = info["e2e"]["ttci_ms_p50"]["value"]
        untraced = untraced_ttci_p50(build_dir, args, results_dir, cache_dir)
        result["metrics"]["driver.trace_overhead_ratio"] = {
            "value": traced / untraced - 1.0, "unit": "ratio"}
        info_lines.append(f"spans {json.dumps({'path': spans})}")
    else:
        record(results_dir, args.seed, info)
    check_names(result, args.trace)
    for line in info_lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
