#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload and end-to-end metric it prints the median of the runs,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. A spread
under a third of its bound is marked "steady".

    python3 fleetbench/prove.py --seeds 10
    python3 fleetbench/prove.py --seeds 5 --workloads fault_storm
    python3 fleetbench/prove.py --seeds 3 --trace 1 --summary .fleetbench/traced.json

Run it from the root of the repository. Raw results go to --out as JSON;
--summary writes each metric's median, quartiles and spread per workload.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    calib = re.findall(r"calib_(?:start|end)_ms=([0-9.]+)", proc.stdout)
    result["calib_ms"] = [float(c) for c in calib]
    # Every "name = value unit" line, the figures that are only printed too.
    result["printed"] = {
        m.group(1): float(m.group(2))
        for m in re.finditer(r"^([A-Za-z0-9_.]+) = (-?[0-9.]+(?:e-?[0-9]+)?) ", proc.stdout, re.M)}
    result["elapsed_s"] = elapsed
    return result, lines[:-1], elapsed


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out", default="")
    parser.add_argument("--summary", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    metrics = bench["per_layer" if opts.trace else "end_to_end"]
    seeds = range(opts.first_seed, opts.first_seed + opts.seeds)

    raw = {}
    summary = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, _, elapsed = run_once(
                bench["command"], workload, seed, bench["run_seconds"], opts.trace)
            runs.append(result)
            status = "ok" if result["correct"] else "INCORRECT"
            calib = " ".join(f"{c:.2f}" for c in result["calib_ms"])
            print(f"{workload} seed {seed}: {status} failed={result['failed']}"
                  f"/{result['attempted']} in {elapsed:.1f} s, calib ms {calib}", flush=True)
        raw[workload] = runs
        calib = [c for r in runs for c in r["calib_ms"]]
        summary[workload] = {"host.calib_ms median": statistics.median(calib)}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            summary[workload][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = metric.get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            print(f"  {name:32s} median {median:14.6g}  Q1 {q1:14.6g}  Q3 {q3:14.6g}"
                  f"  spread {spread:7.3f}  bound {bound}  {verdict}", flush=True)
        printed = sorted({k for r in runs for k in r["printed"]} - {m["name"] for m in metrics})
        for name in printed:
            values = [r["printed"][name] for r in runs if name in r["printed"]]
            median, q1, q3, spread = summarize(values)
            summary[workload][name] = {
                "printed_only": True, "median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:32s} median {median:14.6g}  Q1 {q1:14.6g}  Q3 {q3:14.6g}"
                  f"  spread {spread:7.3f}  (printed only)", flush=True)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"seeds": list(seeds), "trace": opts.trace, "runs": raw}, f, indent=1)
    if opts.summary:
        with open(opts.summary, "w") as f:
            json.dump({"seeds": list(seeds), "run_seconds": bench["run_seconds"],
                       "trace": opts.trace, "workloads": summary}, f, indent=1)


if __name__ == "__main__":
    main()
