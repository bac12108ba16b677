#!/usr/bin/env python3
"""Build and run the js-ceres-rs benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload fleet-dep --seed 1 --seconds 25 --trace 0

prints what it measured and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end set with
`--trace 0`, the per-layer set with `--trace 1`).

Other modes:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
        every workload once, one after the other
    python3 perfbench/run.py --steady [--runs 10] [--workload W ...]
        each workload --runs times with seeds 1..runs; prints every
        end-to-end metric's median and quartiles against its bound
    python3 perfbench/run.py --regenerate-expected
        rewrite perfbench/expected/answers.tsv with the tree-walker

Run from the repository root. Builds go to $CARGO_TARGET_DIR, or to
.bench_build when it is unset; scratch files go to .bench_out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
ANSWERS = os.path.join(BENCH_DIR, "expected", "answers.tsv")
SCRATCH = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["fleet-dep", "fleet-loop", "serve-mix"]


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Build the benchmark and the daemon; return their paths or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "ceres-bench", "--bin", "jsceresd"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "jsceresd")


def run_once(bins, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, parsed result line or None)."""
    bench, daemon = bins
    cmd = [bench, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--daemon", daemon, "--answers", ANSWERS, "--scratch", SCRATCH]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(os.path.join(SCRATCH, "tmp"), ignore_errors=True)
    lines = done.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    if done.returncode != 0 or not lines:
        return done.returncode or 1, None
    return 0, json.loads(lines[-1])


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(bins, workloads, runs, seconds):
    """Repeat each workload; print each end-to-end metric's spread."""
    spec = load_bench()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            code, result = run_once(bins, w, seed, seconds, 0, echo=False)
            if code != 0:
                print(f"{w} seed {seed}: failed (exit {code})")
                return code
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        print(f"\n{w}: {runs} runs of {seconds} s")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  (above a third of the bound)"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bounds[name]:>6}{flag}")
        print(flush=True)
    print(f"largest spread over bound (setup_s aside): {worst:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--regenerate-expected", action="store_true")
    a = p.parse_args()

    bins = build()
    if bins is None:
        return 1
    if a.regenerate_expected:
        env = dict(os.environ, CERES_INTERP_BACKEND="tree")
        cmd = [bins[0], "expect", "--daemon", bins[1], "--out", ANSWERS, "--scratch", SCRATCH]
        code = subprocess.run(cmd, env=env).returncode
        shutil.rmtree(os.path.join(SCRATCH, "tmp"), ignore_errors=True)
        return code
    if a.steady:
        return steady(bins, a.workload or WORKLOADS, a.runs, a.seconds)
    seconds = a.seconds or load_bench()["run_seconds"]
    if a.all:
        for w in WORKLOADS:
            code, _ = run_once(bins, w, a.seed, seconds, a.trace)
            if code != 0:
                return code
        return 0
    if not a.workload or len(a.workload) != 1:
        p.error("name one --workload (or use --all / --steady)")
    code, _ = run_once(bins, a.workload[0], a.seed, seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
