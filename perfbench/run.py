#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload chip-batch --seed 1 --seconds 40 --trace 0

Steadiness mode runs one or more workloads on several seeds, each run in
its own process, and prints every metric's median, quartiles and spread
against its bound in BENCHMARK.json. With --sets 2 it runs two sets of
runs and checks that the second set's medians are no worse than the
first's by more than each bound:

    python3 perfbench/run.py --steady --workload chip-batch --runs 10 --sets 2

The negative self-test runs every workload with one output deliberately
corrupted and passes only if every such run fails its checks:

    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files go under it and are removed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["chip-batch", "edit-session", "spice-reference"]


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the harness; returns its path, or None when the build fails."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target_dir()))
    if result.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, corrupt=False):
    """One run in its own process: (exit code, info dict, result dict or None)."""
    work_dir = os.path.join(target_dir(), "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result, info = None, {}
    for line in lines:
        parsed = json.loads(line)
        if "info" in parsed:
            info = parsed["info"]
        else:
            result = parsed
    return proc.returncode, info, result, proc.stdout


def spread_row(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(binary, spec, args):
    # Metrics from a run's info line have no bound (see README.md).
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values, failed_shares = {}, set()
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                started = time.monotonic()
                code, info, result, _ = run_once(binary, workload, seed, seconds, 0)
                wall = time.monotonic() - started
                if code != 0 or result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    ok = False
                    continue
                failed_shares.add((result["failed"], result["attempted"],
                                   result["failed"] / result["attempted"]))
                metrics = dict(result["metrics"])
                metrics.update(info)
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} set {s + 1} seed {seed} ({wall:.1f} s): "
                      + " ".join(f"{n}={m['value']:.5g}" for n, m in metrics.items()),
                      flush=True)
            shares = sorted({share for _, _, share in failed_shares})
            print(f"{workload} set {s + 1}: failed share per run {shares}")
            sets.append((values, shares))
        print(f"\n{workload}: {args.runs} runs of {seconds} s per set")
        print(f"{'metric':<20} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} verdict")
        for name in sets[0][0]:
            better, bound = bounds.get(name, ("lower", None))
            for i, (values, _) in enumerate(sets):
                if len(values.get(name, [])) < 2:
                    continue
                q1, q2, q3, spread = spread_row(values[name])
                verdict = "-"
                if bound is not None and name != "setup_s":
                    verdict = "ok" if spread <= bound / 3 else (
                        "within bound" if spread <= bound else "TOO WIDE")
                    ok &= spread <= bound
                print(f"{name:<20} {i + 1:>3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.3f} {bound if bound is not None else '-':>6} {verdict}")
            if len(sets) == 2 and bound is not None:
                m1 = statistics.median(sets[0][0][name])
                m2 = statistics.median(sets[1][0][name])
                change = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
                agree = change <= bound
                ok &= agree
                print(f"{name:<20}     second median {m2:.5g} vs first {m1:.5g}: "
                      f"{100 * change:+.1f}% worse, {'agree' if agree else 'DISAGREE'}")
        if len(sets) == 2 and sets[0][1] != sets[1][1]:
            print(f"{workload}: failed shares differ between the sets")
            ok = False
        print()
    return ok


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        code, _, result, _ = run_once(binary, workload, 1, 1, 0, corrupt=True)
        caught = code != 0 and result is not None and not result["correct"]
        print(f"{workload}: corrupted output {'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    if args.steady:
        return 0 if steady(binary, spec, args) else 1
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    seconds = args.seconds or spec["run_seconds"]
    code, _, result, stdout = run_once(binary, args.workload[0], args.seed, seconds, args.trace)
    sys.stdout.write(stdout)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
