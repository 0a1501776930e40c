#!/usr/bin/env python3
"""Build and run the Garfield benchmark, or compare two of its result files.

  python3 garfield_bench/run.py --workload W [--seed S] [--seconds T]
                                [--trace 0|1] [--out FILE]
  python3 garfield_bench/run.py [--seed S] [--seconds T] [--trace 0|1]
                                [--out SET.json]
  python3 garfield_bench/run.py --diff A.json B.json

Run from the root of a Garfield checkout. Every invocation first builds
bench_garfield from the checkout's sources (incremental after the first
time) under $CARGO_TARGET_DIR/garfield, default
.bench_build/garfield. With --workload it runs that one workload in its own
process, prints each metric with its unit, writes the full result (raw
values, quartiles, checks, host) to --out, and prints as its last line
{"correct", "attempted", "failed", "metrics"}. Without --workload it runs
every workload of BENCHMARK.json, each in its own process, and writes them
as one set file. --diff compares two result or set files metric by metric
against the bounds in BENCHMARK.json and exits 1 if any row is worse.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "garfield")
OUT_DIR = os.path.join(BUILD_DIR, "out")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build bench_garfield; raises on failure."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                    "--target", "bench_garfield"],
                   check=True, env=env, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bench_garfield")


def run_timeout_s(seconds):
    """bench_garfield's timed loop stops by 4 x seconds; warm-up and set-up
    runs come on top."""
    return 5 * seconds + 60


def run_binary(binary, workload, seed, seconds, trace):
    """One workload in its own process; returns its raw result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", OUT_DIR]
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: no result within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: bench_garfield exited {proc.returncode}")
    return json.loads(lines[-1])


def stats(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def git_sha():
    # Only this checkout's own repository: git would otherwise search the
    # directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def metric_names(spec, trace):
    """The metrics BENCHMARK.json gates in this mode."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def finish(raw, spec):
    """Add quartiles and the host's git sha; fail the result if a metric
    BENCHMARK.json names for this mode is missing."""
    result = dict(raw)
    result["host"] = dict(raw["host"], git_sha=git_sha())
    for metric in result["metrics"].values():
        metric.update(stats(metric["values"]))
    missing = [n for n in metric_names(spec, raw["trace"])
               if n not in result["metrics"]]
    result["checks"] = raw["checks"] + [{
        "name": "metrics_present", "ok": not missing,
        "detail": "missing: " + ", ".join(missing) if missing else "all present"}]
    result["correct"] = raw["correct"] and not missing
    return result


def print_result(result):
    print(f"{result['workload']} (seed {result['seed']}, "
          f"{len(result['repeats'])} repeats, {result['attempted']} runs, "
          f"{result['failed']} failed, {result['disturbed']} disturbed)")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['median']:14.6g} {m['unit']:6s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")


def write_json(path, obj):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1)
        f.write("\n")


# ------------------------------------------------------------------ diff

def load_set(path):
    with open(path) as f:
        data = json.load(f)
    if "workloads" in data:
        return data["workloads"]
    return {data["workload"]: data}


def verdict(a, b, better, bound, disturbed):
    """better / same / worse / unresolved for side b against side a."""
    sign = 1 if better == "higher" else -1
    gain = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    if disturbed:
        return gain, "unresolved"
    if spread > bound:
        if min(sign * v for v in b["values"]) > max(sign * v for v in a["values"]):
            return gain, "better"
        if max(sign * v for v in b["values"]) < min(sign * v for v in a["values"]):
            return gain, "worse"
        return gain, "unresolved"
    if gain < -bound:
        return gain, "worse"
    return gain, "better" if gain > bound else "same"


def diff(path_a, path_b, spec):
    a_set, b_set = load_set(path_a), load_set(path_b)
    worse = 0
    print(f"{'workload':10s} {'metric':16s} {'A median':>12s} {'A iqr':>7s} "
          f"{'B median':>12s} {'B iqr':>7s} {'delta':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(a_set) & set(b_set)):
        a_res, b_res = a_set[workload], b_set[workload]
        disturbed = a_res.get("disturbed", 0) + b_res.get("disturbed", 0)
        for m in spec["end_to_end"]:
            a, b = a_res["metrics"].get(m["name"]), b_res["metrics"].get(m["name"])
            if a is None or b is None:
                print(f"{workload:10s} {m['name']:16s} missing on one side  unresolved")
                continue
            gain, v = verdict(a, b, m["better"], m["bound"], disturbed)
            worse += v == "worse"
            print(f"{workload:10s} {m['name']:16s} {a['median']:12.6g} "
                  f"{(a['q3'] - a['q1']) / a['median']:7.2%} {b['median']:12.6g} "
                  f"{(b['q3'] - b['q1']) / b['median']:7.2%} {gain:+8.2%} "
                  f"{m['bound']:6.0%}  {v}")
    return 1 if worse else 0


# ------------------------------------------------------------------ main

def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    spec = load_spec()
    if args.diff:
        return diff(args.diff[0], args.diff[1], spec)

    seconds = args.seconds or spec["run_seconds"]
    try:
        binary = build()
        os.makedirs(OUT_DIR, exist_ok=True)
        workloads = [args.workload] if args.workload else \
            [w["name"] for w in spec["workloads"]]
        results = {}
        for workload in workloads:
            results[workload] = finish(
                run_binary(binary, workload, args.seed, seconds, args.trace), spec)
            print_result(results[workload])
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        log(f"run.py: {e}")
        return 1

    mode = "trace" if args.trace else "result"
    if args.workload:
        result = results[args.workload]
        out = args.out or os.path.join(OUT_DIR, f"{mode}_{args.workload}.json")
        write_json(out, result)
        log(f"wrote {out}")
        metrics = result["metrics"]
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": metrics[n]["median"], "unit": metrics[n]["unit"]}
                        for n in metric_names(spec, args.trace) if n in metrics}}))
        return 0
    out = args.out or os.path.join(OUT_DIR, f"{mode}_set.json")
    write_json(out, {"workloads": results})
    log(f"wrote {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
