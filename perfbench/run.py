#!/usr/bin/env python3
"""End-to-end benchmark of the MTPU reproduction.

Builds the benchmark (perfbench/CMakeLists.txt, Release) from the
sources next to it, runs one workload and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced. With --trace 1 the run is split in two halves of the
same seed: an untraced run, then a traced run whose spans give the
per-layer metrics; trace.overhead compares their throughput.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

Every run also writes its full result (host record, tail percentile and
sample count, per-layer self seconds) to .bench_results/ for
perfbench/compare.py. Exit code 0 when every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["verify-top8", "functional-mix", "stream-durable"]
DEFAULT_SEED = 1
# The whole invocation must end within 180 s; leave room to clean up.
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, deadline, **kw):
    """Run cmd with its output on stderr; raise on failure."""
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, **kw)


def build(deadline):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_quiet(["cmake", "--build", out, "-j", jobs], deadline)
    return out


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def run_binary(exe, workload, seed, seconds, trace, deadline):
    data_dir = os.path.join(ROOT, ".bench_data",
                            "%s-%d-%d" % (workload, os.getpid(), trace))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--data-dir", data_dir]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        raise RuntimeError("perfbench exited %d without a result"
                           % res.returncode)
    return json.loads(lines[-1])


def check_metrics(got, expected, kind):
    if list(got) != expected:
        raise RuntimeError("%s metrics %s do not match BENCHMARK.json %s"
                           % (kind, sorted(got), sorted(expected)))
    for name, m in got.items():
        if not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            raise RuntimeError("metric %s is not a finite number" % name)


def write_result(doc, workload, seed, trace):
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d-%d.json"
                        % (workload, seed, trace, int(time.time() * 1e3)))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def bench(args, deadline):
    m = manifest()
    e2e_names = [x["name"] for x in m["end_to_end"]]
    layer_names = [x["name"] for x in m["per_layer"]]
    exe = os.path.join(build(deadline), "perfbench")
    if args.trace:
        half = args.seconds / 2.0
        plain = run_binary(exe, args.workload, args.seed, half, 0, deadline)
        traced = run_binary(exe, args.workload, args.seed, half, 1, deadline)
        runs = [plain, traced]
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead"] = {
            "value": plain["end_to_end"]["tx_per_s"]["value"]
            / traced["end_to_end"]["tx_per_s"]["value"] - 1.0,
            "unit": "ratio"}
        check_metrics(metrics, layer_names, "per-layer")
    else:
        runs = [run_binary(exe, args.workload, args.seed, args.seconds, 0,
                           deadline)]
        metrics = runs[0]["end_to_end"]
        check_metrics(metrics, e2e_names, "end-to-end")
    host = dict(runs[-1]["host"], git_commit=git_commit())
    if not host["release"]:
        log("perfbench: WARNING: %s build; compare only like builds"
            % host["build_type"])

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    path = write_result({"workload": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace,
                         "host": host, "result": result, "runs": runs},
                        args.workload, args.seed, args.trace)
    for r in runs:
        for failure in r["failures"]:
            log("perfbench: CHECK FAILED: " + failure)
        t = r["tail"]
        print("%s seed %d trace %d: %d blocks, %d txs in %.3f s; tail is "
              "p%.2f of %d samples (%d beyond)"
              % (args.workload, args.seed, int(r["trace"]), r["blocks"],
                 r["txs"], r["timed_s"], t["percentile"], t["samples"],
                 t["beyond"]))
    for name, m in metrics.items():
        print("  %-30s %16.6f %s" % (name, m["value"], m["unit"]))
    print("host: %(hardware_threads)d hardware threads, %(compiler)s, "
          "%(build_type)s, commit %(git_commit)s" % host)
    print("result file: " + os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest(deadline):
    out = build(deadline)
    scratch = os.path.join(ROOT, ".bench_data", "selftest-%d" % os.getpid())
    try:
        res = subprocess.run([os.path.join(out, "perfbench_selftest"),
                              scratch],
                             timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return res.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="input seed (default 1; seed 1009 is held out "
                        "for checking claimed gains)")
    p.add_argument("--seconds", type=float,
                   help="timed seconds (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's self-tests")
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.seconds is None:
            args.seconds = float(manifest()["run_seconds"])
        if args.seconds <= 0:
            p.error("--seconds must be positive")
        if args.selftest:
            return selftest(time.monotonic() + 900)
        if not args.workload:
            p.error("--workload is required")
        # The first run in a fresh checkout builds; give it the build's
        # own allowance, then hold the run itself to the deadline.
        if not os.path.exists(os.path.join(build_dir(), "perfbench")):
            build(time.monotonic() + 700)
            deadline = time.monotonic() + DEADLINE_S
        return bench(args, deadline)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
