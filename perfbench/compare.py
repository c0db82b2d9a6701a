#!/usr/bin/env python3
"""Report-only comparison of two sets of benchmark result files.

Each side is a result file written by perfbench/run.py, or a directory
of them (.bench_results/). Per workload it prints the median of every
end-to-end metric on both sides, with the run count, and the per-layer
self-time shares of the timed phase (from traced runs) side by side.
It never gates: wall time is noisy, so a difference here is a question,
not a verdict. Results from unlike hosts (thread count, compiler, build
type) are flagged.

Usage: python3 perfbench/compare.py BASE NEW
"""

import json
import os
import statistics
import sys


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json"))
    docs = []
    for f in files:
        with open(f) as fh:
            docs.append(json.load(fh))
    return docs


def summarize(docs):
    """workload -> (end-to-end values, self-time shares, hosts)."""
    out = {}
    for d in docs:
        e2e, shares, hosts = out.setdefault(d["workload"], ({}, {}, set()))
        hosts.add((d["host"]["hardware_threads"], d["host"]["compiler"],
                   d["host"]["build_type"]))
        for run in d["runs"]:
            if not run["trace"]:
                for name, m in run["end_to_end"].items():
                    e2e.setdefault((name, m["unit"]), []).append(m["value"])
            elif run["timed_s"] > 0:
                for span, secs in run["self_s"].items():
                    shares.setdefault(span, []).append(secs / run["timed_s"])
    return out


def fmt(values, scale=1.0):
    if not values:
        return "-"
    return "%.6g (n=%d)" % (statistics.median(values) * scale, len(values))


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    base, new = (summarize(load(p)) for p in sys.argv[1:])
    for workload in sorted(set(base) | set(new)):
        b = base.get(workload, ({}, {}, set()))
        n = new.get(workload, ({}, {}, set()))
        print("== %s" % workload)
        if b[2] and n[2] and b[2] != n[2]:
            print("   WARNING: unlike hosts %s vs %s" % (b[2], n[2]))
        print("   %-28s %-22s %-22s %s" % ("end-to-end median", "base",
                                            "new", "new/base"))
        for key in sorted(set(b[0]) | set(n[0])):
            bv, nv = b[0].get(key, []), n[0].get(key, [])
            ratio = ("%.3f" % (statistics.median(nv) / statistics.median(bv))
                     if bv and nv and statistics.median(bv) else "-")
            print("   %-28s %-22s %-22s %s" % ("%s [%s]" % key, fmt(bv),
                                                fmt(nv), ratio))
        print("   %-28s %-22s %-22s" % ("self-time % (traced)", "base",
                                         "new"))
        for span in sorted(set(b[1]) | set(n[1])):
            print("   %-28s %-22s %-22s" % (span, fmt(b[1].get(span), 100),
                                             fmt(n[1].get(span), 100)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
