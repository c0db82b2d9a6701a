/**
 * @file
 * Self-tests of the benchmark: the tail rule, span self time, the
 * timing Storage decorator's pass-through, and a smoke run of every
 * workload that prints each named metric with its unit.
 *
 * Usage: perfbench_selftest SCRATCH_DIR   (run via run.py --selftest)
 * Exit code 0 when every check passes, 1 otherwise.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-9;
}

void
testTailRule()
{
    for (std::size_t n : {11u, 12u, 20u, 33u, 100u, 1000u}) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(double((i * 7919) % n)); // a permutation of 0..n-1
        Tail t = tail(v);
        std::size_t above = std::count_if(
            v.begin(), v.end(), [&](double x) { return x > t.value; });
        check(above == Tail::kTailBeyond && t.beyond == Tail::kTailBeyond
                  && near(t.value, double(n - 11)),
              "tail of " + std::to_string(n) + " samples has exactly 10 "
              "samples beyond it");
        check(near(t.percentile, 100.0 * double(n - 10) / double(n)),
              "tail percentile of " + std::to_string(n) + " samples");
    }
    Tail small = tail({3.0, 1.0, 2.0});
    check(near(small.value, 3.0) && small.beyond == 0 && small.samples == 3,
          "fewer than 11 samples: the maximum, with 0 beyond recorded");
}

void
testSelfTime()
{
    // parent [0,10] with children [1,3], [2,5] (overlapping) and [7,8].
    std::vector<Span> spans{{"parent", 0, 10, -1},
                            {"child", 1, 3, 0},
                            {"child", 2, 5, 0},
                            {"leaf", 7, 8, 0},
                            {"grandchild", 7.5, 8, 3}};
    auto self = selfTimes(spans, {{0, 10}});
    check(near(self["parent"], 5.0),
          "self time = span minus the union of its children");
    check(near(self["leaf"], 0.5) && near(self["grandchild"], 0.5),
          "nested spans attribute only their own uncovered time");
    check(near(self["child"], 5.0), "spans of one name sum their self times");
    auto clipped = selfTimes(spans, {{0, 6}});
    check(near(clipped["parent"], 2.0),
          "self time is clipped to the timed windows");
    check(near(unattributed(spans, {{-1, 12}}), 3.0),
          "window time outside every root span is 'other'");

    SpanRecorder rec(true);
    {
        SpanRecorder::Scope a(rec, "a");
        SpanRecorder::Scope b(rec, "b");
    }
    SpanRecorder::Scope c(rec, "c");
    check(rec.spans().size() == 3 && rec.spans()[0].parent == -1
              && rec.spans()[1].parent == 0 && rec.spans()[2].parent == -1,
          "recorder links each span to the enclosing open span");
    SpanRecorder off(false);
    {
        SpanRecorder::Scope d(off, "d");
    }
    check(off.spans().empty(), "a disabled recorder records nothing");
}

std::map<std::string, std::string>
directoryContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        out[e.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return out;
}

void
testTimingStoragePassThrough(const std::string &scratch)
{
    // Same slots with and without the decorator (traced runs wrap the
    // FileStorage in TimingStorage): identical digests and files.
    RunSpec spec;
    spec.workload = "stream-durable";
    spec.seed = 3;
    spec.blocks = 40; // past two snapshots
    spec.dataDir = scratch + "/plain";
    RunResult plain = runWorkload(spec);
    spec.trace = true;
    spec.dataDir = scratch + "/timed";
    RunResult timed = runWorkload(spec);
    check(plain.correct && timed.correct, "both stream runs pass checks");
    check(plain.finalDigest == timed.finalDigest,
          "same chain digest with and without TimingStorage");
    check(directoryContents(scratch + "/plain")
              == directoryContents(scratch + "/timed"),
          "WAL and snapshot files are byte-for-byte identical");
    check(timed.selfSeconds.count("persist.sync")
              && timed.selfSeconds.count("persist.snapshot"),
          "TimingStorage recorded sync and snapshot spans");
}

void
testSmoke(const std::string &scratch)
{
    for (const std::string &name : workloadNames()) {
        RunSpec spec;
        spec.workload = name;
        spec.seed = 1;
        spec.blocks = 3;
        spec.trace = true;
        spec.dataDir = scratch + "/smoke";
        RunResult r = runWorkload(spec);
        std::printf("-- %s: %llu blocks, %llu txs\n", name.c_str(),
                    (unsigned long long)r.blocks,
                    (unsigned long long)r.txs);
        for (const auto *list : {&r.endToEnd, &r.perLayer})
            for (const Metric &m : *list)
                std::printf("   %-30s %14.6g %s\n", m.name.c_str(), m.value,
                            m.unit.c_str());
        check(r.correct && r.failed == 0, name + " smoke run is correct");
        check(r.endToEnd.size() == 6
                  && r.perLayer.size() == perLayerNames().size(),
              name + " reports every named metric");
        double attributed = 0.0;
        for (const auto &[span, seconds] : r.selfSeconds)
            attributed += seconds;
        check(std::abs(attributed - r.timedSeconds)
                  <= 1e-6 * std::max(1.0, r.timedSeconds),
              name + " self times plus other cover the timed phase");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: perfbench_selftest SCRATCH_DIR\n");
        return 2;
    }
    const std::string scratch = argv[1];
    std::filesystem::create_directories(scratch);

    testTailRule();
    testSelfTime();
    testTimingStoragePassThrough(scratch);
    testSmoke(scratch);

    std::filesystem::remove_all(scratch);
    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}
