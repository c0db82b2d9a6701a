/**
 * @file
 * The benchmark driver binary: runs one workload once and prints one
 * JSON object with every metric, the tail rule's percentile and
 * sample count, per-layer self seconds, the raw spans of a traced run
 * ([name, start, end, parent index]) and the host record.
 * perfbench/run.py builds it, calls it and reduces its output.
 *
 * Usage: perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--data-dir DIR]
 * Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using mtpu::obs::jsonQuote;
using namespace perfbench;

/** Full-precision number: every digit a timing has is kept. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + num(values[i]);
    return out + "]";
}

std::string
metricsObject(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonQuote(metrics[i].name)
             + ": {\"value\": " + num(metrics[i].value)
             + ", \"unit\": " + jsonQuote(metrics[i].unit) + "}";
    }
    return out + "}";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--data-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                spec.workload = val;
            else if (arg == "--seed")
                spec.seed = std::stoull(val);
            else if (arg == "--seconds")
                spec.seconds = std::stod(val);
            else if (arg == "--trace")
                spec.trace = std::stoi(val) != 0;
            else if (arg == "--data-dir")
                spec.dataDir = val;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (spec.workload.empty())
        return usage("--workload is required");

    RunResult r;
    try {
        r = runWorkload(spec);
    } catch (const std::invalid_argument &e) {
        return usage(e.what());
    }

    const HostRecord host = hostRecord();
    std::string failures = "[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        failures += (i ? ", " : "") + jsonQuote(r.failures[i]);
    failures += "]";
    std::string spans = "[";
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const Span &sp = r.spans[i];
        spans += std::string(i ? ", " : "") + "[" + jsonQuote(sp.name) + ", "
               + num(sp.start) + ", " + num(sp.end) + ", "
               + std::to_string(sp.parent) + "]";
    }
    spans += "]";
    std::string self = "{";
    bool first = true;
    for (const auto &[name, seconds] : r.selfSeconds) {
        self += (first ? "" : ", ") + jsonQuote(name) + ": " + num(seconds);
        first = false;
    }
    self += "}";

    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %s, "
        "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"failures\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
        "\"tail\": {\"percentile\": %s, \"samples\": %zu, "
        "\"beyond\": %zu}, \"block_s\": %s, \"window_tx_per_s\": %s, "
        "\"timed_s\": %s, \"blocks\": %llu, "
        "\"txs\": %llu, \"self_s\": %s, \"spans\": %s, "
        "\"final_digest\": %s, "
        "\"host\": {\"hardware_threads\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"release\": %s}}\n",
        jsonQuote(spec.workload).c_str(), (unsigned long long)spec.seed,
        spec.trace ? "true" : "false", r.correct ? "true" : "false",
        (unsigned long long)r.attempted, (unsigned long long)r.failed,
        failures.c_str(), metricsObject(r.endToEnd).c_str(),
        metricsObject(r.perLayer).c_str(),
        num(r.blockTail.percentile).c_str(), r.blockTail.samples,
        r.blockTail.beyond, numbers(r.blockSeconds).c_str(),
        numbers(r.windowRates).c_str(), num(r.timedSeconds).c_str(),
        (unsigned long long)r.blocks, (unsigned long long)r.txs,
        self.c_str(), spans.c_str(), jsonQuote(r.finalDigest).c_str(),
        host.hardwareThreads, jsonQuote(host.compiler).c_str(),
        jsonQuote(host.buildType).c_str(), host.release ? "true" : "false");
    return r.correct ? 0 : 1;
}
