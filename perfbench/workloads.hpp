/**
 * @file
 * The benchmark's workloads. Each is a closed loop: the next block
 * (or stream slot) starts when the previous one commits. A run sets
 * the workload up several times (reporting the median set-up time),
 * measures for the requested seconds, then checks its outputs outside
 * the timed phase.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunSpec
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Data directory of stream-durable (recreated empty; left behind
     *  for the caller to inspect and remove). */
    std::string dataDir;
    /**
     * When nonzero, time exactly this many blocks instead of
     * `seconds` (functional-mix rounds up to whole passes). Used by
     * the self-tests, which need runs of identical length.
     */
    std::uint64_t blocks = 0;
};

struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0; ///< blocks or slots, plus final checks
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer; ///< traced runs only

    Tail blockTail;
    std::vector<double> blockSeconds; ///< every timed block, in order
    std::vector<double> windowRates;  ///< tx/s of each timed window
    double timedSeconds = 0.0;
    std::uint64_t blocks = 0;
    std::uint64_t txs = 0;
    std::vector<Span> spans; ///< every recorded span (traced runs)
    /** Self seconds per span name in the timed phase, plus "other". */
    std::map<std::string, double> selfSeconds;
    std::string finalDigest; ///< hex chain digest the run checked
};

/** Names accepted by runWorkload(), in manifest order. */
const std::vector<std::string> &workloadNames();

/** Every per-layer metric a traced run reports, with its unit. */
const std::vector<std::pair<std::string, std::string>> &perLayerNames();

/** @throws std::invalid_argument for an unknown workload name. */
RunResult runWorkload(const RunSpec &spec);

} // namespace perfbench
