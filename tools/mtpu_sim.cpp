/**
 * @file
 * mtpu_sim — command-line driver for the MTPU simulator. Generates
 * synthetic blocks and executes them under a chosen scheme, printing
 * per-block speedup, utilization and throughput.
 *
 * Usage:
 *   mtpu_sim [--txs N] [--dep R] [--erc20 R] [--pus N] [--blocks N]
 *            [--seed S] [--pack NAME] [--scheme seq|sync|st] [--window M]
 *            [--db-entries N] [--no-redundancy] [--no-hotspot]
 *            [--mhz F] [--threads N] [--json PATH]
 *            [--trace PATH] [--trace-host] [--metrics] [--functional]
 *            [--inject-seed S] [--drop-edges R]
 *            [--abort-rate R] [--pu-fault N] [--no-recovery] [--help]
 *
 * With any of the --inject-* / --drop-edges / --abort-rate /
 * --pu-fault / --watchdog-budget flags, each block is run through the
 * fault injector (degraded DAG, forced aborts, PU faults), recovered
 * speculatively, and audited for serializability.
 *
 * With --functional, blocks run on the functional fast tier
 * (direct-threaded interpreter over pre-decoded programs,
 * decoded-code + result-memo caches, speculative fan-out with
 * program-order commit) and on the audited cycle-level MTPU model,
 * wall-clock timed, with the final state digests cross-checked
 * (exit 2 on divergence).
 *
 * With --stream, blocks are not pre-generated: an open-loop producer
 * feeds wire transactions through the bounded mempool (admission
 * control, credit backpressure, deterministic shedding) and the
 * StreamServer cuts and executes one block per slot. --chaos arms the
 * seeded stream fault injector (burst floods, stalls, byzantine
 * windows).
 *
 * With --stream --data-dir PATH, every committed block is appended to
 * a CRC-framed write-ahead log (fsync per slot) and the chain state is
 * snapshotted every --snapshot-every blocks. On startup the directory
 * is recovered first: newest valid snapshot, WAL tail repair, replay
 * through the engine — then the soak continues where the previous
 * process stopped, reaching a final chain digest bit-identical to an
 * uninterrupted run. MTPU_CRASH_AT_SLOT=<n> (with MTPU_CRASH_KIND=
 * before|torn|after|bitflip|nofsync) arms a hard crash inside the WAL
 * append of that slot for the kill-and-restart harness.
 *
 * Exit codes (stable, asserted by tests/stream/test_exit_codes.cpp):
 *   0  success — every block executed and audited clean
 *   1  configuration error (bad flag/value) or report-write failure
 *   2  audit failure — a block's committed order was not serializable
 *   3  watchdog trip — the scheduler watchdog failed a block
 *   4  overload abort — stream shed ratio exceeded --max-shed-ratio
 *   5  unrecoverable corruption — the durable history is semantically
 *      damaged (height gap, digest-chain break, snapshot/WAL
 *      divergence), is of persistence format v1, or diverges from the
 *      deterministic re-feed
 *  42  injected crash (MTPU_CRASH_AT_SLOT) — harness use only
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "evm/interpreter.hpp"
#include "fault/injector.hpp"
#include "fault/stream_faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "persist/persistence.hpp"
#include "stream/server.hpp"
#include "workload/packs.hpp"
#include "workload/stream_gen.hpp"

namespace {

using mtpu::obs::jsonQuote;

struct Options
{
    int txs = 128;
    int accounts = 512; ///< genesis account-universe size
    double dep = 0.3;
    double erc20 = -1.0;
    int pus = 4;
    int blocks = 4;
    std::uint64_t seed = 1;
    std::string scheme = "st";
    int window = 8;
    std::uint32_t dbEntries = 2048;
    bool redundancy = true;
    bool hotspot = true;
    double mhz = 300.0;
    int threads = 0;      ///< host threads; 0 = auto (defaultThreads)
    std::string jsonPath; ///< machine-readable report; empty = off
    std::uint64_t injectSeed = 42;
    double dropEdges = 0.0;
    double abortRate = 0.0;
    int puFault = 0;
    bool recovery = true;
    bool injectionRequested = false;
    std::uint64_t watchdogBudget = 0; ///< 0 = derive per block
    std::string tracePath; ///< Chrome trace-event JSON; empty = off
    bool traceHost = false; ///< include host-domain events in the trace
    bool metrics = false;   ///< enable + report the metrics registry
    bool functional = false; ///< run the functional fast tier instead
    bool commutative = false; ///< commutative delta commits + elision
    std::string pack; ///< named workload pack; empty = synthetic mix

    // --stream mode (--blocks becomes soak slots; --txs the block cap).
    bool stream = false;
    int rate = 32;             ///< offered txs per slot (open loop)
    int poolCap = 4096;        ///< mempool capacity
    int senders = 64;          ///< hot-sender pool size
    bool chaos = false;        ///< arm the stream fault injector
    double burstX = 5.0;       ///< chaos burst multiplier
    double maxShedRatio = 1.0; ///< overload-abort ceiling; 1 = off
    std::string dataDir;       ///< WAL+snapshot directory; empty = off
    int snapshotEvery = 16;    ///< blocks between snapshots; 0 = never

    bool
    faultMode() const
    {
        return injectionRequested || dropEdges > 0.0 || abortRate > 0.0
               || puFault > 0 || watchdogBudget > 0;
    }
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --txs N          transactions per block (default 128)\n"
        "  --accounts N     genesis account universe (default 512);\n"
        "                   smaller states make digest/snapshot work\n"
        "                   cheaper (crash-harness runs)\n"
        "  --dep R          dependency ratio 0..1 (default 0.3)\n"
        "  --erc20 R        ERC20 share 0..1; negative = natural mix\n"
        "  --pus N          processing units (default 4)\n"
        "  --blocks N       number of blocks (default 4)\n"
        "  --seed S         workload seed (default 1)\n"
        "  --pack NAME      draw blocks from a named workload pack\n"
        "                   (hot-token, mint-storm, flash-loan,\n"
        "                   airdrop, oracle-liquidate, adversarial)\n"
        "                   instead of the synthetic mix; --dep and\n"
        "                   --erc20 are ignored. Not with --stream\n"
        "  --scheme X       seq | sync | st (default st)\n"
        "  --window M       scheduling window size (default 8)\n"
        "  --db-entries N   DB cache lines (default 2048)\n"
        "  --no-redundancy  disable context/DB reuse\n"
        "  --no-hotspot     disable hotspot optimization\n"
        "  --mhz F          clock for throughput (default 300)\n"
        "  --threads N      host threads for the parallel backend;\n"
        "                   0 = auto (hardware, MTPU_THREADS override,\n"
        "                   capped at 8); results are identical at\n"
        "                   every value (default 0)\n"
        "  --json PATH      also write a machine-readable JSON report\n"
        "  --trace PATH     write a Chrome trace-event / Perfetto JSON\n"
        "                   of the spatio-temporal schedule; cycle\n"
        "                   timestamps, byte-identical at any --threads\n"
        "  --trace-host     include host-domain events (commit-path\n"
        "                   choices) in the trace; these legitimately\n"
        "                   vary with --threads\n"
        "  --metrics        enable the metrics registry; print a\n"
        "                   summary and embed it in the --json report\n"
        "  --functional     run blocks on the functional fast tier\n"
        "                   (direct-threaded interpreter + decoded-code\n"
        "                   and result-memo caches) instead of the\n"
        "                   cycle-level MTPU model; prints wall-clock\n"
        "                   tx/s for both tiers and cross-checks the\n"
        "                   final state digest (exit 2 on divergence).\n"
        "                   evm.decode_cache.* / evm.memo.* counters\n"
        "                   are always embedded in the --json report\n"
        "  --commutative    commutativity-aware conflict taming: commit\n"
        "                   pure add/sub storage chains by range-checked\n"
        "                   delta replay instead of exact-match, and\n"
        "                   elide DAG edges between mutually commutative\n"
        "                   transactions (DESIGN.md §14). Applies to\n"
        "                   the st scheme and --functional; re-execution\n"
        "                   causes are split in the --json report\n"
        "fault injection (any of these enables the audited fault run):\n"
        "  --inject-seed S  fault injector seed (default 42)\n"
        "  --drop-edges R   fraction of DAG edges to drop 0..1\n"
        "  --abort-rate R   fraction of txs force-aborted mid-run 0..1\n"
        "  --pu-fault N     kill N processing units per block\n"
        "  --no-recovery    disable conflict validation/retry (the\n"
        "                   audit is expected to fail)\n"
        "  --watchdog-budget N  scheduler watchdog cycle budget;\n"
        "                   0 = derive a generous bound per block\n"
        "streaming front end (mempool + admission + backpressure):\n"
        "  --stream         soak mode: an open-loop producer feeds the\n"
        "                   bounded mempool; one block is cut and\n"
        "                   executed (recovered + audited) per slot.\n"
        "                   --blocks = soak slots, --txs = block cap\n"
        "  --rate N         offered transactions per slot (default 32)\n"
        "  --pool-cap N     mempool capacity (default 4096)\n"
        "  --senders N      hot-sender pool size (default 64)\n"
        "  --chaos          arm the seeded stream fault injector:\n"
        "                   burst floods, producer stalls, byzantine\n"
        "                   windows (reproducible via --inject-seed)\n"
        "  --burst-x F      chaos burst-flood multiplier (default 5)\n"
        "  --max-shed-ratio R  abort the soak (exit 4) when the shed\n"
        "                   fraction exceeds R; 1.0 disables\n"
        "durability (--stream only):\n"
        "  --data-dir PATH  recover from and persist to PATH: CRC-framed\n"
        "                   WAL (append+fsync per slot) + periodic\n"
        "                   snapshots; a restarted soak reaches the same\n"
        "                   final chain digest as an uninterrupted one\n"
        "  --snapshot-every N  blocks between snapshots (default 16;\n"
        "                   0 = WAL only)\n"
        "  env MTPU_CRASH_AT_SLOT=N + MTPU_CRASH_KIND=before|torn|\n"
        "                   after|bitflip|nofsync: hard-exit 42 inside\n"
        "                   slot N's WAL append (crash harness)\n"
        "exit codes:\n"
        "  0 success    1 config error    2 audit failure\n"
        "  3 watchdog trip    4 overload abort\n"
        "  5 unrecoverable corruption    42 injected crash\n",
        argv0);
}

bool
parse(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", what);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else if (arg == "--txs") {
            const char *v = next("--txs");
            if (!v)
                return false;
            opt.txs = std::atoi(v);
        } else if (arg == "--dep") {
            const char *v = next("--dep");
            if (!v)
                return false;
            opt.dep = std::atof(v);
        } else if (arg == "--erc20") {
            const char *v = next("--erc20");
            if (!v)
                return false;
            opt.erc20 = std::atof(v);
        } else if (arg == "--pus") {
            const char *v = next("--pus");
            if (!v)
                return false;
            opt.pus = std::atoi(v);
        } else if (arg == "--blocks") {
            const char *v = next("--blocks");
            if (!v)
                return false;
            opt.blocks = std::atoi(v);
        } else if (arg == "--accounts") {
            const char *v = next("--accounts");
            if (!v)
                return false;
            opt.accounts = std::atoi(v);
        } else if (arg == "--seed") {
            const char *v = next("--seed");
            if (!v)
                return false;
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--scheme") {
            const char *v = next("--scheme");
            if (!v)
                return false;
            opt.scheme = v;
        } else if (arg == "--window") {
            const char *v = next("--window");
            if (!v)
                return false;
            opt.window = std::atoi(v);
        } else if (arg == "--db-entries") {
            const char *v = next("--db-entries");
            if (!v)
                return false;
            opt.dbEntries = std::uint32_t(std::atoi(v));
        } else if (arg == "--no-redundancy") {
            opt.redundancy = false;
        } else if (arg == "--no-hotspot") {
            opt.hotspot = false;
        } else if (arg == "--mhz") {
            const char *v = next("--mhz");
            if (!v)
                return false;
            opt.mhz = std::atof(v);
        } else if (arg == "--threads") {
            const char *v = next("--threads");
            if (!v)
                return false;
            opt.threads = std::atoi(v);
        } else if (arg == "--json") {
            const char *v = next("--json");
            if (!v)
                return false;
            opt.jsonPath = v;
        } else if (arg == "--inject-seed") {
            const char *v = next("--inject-seed");
            if (!v)
                return false;
            opt.injectSeed = std::strtoull(v, nullptr, 10);
            opt.injectionRequested = true;
        } else if (arg == "--drop-edges") {
            const char *v = next("--drop-edges");
            if (!v)
                return false;
            opt.dropEdges = std::atof(v);
        } else if (arg == "--abort-rate") {
            const char *v = next("--abort-rate");
            if (!v)
                return false;
            opt.abortRate = std::atof(v);
        } else if (arg == "--pu-fault") {
            const char *v = next("--pu-fault");
            if (!v)
                return false;
            opt.puFault = std::atoi(v);
        } else if (arg == "--no-recovery") {
            opt.recovery = false;
        } else if (arg == "--watchdog-budget") {
            const char *v = next("--watchdog-budget");
            if (!v)
                return false;
            opt.watchdogBudget = std::strtoull(v, nullptr, 10);
        } else if (arg == "--stream") {
            opt.stream = true;
        } else if (arg == "--rate") {
            const char *v = next("--rate");
            if (!v)
                return false;
            opt.rate = std::atoi(v);
        } else if (arg == "--pool-cap") {
            const char *v = next("--pool-cap");
            if (!v)
                return false;
            opt.poolCap = std::atoi(v);
        } else if (arg == "--senders") {
            const char *v = next("--senders");
            if (!v)
                return false;
            opt.senders = std::atoi(v);
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--burst-x") {
            const char *v = next("--burst-x");
            if (!v)
                return false;
            opt.burstX = std::atof(v);
        } else if (arg == "--max-shed-ratio") {
            const char *v = next("--max-shed-ratio");
            if (!v)
                return false;
            opt.maxShedRatio = std::atof(v);
        } else if (arg == "--data-dir") {
            const char *v = next("--data-dir");
            if (!v)
                return false;
            opt.dataDir = v;
        } else if (arg == "--snapshot-every") {
            const char *v = next("--snapshot-every");
            if (!v)
                return false;
            opt.snapshotEvery = std::atoi(v);
        } else if (arg == "--trace") {
            const char *v = next("--trace");
            if (!v)
                return false;
            opt.tracePath = v;
        } else if (arg == "--trace-host") {
            opt.traceHost = true;
        } else if (arg == "--metrics") {
            opt.metrics = true;
        } else if (arg == "--functional") {
            opt.functional = true;
        } else if (arg == "--commutative") {
            opt.commutative = true;
        } else if (arg == "--pack") {
            const char *v = next("--pack");
            if (!v)
                return false;
            opt.pack = v;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (opt.txs < 1 || opt.pus < 1 || opt.blocks < 1 || opt.window < 1
        || opt.window > 64 || opt.scheme.empty() || opt.threads < 0
        || opt.accounts < 8) {
        std::fprintf(stderr, "invalid option values\n");
        return false;
    }
    if (opt.scheme != "seq" && opt.scheme != "sync" && opt.scheme != "st") {
        std::fprintf(stderr, "unknown scheme: %s\n", opt.scheme.c_str());
        return false;
    }
    if (opt.dropEdges < 0.0 || opt.dropEdges > 1.0 || opt.abortRate < 0.0
        || opt.abortRate > 1.0 || opt.puFault < 0
        || opt.puFault >= opt.pus) {
        std::fprintf(stderr, "invalid fault-injection values\n");
        return false;
    }
    if (opt.faultMode() && opt.scheme != "st") {
        std::fprintf(stderr,
                     "fault injection requires --scheme st\n");
        return false;
    }
    if (!opt.pack.empty()) {
        mtpu::workload::Pack pack;
        if (!mtpu::workload::parsePack(opt.pack, pack)) {
            std::fprintf(stderr, "unknown pack: %s (available:",
                         opt.pack.c_str());
            for (mtpu::workload::Pack p : mtpu::workload::allPacks())
                std::fprintf(stderr, " %s", mtpu::workload::packName(p));
            std::fprintf(stderr, ")\n");
            return false;
        }
        if (opt.stream) {
            std::fprintf(stderr, "--pack cannot combine with --stream "
                                 "(stream blocks are cut live from the "
                                 "mempool)\n");
            return false;
        }
    }
    if (opt.stream) {
        if (opt.scheme != "st") {
            std::fprintf(stderr, "--stream requires --scheme st\n");
            return false;
        }
        if (opt.rate < 1 || opt.poolCap < 1 || opt.senders < 1
            || opt.burstX < 1.0 || opt.maxShedRatio < 0.0
            || opt.maxShedRatio > 1.0 || opt.snapshotEvery < 0) {
            std::fprintf(stderr, "invalid --stream values\n");
            return false;
        }
    } else if (!opt.dataDir.empty()) {
        std::fprintf(stderr, "--data-dir requires --stream\n");
        return false;
    }
    if (opt.functional
        && (opt.stream || opt.faultMode() || !opt.tracePath.empty())) {
        std::fprintf(stderr, "--functional is a standalone mode; it "
                             "cannot combine with --stream, fault "
                             "injection or --trace\n");
        return false;
    }
    return true;
}

/** Number literals come from the shared JSON writer (obs/json.hpp),
 *  the same one bench/common.hpp uses. */
using mtpu::obs::jsonNum;

/**
 * Minimal JSON report accumulator: a flat object of scalar fields plus
 * one "blocks" array of pre-rendered row objects. Field values are
 * passed pre-rendered too (use jnum / "\"str\"" / "true").
 */
struct JsonReport
{
    std::vector<std::pair<std::string, std::string>> fields;
    std::vector<std::string> blocks;

    void
    set(const std::string &key, const std::string &rendered)
    {
        fields.emplace_back(key, rendered);
    }

    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fputs("{\n", f);
        for (const auto &[k, v] : fields)
            std::fprintf(f, "  %s: %s,\n", jsonQuote(k).c_str(),
                         v.c_str());
        std::fputs("  \"blocks\": [\n", f);
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            std::fprintf(f, "    %s%s\n", blocks[i].c_str(),
                         i + 1 < blocks.size() ? "," : "");
        }
        std::fputs("  ]\n}\n", f);
        return std::fclose(f) == 0;
    }
};

/** Print a human-readable metrics summary and embed it in the report. */
void
reportMetrics(JsonReport &report)
{
    mtpu::obs::Snapshot snap = mtpu::obs::Registry::global().snapshot();
    std::printf("metrics:\n");
    for (const auto &c : snap.counters)
        std::printf("  %-28s %12llu\n", c.name.c_str(),
                    (unsigned long long)c.value);
    for (const auto &g : snap.gauges)
        std::printf("  %-28s %12lld\n", g.name.c_str(),
                    (long long)g.value);
    for (const auto &h : snap.histograms)
        std::printf("  %-28s count=%llu sum=%llu mean=%.1f\n",
                    h.name.c_str(), (unsigned long long)h.count,
                    (unsigned long long)h.sum, h.mean());
    report.set("metrics", snap.toJson());
}

/** Write the Chrome trace-event JSON export. */
bool
writeTrace(const mtpu::obs::Tracer &tracer, const Options &opt)
{
    if (opt.tracePath.empty())
        return true;
    FILE *f = std::fopen(opt.tracePath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", opt.tracePath.c_str());
        return false;
    }
    std::string json = tracer.chromeJson(opt.traceHost);
    std::fwrite(json.data(), 1, json.size(), f);
    bool ok = std::fclose(f) == 0;
    if (tracer.dropped() > 0)
        std::fprintf(stderr,
                     "trace ring wrapped: %llu oldest records dropped\n",
                     (unsigned long long)tracer.dropped());
    std::printf("trace: %zu records -> %s\n", tracer.size(),
                opt.tracePath.c_str());
    return ok;
}

/** Shared config section of both report flavours. */
void
describeRun(JsonReport &report, const Options &opt,
            const mtpu::arch::MtpuConfig &cfg)
{
    unsigned host = mtpu::support::ThreadPool::resolveThreads(opt.threads);
    report.set("tool", jsonQuote("mtpu_sim"));
    report.set("scheme", jsonQuote(opt.scheme));
    report.set("pus", jsonNum(std::uint64_t(cfg.numPus)));
    report.set("window", jsonNum(std::uint64_t(cfg.windowSize)));
    report.set("dbEntries", jsonNum(std::uint64_t(cfg.dbCacheEntries)));
    report.set("redundancyOpt", opt.redundancy ? "true" : "false");
    report.set("hotspotOpt", opt.hotspot ? "true" : "false");
    report.set("txsPerBlock", jsonNum(std::uint64_t(opt.txs)));
    report.set("pack",
               opt.pack.empty() ? "null" : jsonQuote(opt.pack));
    report.set("depRatio", jsonNum(opt.dep));
    report.set("erc20Share", jsonNum(opt.erc20));
    report.set("numBlocks", jsonNum(std::uint64_t(opt.blocks)));
    report.set("seed", jsonNum(opt.seed));
    report.set("mhz", jsonNum(opt.mhz));
    report.set("hostThreads", jsonNum(std::uint64_t(host)));
    report.set("commutative", cfg.commutative ? "true" : "false");
}

/**
 * Audited fault run: degrade each block per the seeded plan, execute
 * with (or without) speculative recovery, audit serializability.
 * Returns the process exit code: 2 if any block failed the audit
 * outright, else 3 if any block tripped the watchdog (a tripped
 * block's partial completion order also fails the audit, so the
 * watchdog is attributed first per block), else 0.
 */
/** One block: from the named pack when --pack is set, else the
 *  synthetic mix. Pack names were validated at parse time. */
mtpu::workload::BlockRun
makeBlock(mtpu::workload::Generator &gen, const Options &opt)
{
    using namespace mtpu::workload;
    if (!opt.pack.empty()) {
        Pack pack{};
        parsePack(opt.pack, pack);
        PackParams params;
        params.txCount = opt.txs;
        return buildPackBlock(gen, pack, params);
    }
    BlockParams params;
    params.txCount = opt.txs;
    params.depRatio = opt.dep;
    params.erc20Share = opt.erc20;
    return gen.generateBlock(params);
}

int
runFaulted(const Options &opt, const mtpu::arch::MtpuConfig &cfg,
           const mtpu::core::RunOptions &run, mtpu::obs::Tracer *tracer)
{
    using namespace mtpu;

    std::printf("fault injection: seed=%llu drop-edges=%.2f "
                "abort-rate=%.2f pu-fault=%d recovery=%s\n",
                (unsigned long long)opt.injectSeed, opt.dropEdges,
                opt.abortRate, opt.puFault,
                opt.recovery ? "on" : "off");

    workload::Generator gen(opt.seed, std::size_t(opt.accounts), opt.threads);
    gen.setCommutativeDag(opt.commutative);
    core::MtpuProcessor proc(cfg);
    if (tracer)
        proc.setTracer(tracer);
    fault::FaultInjector inj(opt.injectSeed);

    JsonReport report;
    describeRun(report, opt, cfg);
    report.set("faultMode", "true");
    report.set("injectSeed", jsonNum(opt.injectSeed));
    report.set("dropEdges", jsonNum(opt.dropEdges));
    report.set("abortRate", jsonNum(opt.abortRate));
    report.set("puFault", jsonNum(std::uint64_t(opt.puFault)));
    report.set("recovery", opt.recovery ? "true" : "false");
    auto wall_start = std::chrono::steady_clock::now();

    fault::InjectionParams params;
    params.dropEdgeRate = opt.dropEdges;
    params.abortRate = opt.abortRate;
    params.numPus = cfg.numPus;
    params.puFaultCount = opt.puFault;

    std::printf("%5s %6s %8s %9s %8s %8s %8s %7s\n", "block", "txs",
                "dropped", "cycles", "aborts", "retries", "failedTx",
                "audit");

    int failed_blocks = 0;
    int audit_failed_blocks = 0;
    int watchdog_blocks = 0;
    sched::EngineStats totals;
    for (int b = 0; b < opt.blocks; ++b) {
        auto block = makeBlock(gen, opt);

        auto plan = inj.plan(block, params);
        auto degraded = fault::FaultInjector::degrade(block, plan);

        core::RunOptions this_run = run;
        this_run.hotspotOpt = run.hotspotOpt && b > 0;
        this_run.recovery.validateConflicts = opt.recovery;
        this_run.recovery.plan = &plan;
        this_run.recovery.watchdogBudget = opt.watchdogBudget;
        auto res = proc.executeAudited(degraded, gen.genesis(),
                                       this_run);

        bool ok = res.ok();
        if (!ok) {
            ++failed_blocks;
            if (res.stats.watchdogFired)
                ++watchdog_blocks;
            else
                ++audit_failed_blocks;
        }
        std::uint64_t aborts =
            res.stats.conflictAborts + res.stats.puFaultAborts;
        std::printf("%5d %6zu %8zu %9llu %8llu %8llu %8llu %7s\n", b,
                    block.txs.size(), plan.droppedEdges.size(),
                    (unsigned long long)res.stats.makespan,
                    (unsigned long long)aborts,
                    (unsigned long long)res.stats.retries,
                    (unsigned long long)res.stats.failedTxs,
                    ok ? "pass" : "FAIL");
        if (!res.audit.ok() && !res.audit.message.empty())
            std::printf("        %s\n", res.audit.message.c_str());
        if (res.stats.watchdogFired && res.stats.watchdog)
            std::printf("%s", res.stats.watchdog->toString().c_str());

        totals.conflictAborts += res.stats.conflictAborts;
        totals.puFaultAborts += res.stats.puFaultAborts;
        totals.injectedAborts += res.stats.injectedAborts;
        totals.retries += res.stats.retries;
        totals.reexecValidationMiss += res.stats.reexecValidationMiss;
        totals.reexecBoundsMiss += res.stats.reexecBoundsMiss;
        totals.commutativeDropped += res.stats.commutativeDropped;
        proc.warmup(block, 16);

        report.blocks.push_back(
            "{\"block\": " + jsonNum(std::uint64_t(b))
            + ", \"txs\": " + jsonNum(std::uint64_t(block.txs.size()))
            + ", \"droppedEdges\": "
            + jsonNum(std::uint64_t(plan.droppedEdges.size()))
            + ", \"makespan\": " + jsonNum(res.stats.makespan)
            + ", \"conflictAborts\": " + jsonNum(res.stats.conflictAborts)
            + ", \"puFaultAborts\": " + jsonNum(res.stats.puFaultAborts)
            + ", \"injectedAborts\": " + jsonNum(res.stats.injectedAborts)
            + ", \"reexecValidationMiss\": "
            + jsonNum(res.stats.reexecValidationMiss)
            + ", \"reexecBoundsMiss\": "
            + jsonNum(res.stats.reexecBoundsMiss)
            + ", \"commutativeDropped\": "
            + jsonNum(res.stats.commutativeDropped)
            + ", \"retries\": " + jsonNum(res.stats.retries)
            + ", \"failedTxs\": " + jsonNum(res.stats.failedTxs)
            + ", \"auditOk\": " + (ok ? "true" : "false") + "}");
    }

    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    report.set("wallSeconds", jsonNum(wall));
    report.set("failedBlocks", jsonNum(std::uint64_t(failed_blocks)));
    report.set("reexecValidationMiss",
               jsonNum(totals.reexecValidationMiss));
    report.set("reexecBoundsMiss", jsonNum(totals.reexecBoundsMiss));
    report.set("commutativeDropped", jsonNum(totals.commutativeDropped));
    if (opt.metrics)
        reportMetrics(report);
    if (!opt.jsonPath.empty() && !report.write(opt.jsonPath))
        return 1;
    if (tracer && !writeTrace(*tracer, opt))
        return 1;

    std::printf("totals: conflictAborts=%llu puFaultAborts=%llu "
                "injectedAborts=%llu retries=%llu; %d/%d blocks "
                "audited clean\n",
                (unsigned long long)totals.conflictAborts,
                (unsigned long long)totals.puFaultAborts,
                (unsigned long long)totals.injectedAborts,
                (unsigned long long)totals.retries,
                opt.blocks - failed_blocks, opt.blocks);
    if (audit_failed_blocks > 0)
        return 2;
    return watchdog_blocks > 0 ? 3 : 0;
}

/**
 * Streaming soak: an open-loop producer (optionally shaped by the
 * seeded chaos injector) feeds the bounded mempool; the StreamServer
 * cuts, executes and audits one block per slot. The process exit code
 * is the SoakOutcome (0 ok / 2 audit / 3 watchdog / 4 overload).
 */
int
runStream(const Options &opt, const mtpu::arch::MtpuConfig &cfg,
          const mtpu::core::RunOptions &run)
{
    using namespace mtpu;

    workload::Generator gen(opt.seed, std::size_t(opt.accounts), opt.threads);
    workload::StreamMix mix;
    workload::StreamGenerator wire_gen(gen, opt.seed, opt.senders, mix);

    stream::StreamConfig scfg;
    scfg.pool.capacity = std::size_t(opt.poolCap);
    scfg.block.maxTxs = std::size_t(opt.txs);
    scfg.maxShedRatio = opt.maxShedRatio;

    fault::StreamFaultParams fparams;
    fparams.burstMultiplier = opt.burstX;
    if (opt.chaos) {
        fparams.burstRate = 0.05;
        fparams.stallRate = 0.04;
        fparams.byzantineRate = 0.04;
    }
    fault::StreamFaultInjector chaos(opt.injectSeed, fparams,
                                     std::uint64_t(opt.blocks));

    core::RunOptions srun = run;
    srun.recovery.watchdogBudget = opt.watchdogBudget;
    stream::StreamServer server(cfg, srun, gen.genesis(),
                                gen.contracts(), scfg);

    // Durability: recover the data directory before the first slot,
    // then attach so committed blocks are logged and recovered blocks
    // are skipped (the producer re-feeds the wire stream from slot 0).
    std::unique_ptr<persist::Persistence> durable;
    persist::RecoveryResult recovered;
    if (!opt.dataDir.empty()) {
        persist::PersistConfig pcfg;
        pcfg.dataDir = opt.dataDir;
        pcfg.snapshotEvery = std::uint64_t(opt.snapshotEvery);
        try {
            durable = std::make_unique<persist::Persistence>(pcfg);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "persistence: %s\n", e.what());
            return 1;
        }
        recovered = durable->recover(cfg, srun, gen.genesis());
        if (!recovered.ok) {
            std::fprintf(stderr,
                         "recovery: unrecoverable corruption: %s\n",
                         recovered.error.c_str());
            return 5;
        }
        std::printf(
            "recovery: height=%llu (snapshot %s at %llu, %llu "
            "replayed, %llu WAL records%s%s) digest %s\n",
            (unsigned long long)recovered.recoveredHeight,
            recovered.usedSnapshot ? "used" : "none",
            (unsigned long long)recovered.snapshotHeight,
            (unsigned long long)recovered.blocksReplayed,
            (unsigned long long)recovered.walRecords,
            recovered.walTailTruncated ? ", damaged tail truncated"
                                       : "",
            recovered.corruptSnapshots ? ", corrupt snapshot dropped"
                                       : "",
            recovered.chainDigest.toHex64().c_str());
        server.setChainState(recovered.state);
        server.attachPersistence(durable.get());
    }

    std::printf("stream soak: %d slots, rate=%d tx/slot, pool-cap=%d, "
                "senders=%d, chaos=%s (seed=%llu, burst-x=%.1f), "
                "max-shed-ratio=%.2f\n",
                opt.blocks, opt.rate, opt.poolCap, opt.senders,
                opt.chaos ? "on" : "off",
                (unsigned long long)opt.injectSeed, opt.burstX,
                opt.maxShedRatio);

    std::uint64_t offered = 0;
    std::uint64_t held_back = 0;
    auto producer = [&](std::uint64_t slot, std::size_t credits) {
        // Wallet behaviour: resync issued nonces against the pool's
        // pending view so shed/bounced nonces get re-issued.
        wire_gen.resyncNonces([&](const evm::Address &a) {
            return server.mempool().pendingNonce(a);
        });
        const fault::SlotProfile &prof = chaos.profile(slot);
        std::size_t want =
            prof.stalled
                ? 0
                : std::size_t(double(opt.rate) * prof.rateMultiplier
                              + 0.5);
        offered += want;
        std::size_t send = want;
        // A byzantine window ignores the credit grant (the mempool
        // bounces the excess cheaply); everyone else respects it.
        if (!(prof.byzantine && fparams.byzantineIgnoresCredits)
            && send > credits) {
            held_back += send - credits;
            send = credits;
        }
        if (prof.byzantine)
            return wire_gen.slotTxs(slot, send,
                                    mix.boosted(prof.mixBoost));
        return wire_gen.slotTxs(slot, send);
    };

    auto wall_start = std::chrono::steady_clock::now();
    stream::SoakReport rep = server.run(producer,
                                        std::uint64_t(opt.blocks));
    rep.offered = offered;
    rep.producerHeldBack = held_back;
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

    double shed_ratio =
        rep.pool.submitted
            ? double(rep.pool.shedTotal()) / double(rep.pool.submitted)
            : 0.0;
    std::printf(
        "soak: %s after %llu slots — %llu blocks (%llu empty), "
        "%llu committed txs (%.1f tx/slot)\n"
        "flow: offered=%llu held-back=%llu submitted=%llu "
        "admitted=%llu shed=%llu (ratio %.3f) peak-depth=%zu\n"
        "exec: conflictAborts=%llu retries=%llu failedReceipts=%llu "
        "(%llu reverted, %llu real) auditFailures=%d "
        "deadlineMisses=%llu\n"
        "latency: p50=%.0f p90=%.0f p99=%.0f mean=%.1f slots "
        "(queued %llu: p50=%.0f p99=%.0f); chain digest %s\n",
        stream::soakOutcomeName(rep.outcome),
        (unsigned long long)rep.slots, (unsigned long long)rep.blocks,
        (unsigned long long)rep.emptyBlocks,
        (unsigned long long)rep.committedTxs, rep.committedPerSlot(),
        (unsigned long long)rep.offered,
        (unsigned long long)rep.producerHeldBack,
        (unsigned long long)rep.pool.submitted,
        (unsigned long long)rep.pool.admitted,
        (unsigned long long)rep.pool.shedTotal(), shed_ratio,
        rep.pool.peakDepth, (unsigned long long)rep.conflictAborts,
        (unsigned long long)rep.retries,
        (unsigned long long)rep.failedReceipts,
        (unsigned long long)rep.revertedReceipts,
        (unsigned long long)rep.executionFailures, rep.auditFailures,
        (unsigned long long)rep.deadlineMisses, rep.latencyP50,
        rep.latencyP90, rep.latencyP99, rep.latencyMean,
        (unsigned long long)rep.queuedTxs, rep.queuedP50, rep.queuedP99,
        rep.chainDigest.toHex64().c_str());
    if (durable)
        std::printf("durability: %llu replayed blocks (%llu txs), "
                    "%llu WAL appends (%llu bytes), %llu snapshots%s\n",
                    (unsigned long long)rep.replayedBlocks,
                    (unsigned long long)rep.replayedTxs,
                    (unsigned long long)rep.walAppends,
                    (unsigned long long)rep.walBytes,
                    (unsigned long long)rep.snapshotsWritten,
                    rep.walBroken ? " (WAL BROKEN mid-run)" : "");
    if (opt.chaos)
        std::printf("chaos: %llu burst, %llu stalled, %llu byzantine "
                    "slots\n",
                    (unsigned long long)chaos.burstSlots(),
                    (unsigned long long)chaos.stalledSlots(),
                    (unsigned long long)chaos.byzantineSlots());

    JsonReport report;
    describeRun(report, opt, cfg);
    report.set("streamMode", "true");
    report.set("outcome",
               jsonQuote(stream::soakOutcomeName(rep.outcome)));
    report.set("ratePerSlot", jsonNum(std::uint64_t(opt.rate)));
    report.set("poolCapacity", jsonNum(std::uint64_t(opt.poolCap)));
    report.set("senders", jsonNum(std::uint64_t(opt.senders)));
    report.set("chaos", opt.chaos ? "true" : "false");
    report.set("slots", jsonNum(rep.slots));
    report.set("committedBlocks", jsonNum(rep.blocks));
    report.set("emptyBlocks", jsonNum(rep.emptyBlocks));
    report.set("offered", jsonNum(rep.offered));
    report.set("producerHeldBack", jsonNum(rep.producerHeldBack));
    report.set("submitted", jsonNum(rep.pool.submitted));
    report.set("admitted", jsonNum(rep.pool.admitted));
    report.set("shedTotal", jsonNum(rep.pool.shedTotal()));
    report.set("shedRatio", jsonNum(shed_ratio));
    report.set("peakPoolDepth", jsonNum(std::uint64_t(rep.pool.peakDepth)));
    std::string admission = "{";
    for (int c = 0; c < int(stream::Admit::kCount); ++c) {
        admission += (c ? ", " : "")
                   + jsonQuote(stream::admitName(stream::Admit(c)))
                   + ": " + jsonNum(rep.pool.byCode[std::size_t(c)]);
    }
    admission += "}";
    report.set("admission", admission);
    report.set("committedTxs", jsonNum(rep.committedTxs));
    report.set("committedPerSlot", jsonNum(rep.committedPerSlot()));
    report.set("failedReceipts", jsonNum(rep.failedReceipts));
    report.set("revertedReceipts", jsonNum(rep.revertedReceipts));
    report.set("executionFailures", jsonNum(rep.executionFailures));
    report.set("conflictAborts", jsonNum(rep.conflictAborts));
    report.set("retries", jsonNum(rep.retries));
    report.set("auditFailures", jsonNum(std::uint64_t(rep.auditFailures)));
    report.set("watchdogFired", rep.watchdogFired ? "true" : "false");
    report.set("deadlineMisses", jsonNum(rep.deadlineMisses));
    report.set("latencyP50Slots", jsonNum(rep.latencyP50));
    report.set("latencyP90Slots", jsonNum(rep.latencyP90));
    report.set("latencyP99Slots", jsonNum(rep.latencyP99));
    report.set("latencyMeanSlots", jsonNum(rep.latencyMean));
    report.set("queuedTxs", jsonNum(rep.queuedTxs));
    report.set("queuedP50Slots", jsonNum(rep.queuedP50));
    report.set("queuedP99Slots", jsonNum(rep.queuedP99));
    report.set("persistence", durable ? "true" : "false");
    if (durable) {
        report.set("dataDir", jsonQuote(opt.dataDir));
        report.set("snapshotEvery",
                   jsonNum(std::uint64_t(opt.snapshotEvery)));
        report.set("recoveredHeight",
                   jsonNum(recovered.recoveredHeight));
        report.set("recoveryUsedSnapshot",
                   recovered.usedSnapshot ? "true" : "false");
        report.set("recoveryBlocksReplayed",
                   jsonNum(recovered.blocksReplayed));
        report.set("recoveryWalRecords", jsonNum(recovered.walRecords));
        report.set("recoveryWalTailTruncated",
                   recovered.walTailTruncated ? "true" : "false");
        report.set("recoveryCorruptSnapshots",
                   jsonNum(recovered.corruptSnapshots));
        report.set("replayedBlocks", jsonNum(rep.replayedBlocks));
        report.set("replayedTxs", jsonNum(rep.replayedTxs));
        report.set("walAppends", jsonNum(rep.walAppends));
        report.set("walBytes", jsonNum(rep.walBytes));
        report.set("snapshotsWritten", jsonNum(rep.snapshotsWritten));
        report.set("walBroken", rep.walBroken ? "true" : "false");
    }
    report.set("chainDigest", jsonQuote(rep.chainDigest.toHex64()));
    report.set("wallSeconds", jsonNum(wall));
    for (const stream::BlockSummary &row : rep.blockLog) {
        report.blocks.push_back(
            "{\"height\": " + jsonNum(row.height)
            + ", \"slot\": " + jsonNum(row.slot)
            + ", \"txs\": " + jsonNum(std::uint64_t(row.txs))
            + ", \"makespan\": " + jsonNum(row.makespan)
            + ", \"conflictAborts\": " + jsonNum(row.conflictAborts)
            + ", \"retries\": " + jsonNum(row.retries)
            + ", \"poolDepthAfter\": "
            + jsonNum(std::uint64_t(row.poolDepthAfter))
            + ", \"auditOk\": " + (row.auditOk ? "true" : "false")
            + "}");
    }
    if (opt.metrics)
        reportMetrics(report);
    if (!opt.jsonPath.empty() && !report.write(opt.jsonPath))
        return 1;

    switch (rep.outcome) {
      case stream::SoakOutcome::Ok: return 0;
      case stream::SoakOutcome::AuditFailure: return 2;
      case stream::SoakOutcome::WatchdogTrip: return 3;
      case stream::SoakOutcome::OverloadAbort: return 4;
      case stream::SoakOutcome::CorruptionAbort: return 5;
    }
    return 0;
}

/**
 * Functional fast-tier run: execute the generated blocks on the
 * FunctionalPipeline (speculative fan-out + memo replay) and on the
 * audited cycle-level MTPU pipeline, wall-clock both, and cross-check
 * the final state digests. Returns 0 on success, 2 if the tiers
 * diverge (or the cycle tier's audit fails), 1 on a report-write
 * failure.
 */
int
runFunctional(const Options &opt, const mtpu::arch::MtpuConfig &cfg)
{
    using namespace mtpu;
    using Clock = std::chrono::steady_clock;

    // The decode-cache / memo counters are part of this mode's report
    // contract, so the registry is always on here (not just --metrics).
    obs::Registry::global().enable(true);

    workload::Generator gen(opt.seed, std::size_t(opt.accounts),
                            opt.threads);
    gen.setCommutativeDag(opt.commutative);
    JsonReport report;
    describeRun(report, opt, cfg);
    report.set("functionalTier", "true");

    // Pre-generate every block so workload synthesis stays out of the
    // timed regions. Generation itself runs the builder-side consensus
    // stage, which warms the decoded-program and memo caches — the
    // same reuse a block builder hands its attached executor.
    std::vector<workload::BlockRun> blocks;
    blocks.reserve(std::size_t(opt.blocks));
    for (int b = 0; b < opt.blocks; ++b)
        blocks.push_back(makeBlock(gen, opt));

    // Cycle-tier reference: the audited cycle-level MTPU pipeline,
    // chained block by block — the tier the fast path must match.
    std::uint64_t total_txs = 0;
    core::MtpuProcessor ref_proc(cfg);
    core::RunOptions ref_run;
    ref_run.scheme = core::Scheme::SpatioTemporal;
    ref_run.redundancyOpt = opt.redundancy;
    ref_run.hotspotOpt = opt.hotspot;
    evm::WorldState ref_state = gen.genesis();
    auto ref_start = Clock::now();
    for (const workload::BlockRun &block : blocks) {
        core::AuditedRun res =
            ref_proc.executeAudited(block, ref_state, ref_run);
        if (!res.ok() || !res.stats.finalState) {
            std::fprintf(stderr, "cycle tier: audit failed\n");
            return 2;
        }
        ref_state = *res.stats.finalState;
        total_txs += block.txs.size();
    }
    double ref_seconds = std::chrono::duration<double>(
                             Clock::now() - ref_start)
                             .count();
    U256 ref_digest = ref_state.digest();

    // Functional tier: speculate + validate-or-re-execute per block.
    core::FunctionalPipeline pipe(gen.genesis(), opt.threads);
    pipe.setCommutative(opt.commutative);
    std::printf("%5s %6s %9s %9s %9s %12s\n", "block", "txs",
                "replayed", "reexec", "ms", "throughput");
    std::uint64_t total_replayed = 0;
    std::uint64_t total_reexec = 0;
    std::uint64_t total_vmiss = 0;
    std::uint64_t total_bmiss = 0;
    double func_seconds = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        auto start = Clock::now();
        core::FunctionalBlockResult res = pipe.executeBlock(blocks[b]);
        double secs = std::chrono::duration<double>(Clock::now() - start)
                          .count();
        func_seconds += secs;
        total_replayed += res.replayed;
        total_reexec += res.reexecuted;
        total_vmiss += res.reexecValidationMiss;
        total_bmiss += res.reexecBoundsMiss;
        double txps = secs > 0 ? double(res.txCount) / secs : 0;
        std::printf("%5zu %6llu %9llu %9llu %9.2f %9.0f tx/s\n", b,
                    (unsigned long long)res.txCount,
                    (unsigned long long)res.replayed,
                    (unsigned long long)res.reexecuted, secs * 1e3,
                    txps);
        report.blocks.push_back(
            "{\"block\": " + jsonNum(std::uint64_t(b))
            + ", \"txs\": " + jsonNum(res.txCount)
            + ", \"replayed\": " + jsonNum(res.replayed)
            + ", \"reexecuted\": " + jsonNum(res.reexecuted)
            + ", \"reexecValidationMiss\": "
            + jsonNum(res.reexecValidationMiss)
            + ", \"reexecBoundsMiss\": " + jsonNum(res.reexecBoundsMiss)
            + ", \"wallSeconds\": " + jsonNum(secs)
            + ", \"txPerSec\": " + jsonNum(txps) + "}");
    }
    U256 func_digest = pipe.state().digest();

    double func_txps =
        func_seconds > 0 ? double(total_txs) / func_seconds : 0;
    double ref_txps =
        ref_seconds > 0 ? double(total_txs) / ref_seconds : 0;
    std::printf("functional tier: %llu txs in %.3f s (%.0f tx/s), "
                "%llu replayed / %llu re-executed\n",
                (unsigned long long)total_txs, func_seconds, func_txps,
                (unsigned long long)total_replayed,
                (unsigned long long)total_reexec);
    std::printf("cycle-tier reference: %.3f s (%.0f tx/s); "
                "tier speedup %.2fx\n",
                ref_seconds, ref_txps,
                ref_seconds > 0 && func_seconds > 0
                    ? ref_seconds / func_seconds
                    : 0.0);

    report.set("totalTxs", jsonNum(total_txs));
    report.set("replayedTxs", jsonNum(total_replayed));
    report.set("reexecutedTxs", jsonNum(total_reexec));
    report.set("reexecValidationMiss", jsonNum(total_vmiss));
    report.set("reexecBoundsMiss", jsonNum(total_bmiss));
    report.set("functionalSeconds", jsonNum(func_seconds));
    report.set("functionalTxPerSec", jsonNum(func_txps));
    report.set("cycleTierSeconds", jsonNum(ref_seconds));
    report.set("cycleTierTxPerSec", jsonNum(ref_txps));
    report.set("tierSpeedup",
               jsonNum(func_seconds > 0 ? ref_seconds / func_seconds
                                        : 0.0));
    report.set("stateDigest", jsonQuote(func_digest.toHex()));
    reportMetrics(report);

    bool diverged = !(func_digest == ref_digest);
    if (diverged)
        std::fprintf(stderr,
                     "tier divergence: functional digest %s != "
                     "cycle digest %s\n",
                     func_digest.toHex().c_str(),
                     ref_digest.toHex().c_str());
    else
        std::printf("state digest cross-check: ok (%s)\n",
                    func_digest.toHex().c_str());

    if (!opt.jsonPath.empty() && !report.write(opt.jsonPath))
        return 1;
    return diverged ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtpu;
    Options opt;
    if (!parse(argc, argv, opt))
        return 1;

    arch::MtpuConfig cfg;
    cfg.numPus = opt.pus;
    cfg.windowSize = opt.window;
    cfg.dbCacheEntries = opt.dbEntries;
    cfg.threads = opt.threads;
    cfg.commutative = opt.commutative;

    core::RunOptions run;
    run.scheme = opt.scheme == "seq"    ? core::Scheme::Sequential
                 : opt.scheme == "sync" ? core::Scheme::Synchronous
                                        : core::Scheme::SpatioTemporal;
    run.redundancyOpt = opt.redundancy;
    run.hotspotOpt = opt.hotspot;

    std::printf("mtpu_sim: %d PUs, scheme=%s, redundancy=%s, "
                "hotspot=%s, window=%d, db=%u lines\n",
                opt.pus, opt.scheme.c_str(),
                opt.redundancy ? "on" : "off",
                opt.hotspot ? "on" : "off", opt.window, opt.dbEntries);

    if (opt.metrics)
        obs::Registry::global().enable(true);
    obs::Tracer tracer;
    obs::Tracer *tracer_ptr = opt.tracePath.empty() ? nullptr : &tracer;
    if (tracer_ptr && opt.scheme != "st") {
        std::fprintf(stderr, "--trace requires --scheme st\n");
        return 1;
    }

    if (opt.functional)
        return runFunctional(opt, cfg);
    if (opt.stream)
        return runStream(opt, cfg, run);
    if (opt.faultMode())
        return runFaulted(opt, cfg, run, tracer_ptr);

    workload::Generator gen(opt.seed, std::size_t(opt.accounts), opt.threads);
    gen.setCommutativeDag(opt.commutative);
    core::MtpuProcessor proc(cfg);
    if (tracer_ptr)
        proc.setTracer(tracer_ptr);

    JsonReport report_json;
    describeRun(report_json, opt, cfg);
    report_json.set("faultMode", "false");
    auto wall_start = std::chrono::steady_clock::now();

    std::printf("%5s %6s %8s %9s %9s %8s %12s\n", "block", "txs",
                "depMeas", "cycles", "speedup", "util", "throughput");

    double total_speedup = 0;
    for (int b = 0; b < opt.blocks; ++b) {
        auto block = makeBlock(gen, opt);

        core::RunOptions this_run = run;
        this_run.hotspotOpt = run.hotspotOpt && b > 0; // needs warmup
        auto report = proc.compare(block, this_run);
        double seconds = double(report.stats.makespan) / (opt.mhz * 1e6);
        std::printf("%5d %6zu %8.2f %9llu %8.2fx %7.1f%% %9.0f tx/s\n",
                    b, block.txs.size(), block.measuredDepRatio(),
                    (unsigned long long)report.stats.makespan,
                    report.speedup(),
                    report.stats.utilization() * 100.0,
                    double(block.txs.size()) / seconds);
        total_speedup += report.speedup();
        proc.warmup(block, 16); // hotspot collection in the interval

        report_json.blocks.push_back(
            "{\"block\": " + jsonNum(std::uint64_t(b))
            + ", \"txs\": " + jsonNum(std::uint64_t(block.txs.size()))
            + ", \"measuredDepRatio\": " + jsonNum(block.measuredDepRatio())
            + ", \"makespan\": " + jsonNum(report.stats.makespan)
            + ", \"baselineCycles\": " + jsonNum(report.baselineCycles)
            + ", \"speedup\": " + jsonNum(report.speedup())
            + ", \"utilization\": " + jsonNum(report.stats.utilization())
            + ", \"txPerSec\": "
            + jsonNum(double(block.txs.size()) / seconds) + "}");
    }
    std::printf("average speedup over %d blocks: %.2fx\n", opt.blocks,
                total_speedup / opt.blocks);

    arch::AreaModel area(cfg);
    std::printf("silicon: %.1f mm^2 @45nm, %.2f W @%.0f MHz\n",
                area.totalArea(), area.powerWatts(opt.mhz), opt.mhz);

    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    report_json.set("wallSeconds", jsonNum(wall));
    report_json.set("avgSpeedup", jsonNum(total_speedup / opt.blocks));
    report_json.set("siliconMm2", jsonNum(area.totalArea()));
    report_json.set("powerWatts", jsonNum(area.powerWatts(opt.mhz)));
    if (opt.metrics)
        reportMetrics(report_json);
    if (!opt.jsonPath.empty() && !report_json.write(opt.jsonPath))
        return 1;
    if (tracer_ptr && !writeTrace(tracer, opt))
        return 1;
    return 0;
}
